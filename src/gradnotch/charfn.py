"""Characteristic functions for the wedge eigenvalue problem.

For each loading mode the vanishing of a transcendental "bracket" function
of the exponent p selects the admissible power-law solutions. The face
determinant (basis.bc_det) also carries polynomial factors, (p-1)^4 (p-2)^2
for plane modes and (p-1)^2 (p-2) for the anti-plane mode, whose roots
correspond to degenerate basis configurations rather than genuine
eigenvalues, so root scanning operates on the bracket alone.

char_bracket holds two brackets, each written once: the in-plane one,
where the class sign s (Mode.sign: +1 symmetric, -1 anti-symmetric) is
all that tells the two plane classes apart, and the anti-plane one. Its
function library is the parameter lib. The default, numpy, vectorizes
over p and returns a Python scalar for scalar p; the root scanner
evaluates its grid this way, for a block of cases at once by passing a
case whose half_angle_a is a column of angles. With lib=math (real p) or lib=cmath
(complex p) one point is evaluated through Python scalars, with no array
round trip; the scanner's Brent steps take this path. Complex p gives
the exact derivative by the complex step, f'(p) = Im f(p + ih) / h; real
p gives real values.
"""

from __future__ import annotations

import numpy as np

from .model import WedgeCase, check_poisson_ratio

__all__ = ["char_bracket"]


def char_bracket(p, case: WedgeCase, nu=None, lib=np):
    """The bracket of the case's mode at p; a plane mode's nu outside
    (-1, 1/2), None included, raises OutOfRange.

    With lib=np, case may be any record with a mode and a half_angle_a
    array, which broadcasts against p: an (n, 1) column of half-angles
    and a row of p give the n brackets of one mode in one call, each row
    bit for bit its case's own.

    In-plane, at a = pi it reduces to 2 s (5-4nu)(1 - cos 4 pi p) and at
    a = pi/2 to 2 s (5-4nu)(1 - cos 2 pi p), so every root at those angles
    is a no-sign-change (even multiplicity) root, and the zero sets of
    the two classes coincide there. Anti-plane, it reduces to
    3 sin(2 pi p) at a = pi and to -3 sin(pi p) at a = pi/2; simple roots
    at both limits.
    """
    a = case.half_angle_a
    if lib is np:
        p = np.asarray(p)
        if not np.iscomplexobj(p):
            p = p.astype(float)
    q = p - 1.0
    if case.mode.is_plane:
        check_poisson_ratio(nu)
        nu, s = float(nu), case.mode.sign
        part = 2.0 * q * (lib.cos(2.0 * q * a) + s * lib.cos(4.0 * a) - s)
        part -= (p - 2.0) * lib.cos(2.0 * (p + 1.0) * a)
        part -= p * lib.cos(2.0 * (p - 3.0) * a)
        out = q * part + s * 2.0 * (5.0 - 4.0 * nu) * (
            1.0 - lib.cos(4.0 * q * a))
    else:
        out = q * lib.sin(2.0 * a) + 3.0 * lib.sin(2.0 * q * a)
    # a 0-d numpy result as a Python scalar
    return out if lib is not np or out.ndim else out.item()
