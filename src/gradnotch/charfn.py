"""Characteristic functions for the wedge eigenvalue problem.

For each loading mode the vanishing of a transcendental "bracket" function
of the exponent p selects the admissible power-law solutions. The face
determinant (basis.bc_det) also carries polynomial factors, (p-1)^4 (p-2)^2
for plane modes and (p-1)^2 (p-2) for the anti-plane mode, whose roots
correspond to degenerate basis configurations rather than genuine
eigenvalues, so root scanning operates on the bracket alone.

Each bracket is written once, with its function library as the parameter
lib. The default, numpy, vectorizes over p and returns a Python scalar for
scalar p; the root scanner evaluates its grid this way. With lib=math
(real p) or lib=cmath (complex p) one point is evaluated through Python
scalars, with no array round trip; the scanner's Brent steps take this
path. Complex p gives the exact derivative by the complex step,
f'(p) = Im f(p + ih) / h; real p gives real values.
"""

from __future__ import annotations

import numpy as np

from .model import Mode, WedgeCase

__all__ = [
    "char_plane_sym",
    "char_plane_anti",
    "char_antiplane",
    "char_bracket",
]


def char_plane_sym(p, a, nu, lib=np):
    """Bracket whose zeros are the symmetric in-plane exponents.

    At a = pi it reduces to 2(5-4nu)(1 - cos 4 pi p) >= 0 and at a = pi/2 to
    2(5-4nu)(1 - cos 2 pi p) >= 0, so every root at those angles is a
    no-sign-change (even multiplicity) root.
    """
    p = _exponent(p, lib)
    q = p - 1.0
    part = 2.0 * q * (lib.cos(2.0 * q * a) + lib.cos(4.0 * a) - 1.0)
    part -= (p - 2.0) * lib.cos(2.0 * (p + 1.0) * a)
    part -= p * lib.cos(2.0 * (p - 3.0) * a)
    out = q * part + 2.0 * (5.0 - 4.0 * nu) * (1.0 - lib.cos(4.0 * q * a))
    return _value(out, lib)


def char_plane_anti(p, a, nu, lib=np):
    """Bracket whose zeros are the anti-symmetric in-plane exponents.

    At a = pi it reduces to -2(5-4nu)(1 - cos 4 pi p) <= 0 and at a = pi/2
    to -2(5-4nu)(1 - cos 2 pi p) <= 0; zero sets coincide with the
    symmetric bracket at those two angles.
    """
    p = _exponent(p, lib)
    q = p - 1.0
    part = 2.0 * q * (lib.cos(2.0 * q * a) - lib.cos(4.0 * a) + 1.0)
    part -= (p - 2.0) * lib.cos(2.0 * (p + 1.0) * a)
    part -= p * lib.cos(2.0 * (p - 3.0) * a)
    out = q * part - 2.0 * (5.0 - 4.0 * nu) * (1.0 - lib.cos(4.0 * q * a))
    return _value(out, lib)


def char_antiplane(p, a, lib=np):
    """Bracket whose zeros are the anti-plane (odd) exponents.

    Reduces to 3 sin(2 pi p) at a = pi and to -3 sin(pi p) at a = pi/2;
    simple roots at both limits.
    """
    p = _exponent(p, lib)
    out = (p - 1.0) * lib.sin(2.0 * a) + 3.0 * lib.sin(2.0 * (p - 1.0) * a)
    return _value(out, lib)


def char_bracket(p, case: WedgeCase, nu=None, lib=np):
    """Dispatch to the bracket function for the case's mode."""
    a = case.half_angle_a
    if case.mode is Mode.PLANE_SYM:
        return char_plane_sym(p, a, _require_nu(nu), lib)
    if case.mode is Mode.PLANE_ANTI:
        return char_plane_anti(p, a, _require_nu(nu), lib)
    return char_antiplane(p, a, lib)


def _exponent(p, lib):
    """p for lib: with numpy a float array, or a complex one for a complex
    step; with math or cmath p itself."""
    if lib is not np:
        return p
    p = np.asarray(p)
    return p if np.iscomplexobj(p) else p.astype(float)


def _value(out, lib):
    """A 0-d numpy result as a Python scalar; anything else as it is."""
    return out if lib is not np or out.ndim else out.item()


def _require_nu(nu):
    if nu is None:
        raise ValueError("plane modes require a Poisson ratio")
    return float(nu)
