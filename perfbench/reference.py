"""High-precision reference for the bracket roots that `eig` reports.

The brackets are transcribed here a second time, in mpmath, from the
closed forms in the package documentation; nothing is imported from the
package. The half-angle is taken as the exact decimal value of the
command-line text (converted to radians at working precision), so the
reference describes the notch the user asked for.

Roots are located on a float grid and then settled at working precision:

* a grid cell whose ends differ in sign holds a simple root, refined by a
  bracketed solver;
* a local minimum of |f| with no sign change is examined through the
  zero of the derivative f' bracketed inside the scan cell. A value of f
  at that zero at the precision floor is an even-multiplicity (touch)
  root; a sign flip there means a close pair of simple roots, each
  refined on its own side; anything else is a dip with no root;
* a touch root within three cells of a simple root may make no dip that
  the grid can settle, since the bracket around the dip then holds two
  zeros of f' (at 135 degrees a simple root crosses the touch root 11/3
  as nu varies). So the three cells on each side of every sign change are
  searched for sign changes of f' on a sub-grid 1000 times finer; a zero
  of f' where f is at the precision floor is a touch root.

Each root also carries its conditioning: the scale of f on the grid over
|f'| at a simple root or |f''| at a touch root. Evaluating f in double
precision cannot place a root better than a small multiple of it.

Unbracketed Newton is never used: at 180 degrees it jumps to an adjacent
extremum.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 25
# roots are settled to this relative bracket width, far below 1 ulp
SOLVE_REL = mpmath.mpf("1e-19")
P_LO = 1.0 + 1e-6
P_HI = 4.0
# roots within this distance above P_HI still count, as in the scan window
P_HI_SLACK = 1e-9
GRID_STEP = 1e-3
# |f| at a derivative zero below this fraction of the grid scale is a
# touch root; at DPS = 25 exact touches evaluate to ~1e-23 of the scale
TOUCH_REL = mpmath.mpf("1e-18")
# local minima of |f| above this fraction of the grid scale hold no root
CANDIDATE_REL = 1e-2
# sub-grid points per scan cell, and cells searched on each side of a
# sign change
FINE_STEPS = 1000
FINE_CELLS = 3


@dataclass(frozen=True)
class RefRoot:
    p: float          # nearest double to the high-precision root
    touch: bool       # even-multiplicity root
    cond: float = 0.0  # grid scale / |f'| (simple) or |f''| (touch) at p


def _float_bracket(mode: str, p, a: float, nu: float):
    if mode == "ap":
        return (p - 1.0) * np.sin(2.0 * a) + 3.0 * np.sin(2.0 * (p - 1.0) * a)
    s = 1.0 if mode == "ps-sym" else -1.0
    q = p - 1.0
    part = 2.0 * q * (np.cos(2.0 * q * a) + s * (np.cos(4.0 * a) - 1.0))
    part = part - (p - 2.0) * np.cos(2.0 * (p + 1.0) * a)
    part = part - p * np.cos(2.0 * (p - 3.0) * a)
    return q * part + s * 2.0 * (5.0 - 4.0 * nu) * (1.0 - np.cos(4.0 * q * a))


def _float_dbracket(mode: str, p, a: float, nu: float):
    """d/dp of _float_bracket."""
    if mode == "ap":
        return np.sin(2.0 * a) + 6.0 * a * np.cos(2.0 * (p - 1.0) * a)
    s = 1.0 if mode == "ps-sym" else -1.0
    q = p - 1.0
    c_q, c_plus, c_minus = (np.cos(2.0 * q * a), np.cos(2.0 * (p + 1.0) * a),
                            np.cos(2.0 * (p - 3.0) * a))
    part = 2.0 * q * (c_q + s * (np.cos(4.0 * a) - 1.0))
    part = part - (p - 2.0) * c_plus - p * c_minus
    dpart = (2.0 * (c_q + s * (np.cos(4.0 * a) - 1.0))
             - 4.0 * q * a * np.sin(2.0 * q * a)
             - c_plus + 2.0 * a * (p - 2.0) * np.sin(2.0 * (p + 1.0) * a)
             - c_minus + 2.0 * a * p * np.sin(2.0 * (p - 3.0) * a))
    return (part + q * dpart
            + s * 8.0 * (5.0 - 4.0 * nu) * a * np.sin(4.0 * q * a))


def _mp_bracket(mode: str, a, nu):
    """f(p) and f'(p) at working precision, as closures."""
    mp = mpmath.mp
    if mode == "ap":
        s2a = mp.sin(2 * a)

        def f(p):
            return (p - 1) * s2a + 3 * mp.sin(2 * (p - 1) * a)

        def df(p):
            return s2a + 6 * a * mp.cos(2 * (p - 1) * a)

        return f, df
    s = 1 if mode == "ps-sym" else -1
    c4a = mp.cos(4 * a)
    k = 2 * (5 - 4 * nu)

    def f(p):
        q = p - 1
        part = 2 * q * (mp.cos(2 * q * a) + s * (c4a - 1))
        part -= (p - 2) * mp.cos(2 * (p + 1) * a)
        part -= p * mp.cos(2 * (p - 3) * a)
        return q * part + s * k * (1 - mp.cos(4 * q * a))

    def df(p):
        q = p - 1
        part = 2 * q * (mp.cos(2 * q * a) + s * (c4a - 1))
        part -= (p - 2) * mp.cos(2 * (p + 1) * a)
        part -= p * mp.cos(2 * (p - 3) * a)
        dpart = 2 * (mp.cos(2 * q * a) + s * (c4a - 1))
        dpart -= 4 * q * a * mp.sin(2 * q * a)
        dpart -= mp.cos(2 * (p + 1) * a)
        dpart += 2 * a * (p - 2) * mp.sin(2 * (p + 1) * a)
        dpart -= mp.cos(2 * (p - 3) * a)
        dpart += 2 * a * p * mp.sin(2 * (p - 3) * a)
        return part + q * dpart + s * k * 4 * a * mp.sin(4 * q * a)

    return f, df


def _solve(g, lo, hi, glo, ghi):
    """Zero of g on [lo, hi] with g(lo), g(hi) of opposite sign.

    Illinois regula falsi to working precision; bisection steps keep the
    bracket shrinking when the secant stalls.
    """
    side = 0
    for it in range(200):
        if hi - lo <= SOLVE_REL * max(1, abs(lo)):
            break
        if it % 8 == 7:
            x = (lo + hi) / 2
        else:
            x = (lo * ghi - hi * glo) / (ghi - glo)
            if not lo < x < hi:
                x = (lo + hi) / 2
        gx = g(x)
        if gx == 0:
            return x
        if (gx > 0) == (ghi > 0):
            hi, ghi = x, gx
            if side == -1:
                glo /= 2
            side = -1
        else:
            lo, glo = x, gx
            if side == 1:
                ghi /= 2
            side = 1
    return (lo + hi) / 2


def reference_roots(mode: str, angle_text: str, nu_text: str | None):
    """Bracket roots in (P_LO, P_HI + P_HI_SLACK], ascending, as RefRoot."""
    with mpmath.workdps(DPS):
        a = mpmath.radians(mpmath.mpf(angle_text))
        nu = mpmath.mpf(nu_text) if nu_text is not None else mpmath.mpf(0)
        f, df = _mp_bracket(mode, a, nu)

        n = int(round((P_HI - P_LO) / GRID_STEP))
        grid = P_LO + GRID_STEP * np.arange(n + 3)
        vals = _float_bracket(mode, grid, float(a), float(nu))
        scale = max(1.0, float(np.max(np.abs(vals))))
        touch_floor = TOUCH_REL * scale

        roots = []
        # simple roots: float bisection of every sign-change cell at once,
        # then a bracketed solve at working precision around each estimate
        signs = np.sign(vals)
        cells = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        lo_f, hi_f = grid[cells], grid[cells + 1]
        s_lo = signs[cells]
        for _ in range(60):
            mid = 0.5 * (lo_f + hi_f)
            right = np.sign(_float_bracket(mode, mid, float(a),
                                           float(nu))) == s_lo
            lo_f = np.where(right, mid, lo_f)
            hi_f = np.where(right, hi_f, mid)
        for i, x0 in zip(cells, 0.5 * (lo_f + hi_f)):
            root = _polish(f, float(x0), grid[i], grid[i + 1])
            if root is not None:
                roots.append((root, False))
        # touch roots and close pairs: local minima of |f| without a sign
        # change across the neighbouring cells
        absv = np.abs(vals)
        mid = slice(1, -1)
        dips = ((absv[mid] <= absv[:-2]) & (absv[mid] <= absv[2:])
                & (absv[mid] <= CANDIDATE_REL * scale)
                & (signs[:-2] == signs[mid]) & (signs[mid] == signs[2:]))
        for i in np.nonzero(dips)[0] + 1:
            roots.extend(_settle_dip(f, df, grid[i - 1], grid[i + 1],
                                     touch_floor))
        # touch roots next to a sign change: zeros of f' on a fine sub-grid
        last = len(grid) - 1
        for i in cells:
            lo_i, hi_i = max(i - FINE_CELLS, 0), min(i + 1 + FINE_CELLS, last)
            fine = np.linspace(grid[lo_i], grid[hi_i],
                               (hi_i - lo_i) * FINE_STEPS + 1)
            dsign = np.sign(_float_dbracket(mode, fine, float(a), float(nu)))
            for j in np.nonzero(dsign[:-1] * dsign[1:] < 0)[0]:
                lo, hi = mpmath.mpf(fine[j]), mpmath.mpf(fine[j + 1])
                dlo, dhi = df(lo), df(hi)
                if dlo * dhi < 0:
                    x = _solve(df, lo, hi, dlo, dhi)
                    if abs(f(x)) <= touch_floor:
                        roots.append((x, True))

        out = []
        for root, touch in sorted(roots, key=lambda rt: rt[0]):
            if not P_LO < root <= P_HI + P_HI_SLACK:
                continue
            if out and abs(root - out[-1][0]) < 10 * SOLVE_REL:
                continue
            out.append((root, touch))
        return tuple(
            RefRoot(float(r), t, scale / float(abs(
                mpmath.diff(df, r) if t else df(r))))
            for r, t in out)


def _polish(f, x0, lo_f, hi_f):
    """Simple root near the float estimate x0 inside the cell [lo, hi].

    Tries a bracket of a few hundred ulps around x0 first and falls back
    to the whole cell; None when the cell shows no sign change at working
    precision.
    """
    d = 1e-12 * max(1.0, abs(x0))
    for lo, hi in ((x0 - d, x0 + d), (lo_f, hi_f)):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        flo, fhi = f(lo), f(hi)
        if flo == 0:
            return lo
        if fhi == 0:
            return hi
        if (flo > 0) != (fhi > 0):
            return _solve(f, lo, hi, flo, fhi)
    return None


def _settle_dip(f, df, lo_f, hi_f, touch_floor):
    """Roots behind a dip of |f| on [lo, hi], no sign change at the ends."""
    lo, hi = mpmath.mpf(lo_f), mpmath.mpf(hi_f)
    dlo, dhi = df(lo), df(hi)
    if dlo * dhi > 0:
        return []
    x = _solve(df, lo, hi, dlo, dhi)
    fx = f(x)
    if abs(fx) <= touch_floor:
        return [(x, True)]
    flo = f(lo)
    if (fx > 0) != (flo > 0):
        fhi = f(hi)
        return [(_solve(f, lo, x, flo, fx), False),
                (_solve(f, x, hi, fx, fhi), False)]
    return []
