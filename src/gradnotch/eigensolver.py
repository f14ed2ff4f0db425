"""Root scanning for the characteristic brackets.

The wedge brackets are transcendental with a mix of simple (sign-change)
roots and even-multiplicity roots where the function touches zero without
crossing — at the crack and half-space limits every in-plane root is of the
latter type, and near those limits touch roots split into pairs of simple
roots closer together than any practical grid.

The scanner samples the bracket f on a uniform grid and has two triggers:

* a sign change of f across a grid cell (a grid value of exactly zero
  counts as a change on both sides) holds a simple root, refined by
  Brent's method on f;
* a dip, a local minimum of |f| with no sign change over three grid
  points, holds an extremum x* of f, found to full precision by Brent's
  method on the exact derivative f' over the dip's two cells (f is flat
  at an even root, so x* cannot be polished on f). If f(x*) has the
  other sign, the dip hides a close pair of simple roots, and each is
  refined by Brent's method on f on its side of x*. If |f(x*)| is below
  1e-10 of the grid scale max(1, max|f|), x* is an even-multiplicity
  root. Otherwise the dip holds no root. Accepted and rejected touches
  both emit a NoSignChange warning.

The derivative is exact to rounding: the brackets accept complex p, and
f'(p) = Im f(p + ih) / h with h = 1e-30 (the complex-step method, Squire
and Trapp 1998), which involves no difference of nearby values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .charfn import char_bracket
from .model import WedgeCase

__all__ = [
    "RootScanOptions",
    "NoSignChange",
    "NoRootFound",
    "AdmissibleRoot",
    "ExponentSummary",
    "find_roots",
    "admissible_eigenvalues",
    "smallest_exponents",
]

# the scan window opens just above p = 1 because every bracket vanishes at
# p = 1 for every wedge angle (the constant-strain solution is handled
# separately, not by scanning)
_P_MIN = 1.0 + 1e-6
_GRID_STEP = 1e-3
# refined roots closer than this are one root
_CLUSTER_MERGE = 1e-9
# dip candidate filter and touch acceptance threshold, relative to the
# grid scale max(1, max|f|)
_CANDIDATE_REL = 1e-3
_ACCEPT_REL = 1e-10
# complex step of the derivative
_STEP = 1e-30
_EPS = np.finfo(float).eps


class NoSignChange(UserWarning):
    """A bracket touched zero (or dipped) without changing sign."""

    def __init__(self, p_approx, f_value, accepted):
        self.p_approx = p_approx
        self.f_value = f_value
        self.accepted = accepted
        what = ("even-multiplicity root accepted"
                if accepted else "positive local minimum rejected")
        super().__init__(f"{what} near p = {p_approx:.12g} (|f| = {abs(f_value):.3e})")


class NoRootFound(Exception):
    """No admissible bracket root exists in the scanned interval."""


@dataclass(frozen=True)
class RootScanOptions:
    """Upper end of the scan window (p_max) and the root refinement
    tolerance (refine_tol) for find_roots."""

    p_max: float = 4.0
    refine_tol: float = 1e-12


@dataclass(frozen=True)
class AdmissibleRoot:
    """One entry of the admissible-exponent list."""

    p: float
    kind: str          # "special_p1" | "bracket_root"
    admissible: bool


@dataclass(frozen=True)
class ExponentSummary:
    """Leading exponent p with the derived field growth rates.

    Displacements grow like r**p, strains and monopolar stresses like
    r**(p-1), dipolar stresses like r**(p-2), total stresses like r**(p-3).
    """

    p: float
    exp_monopolar: float
    exp_dipolar: float
    exp_total: float

    @classmethod
    def from_p(cls, p: float) -> "ExponentSummary":
        return cls(p=p, exp_monopolar=p - 1.0, exp_dipolar=p - 2.0,
                   exp_total=p - 3.0)


def _brent(f, a, b, fa, fb, tol):
    """Zero of f in [a, b], where fa = f(a) and fb = f(b) differ in sign
    or one is zero (Brent 1973, ch. 4): bracketed inverse quadratic and
    secant steps, falling back to bisection, until the bracket is narrower
    than tol + 4 eps |x|."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


class _Scan:
    """The bracket of one case, its exact derivative, and the triggers of
    its grid scan."""

    def __init__(self, case: WedgeCase, nu, options: RootScanOptions | None):
        opts = options or RootScanOptions()
        if not opts.p_max > _P_MIN:
            raise ValueError(f"p_max must exceed {_P_MIN!r}")
        self.case, self.nu = case, nu
        self.tol = opts.refine_tol
        self.top = opts.p_max + _CLUSTER_MERGE
        n = max(int(round((opts.p_max - _P_MIN) / _GRID_STEP)), 2)
        # two extra cells past p_max so endpoint roots are still bracketed
        grid = _P_MIN + _GRID_STEP * np.arange(n + 3)
        vals = np.asarray(char_bracket(grid, case, nu), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("the bracket is not finite on the scan grid")
        self.scale = max(1.0, float(np.max(np.abs(vals[grid <= self.top]))))

        sign = np.sign(vals)
        absv = np.abs(vals)
        mid = np.arange(1, len(grid) - 1)
        dips = mid[(absv[mid] <= absv[mid - 1]) & (absv[mid] <= absv[mid + 1])
                   & (sign[mid - 1] == sign[mid]) & (sign[mid] == sign[mid + 1])
                   & (absv[mid] < _CANDIDATE_REL * self.scale)]
        crossings = np.nonzero(sign[:-1] != sign[1:])[0]
        cells = sorted([(i, i + 1, False) for i in crossings]
                       + [(i - 1, i + 1, True) for i in dips])
        # (lo, hi, is_dip), ascending: a sign change of f across [lo, hi]
        # or a dip of |f| at its midpoint
        self.triggers = [(float(grid[lo]), float(grid[hi]), dip)
                         for lo, hi, dip in cells]

    def f(self, p):
        return char_bracket(p, self.case, self.nu)

    def df(self, p):
        return char_bracket(complex(p, _STEP), self.case, self.nu).imag / _STEP

    def roots(self, lo, hi, dip):
        """Refined roots of one trigger inside the scan window, ascending."""
        f, tol = self.f, self.tol
        flo, fhi = f(lo), f(hi)
        if not dip:
            found = [_brent(f, lo, hi, flo, fhi, tol)]
        else:
            dlo, dhi = self.df(lo), self.df(hi)
            if dlo * dhi > 0.0:
                x = 0.5 * (lo + hi)     # no extremum of f bracketed
            else:
                x = _brent(self.df, lo, hi, dlo, dhi, 0.0)
            fx = f(x)
            if fx * flo < 0.0:
                found = [_brent(f, lo, x, flo, fx, tol),
                         _brent(f, x, hi, fx, fhi, tol)]
            else:
                accepted = abs(fx) < _ACCEPT_REL * self.scale
                warnings.warn(NoSignChange(x, fx, accepted), stacklevel=3)
                found = [x] if accepted else []
        return [p for p in found if _P_MIN < p <= self.top]

    def merged(self, roots):
        """Ascending roots with those closer than _CLUSTER_MERGE merged,
        keeping the best |f|."""
        groups = []
        for p in roots:
            if groups and p - groups[-1][-1] <= _CLUSTER_MERGE:
                groups[-1].append(p)
            else:
                groups.append([p])
        return [min(g, key=lambda x: abs(self.f(x))) for g in groups]


def find_roots(case: WedgeCase, nu=None, options: RootScanOptions | None = None):
    """All bracket roots in the scan window (1 + 1e-6, p_max], ascending.

    Simple roots are refined to a bracket width below refine_tol, even
    ones to full precision, and roots within 1e-9 are merged. NoSignChange
    warnings are emitted for even-multiplicity roots and for rejected
    dips.
    """
    scan = _Scan(case, nu, options)
    return scan.merged(sorted(p for trigger in scan.triggers
                              for p in scan.roots(*trigger)))


def admissible_eigenvalues(case: WedgeCase, nu=None,
                           options: RootScanOptions | None = None):
    """Admissible exponents: the p = 1 special solution, then bracket roots.

    The constant-strain p = 1 solution exists for every wedge angle (its
    gradient stresses vanish identically, so it satisfies the complete
    field equations, and it carries bounded energy). Every bracket root
    lies above p = 1, so its energy is bounded too.
    """
    return [AdmissibleRoot(p=1.0, kind="special_p1", admissible=True)] + [
        AdmissibleRoot(p=p, kind="bracket_root", admissible=True)
        for p in find_roots(case, nu, options)]


def smallest_exponents(case: WedgeCase, nu=None,
                       options: RootScanOptions | None = None) -> ExponentSummary:
    """Exponent summary for the smallest bracket root.

    The scan refines triggers in ascending order and stops once no later
    trigger can hold a root that would merge with the smallest one, so the
    result equals find_roots(...)[0].
    """
    scan = _Scan(case, nu, options)
    found = []
    for trigger in scan.triggers:
        if found and trigger[0] > found[-1] + _CLUSTER_MERGE:
            break
        found = sorted(found + scan.roots(*trigger))
    if not found:
        raise NoRootFound(
            f"no admissible bracket root for mode {case.mode.value} at "
            f"half-angle {case.half_angle_a:.6g}")
    return ExponentSummary.from_p(scan.merged(found)[0])
