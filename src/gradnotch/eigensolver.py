"""Root scanning for the characteristic brackets.

The wedge brackets are transcendental with a mix of simple (sign-change)
roots and even-multiplicity roots where the function touches zero without
crossing — at the crack and half-space limits every in-plane root is of the
latter type, and near those limits touch roots split into pairs of simple
roots closer together than any practical grid.

The scanner samples the bracket f on a uniform grid and reads its roots
from one ascending stream (_Scan.roots), which refines each of the two
kinds of trigger on the grid when it reaches it:

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

Roots closer than 1e-9 are one root; the stream yields each cluster once
the next trigger starts past it. find_roots drains the stream, and
smallest_exponents takes its first root.

The derivative is exact to rounding: the brackets accept complex p, and
f'(p) = Im f(p + ih) / h with h = 1e-30 (the complex-step method, Squire
and Trapp 1998), which involves no difference of nearby values.

The grid is evaluated through numpy in two ascending parts, one call
each: the cells up to p = 2.025 (the smallest root lies in [1.5, 2] at
every wedge angle), then the rest when the stream reaches them or a dip
reads the grid scale, which evaluates the whole grid. find_roots
evaluates the whole grid at once. Every point evaluation after the grid
(Brent's steps on f and f', the dip test, the merge) goes through the
same bracket formula with lib=math, or lib=cmath for the complex step,
which avoids a 0-d array round trip per point.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charfn import char_bracket
from .model import WedgeCase, check_poisson_ratio

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
# cells of the first part of a smallest-root scan (up to p = 2.025): the
# smallest root lies in [1.5, 2] at every wedge angle
_FIRST_CELLS = 1024
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
    tolerance (refine_tol) for find_roots. A scan ends only for a finite
    p_max above 1 + 1e-6 and a finite refine_tol >= 0 (0 refines to full
    precision); other values raise ValueError."""

    p_max: float = 4.0
    refine_tol: float = 1e-12

    def __post_init__(self):
        if not _P_MIN < self.p_max < math.inf:
            raise ValueError(f"p_max must be finite and exceed {_P_MIN!r}, "
                             f"got {self.p_max!r}")
        if not 0.0 <= self.refine_tol < math.inf:
            raise ValueError(f"refine_tol must be finite and non-negative, "
                             f"got {self.refine_tol!r}")


class AdmissibleRoot(NamedTuple):
    """One entry of the admissible-exponent list."""

    p: float
    kind: str          # "special_p1" | "bracket_root"


class ExponentSummary(NamedTuple):
    """Leading exponent p, with the field growth rates read from it.

    Displacements grow like r**p, strains and monopolar stresses like
    r**(p-1), total stresses like r**(p-3).
    """

    p: float

    @property
    def exp_monopolar(self) -> float:
        return self.p - 1.0

    @property
    def exp_total(self) -> float:
        return self.p - 3.0


def _grid(k):
    """Scan grid point(s) of index k."""
    return _P_MIN + _GRID_STEP * k


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


def _outside_level() -> int:
    """The stacklevel at which a warning issued by the caller of this
    function names the first frame outside this module: the caller of
    find_roots, smallest_exponents or admissible_eigenvalues."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    return level


class _Scan:
    """The bracket of one case, its exact derivative and its root stream.

    The grid p_k = _P_MIN + _GRID_STEP * k is only sized here. Its values,
    and so the triggers and the scale, are the same however it is cut into
    parts. A plane mode's nu outside (-1, 1/2) raises OutOfRange first."""

    def __init__(self, case: WedgeCase, nu, options: RootScanOptions | None):
        if case.mode.is_plane:
            check_poisson_ratio(nu)
        opts = options or RootScanOptions()
        self.case, self.nu = case, nu
        self.tol = opts.refine_tol
        self.top = opts.p_max + _CLUSTER_MERGE
        n = max(int(round((opts.p_max - _P_MIN) / _GRID_STEP)), 2)
        # two extra cells past p_max so endpoint roots are still bracketed
        self.points = n + 3
        self.vals = np.empty(self.points)
        self.done = 0

    def _values(self, stop):
        """f on grid points [0, stop), evaluating the missing ones
        [done, stop) in one numpy call."""
        if stop > self.done:
            self.vals[self.done:stop] = char_bracket(
                _grid(np.arange(self.done, stop)), self.case, self.nu)
            self.done = stop
        return self.vals[:stop]

    @functools.cached_property
    def scale(self):
        """max(1, max|f|) over the grid points inside the scan window."""
        vals = self._values(self.points)
        inside = _grid(np.arange(self.points)) <= self.top
        return max(1.0, float(np.max(np.abs(vals[inside]))))

    def triggers(self):
        """(lo, hi, is_dip) of each trigger, ascending: a sign change of f
        across [lo, hi] or a dip of |f| at its midpoint.

        The cells are read in two parts, [0, _FIRST_CELLS) and the rest,
        each evaluated when reached, or in one if the grid is evaluated.
        A mark (p, None, None), which holds no root, comes before each
        part with p its first cell's lower end, and last with p = inf.
        """
        cells = self.points - 1
        first = cells if self.done == self.points else min(_FIRST_CELLS, cells)
        start = 0
        for stop in sorted({first, cells}):
            yield _grid(start), None, None
            vals = self._values(min(stop + 2, self.points))
            sign, absv = np.sign(vals), np.abs(vals)
            k = np.arange(start, stop)
            crossings = k[sign[k] != sign[k + 1]]
            k = k[k < cells - 1]
            dips = k[(absv[k + 1] <= absv[k]) & (absv[k + 1] <= absv[k + 2])
                     & (sign[k] == sign[k + 1]) & (sign[k + 1] == sign[k + 2])]
            for lo, dip in sorted([(i, False) for i in crossings.tolist()]
                                  + [(i, True) for i in dips.tolist()]):
                if dip and not absv[lo + 1] < _CANDIDATE_REL * self.scale:
                    continue
                yield _grid(lo), _grid(lo + 2 if dip else lo + 1), dip
            start = stop
        yield math.inf, None, None

    def f(self, p):
        return char_bracket(p, self.case, self.nu, math)

    def df(self, p):
        return (char_bracket(complex(p, _STEP), self.case, self.nu, cmath)
                .imag / _STEP)

    def _refine(self, lo, hi, dip):
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
                warnings.warn(NoSignChange(x, fx, accepted),
                              stacklevel=_outside_level())
                found = [x] if accepted else []
        return [p for p in found if _P_MIN < p <= self.top]

    def roots(self):
        """The roots inside the scan window, ascending, each cluster of
        roots closer than _CLUSTER_MERGE merged into its root of least |f|
        (evaluated only for a cluster of two or more).

        Each trigger is refined when reached. Its roots wait until a
        trigger or mark starts more than _CLUSTER_MERGE past the last of
        them, when no later root can join them, and are yielded then."""
        found = []          # refined roots not yet yielded, ascending
        for lo, hi, dip in self.triggers():
            if found and lo - found[-1] > _CLUSTER_MERGE:
                cluster = []
                for p in found + [math.inf]:    # inf closes the last one
                    if cluster and p - cluster[-1] > _CLUSTER_MERGE:
                        yield (cluster[0] if len(cluster) == 1 else
                               min(cluster, key=lambda x: abs(self.f(x))))
                        cluster = []
                    cluster.append(p)
                found = []
            if hi is not None:
                found = sorted(found + self._refine(lo, hi, dip))


def find_roots(case: WedgeCase, nu=None, options: RootScanOptions | None = None):
    """All bracket roots in the scan window (1 + 1e-6, p_max], ascending.

    Simple roots are refined to a bracket width below refine_tol, even
    ones to full precision, and roots within 1e-9 are merged. NoSignChange
    warnings are emitted for even-multiplicity roots and for rejected
    dips.
    """
    scan = _Scan(case, nu, options)
    # the whole grid in one numpy call, since find_roots reads every cell:
    # over 27 cases on a 2-CPU Xeon this took 396 µs per scan against
    # 484 µs through the two-part stream (faster in 26 of 30 rounds)
    scan._values(scan.points)
    return list(scan.roots())


def admissible_eigenvalues(case: WedgeCase, nu=None,
                           options: RootScanOptions | None = None):
    """Admissible exponents: the p = 1 special solution, then bracket roots.

    The constant-strain p = 1 solution exists for every wedge angle (its
    gradient stresses vanish identically, so it satisfies the complete
    field equations, and it carries bounded energy). Every bracket root
    lies above p = 1, so its energy is bounded too.
    """
    return [AdmissibleRoot(1.0, "special_p1")] + [
        AdmissibleRoot(p, "bracket_root") for p in find_roots(case, nu, options)]


def smallest_exponents(case: WedgeCase, nu=None,
                       options: RootScanOptions | None = None) -> ExponentSummary:
    """Exponent summary for the smallest bracket root.

    It is find_roots(...)[0] bit for bit, but the root stream stops after
    its first cluster.
    """
    for p in _Scan(case, nu, options).roots():
        return ExponentSummary(p)
    raise NoRootFound(
        f"no admissible bracket root for mode {case.mode.value} at "
        f"half-angle {case.half_angle_a:.6g}")
