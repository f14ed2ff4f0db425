"""Root scanning for the characteristic brackets.

The wedge brackets are transcendental with a mix of simple (sign-change)
roots and even-multiplicity roots where the function touches zero without
crossing — at the crack and half-space limits every in-plane root is of the
latter type, and near those limits touch roots split into pairs of simple
roots closer together than any practical grid.

The scanner samples the bracket f on a uniform grid and reads its roots
from one ascending stream per case (_Scan, fed by _run), which refines
each of the two kinds of trigger on the grid when it reaches it:

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

Roots closer than 1e-9 are one root; the stream closes each cluster once
the next trigger, or the start of the next part of the grid, lies past
it. find_roots drains the stream. sweep_exponents takes the first root of
each of many cases of one mode, and smallest_exponents is its call for
one case.

The derivative is exact to rounding: the brackets accept complex p, and
f'(p) = Im f(p + ih) / h with h = 1e-30 (the complex-step method, Squire
and Trapp 1998), which involves no difference of nearby values.

The grid is evaluated through numpy in ascending parts, one call per
part for a whole block of cases (a column of half-angles against a row
of grid points), and each part's triggers are found for the block in
one pass. find_roots evaluates the whole grid at once. A smallest-root
scan of one case reads two parts: the cells up to p = 2.025 (the
smallest root lies in [1.5, 2] at every wedge angle), then the rest if
its stream reaches them. Many cases are scanned 32 at a time, their
grids in parts of 128 cells, and a case leaves its block as soon as its
first root cluster closes, so a case whose root is near 1.5 never
evaluates the cells up to 2.025. No work array grows with cases times
grid. A dip reads the grid scale, which evaluates the rest of that one
case's grid in one call. Every point evaluation after the grid
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
from .model import Mode, WedgeCase, check_poisson_ratio

__all__ = [
    "RootScanOptions",
    "NoSignChange",
    "NoRootFound",
    "AdmissibleRoot",
    "ExponentSummary",
    "find_roots",
    "admissible_eigenvalues",
    "smallest_exponents",
    "sweep_exponents",
]

# the scan window opens just above p = 1 because every bracket vanishes at
# p = 1 for every wedge angle (the constant-strain solution is handled
# separately, not by scanning)
_P_MIN = 1.0 + 1e-6
_GRID_STEP = 1e-3
# cells of the first part of a one-case smallest-root scan (up to
# p = 2.025): the smallest root lies in [1.5, 2] at every wedge angle
_FIRST_CELLS = 1024
# a scan of several cases reads them in blocks of _BLOCK_ROWS, and their
# grids in parts of _BLOCK_CELLS cells
_BLOCK_ROWS = 32
_BLOCK_CELLS = 128
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
    find_roots, smallest_exponents, sweep_exponents or
    admissible_eigenvalues."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    return level


def _emit(caught):
    """Emit the buffered warnings of one scan, in order, credited to the
    first caller outside this module."""
    for warning in caught:
        warnings.warn(warning, stacklevel=_outside_level())


class _Rows(NamedTuple):
    """Cases of one mode as char_bracket reads a case: a column of
    half-angles, one row each, against a row of grid points."""

    half_angle_a: np.ndarray
    mode: Mode


class _Scan:
    """The bracket of one case, its exact derivative, its grid scale and
    its root stream, which _run feeds with the triggers of its grid.

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
        # the points inside the scan window, p_k <= top, are the first
        # `inside` of the grid
        inside = min(n + 1, self.points)
        while inside and _grid(inside - 1) > self.top:
            inside -= 1
        while inside < self.points and _grid(inside) <= self.top:
            inside += 1
        self.inside = inside
        # the grid points evaluated so far and max|f| over those of them
        # inside the window, as _run last set them before a dip
        self.done, self.peak = 0, 0.0
        self.found = []     # refined roots not yet in a closed cluster
        self.roots = []     # the closed clusters' roots, ascending
        self.warned = []    # NoSignChange warnings, in order, not yet emitted

    @functools.cached_property
    def scale(self):
        """max(1, max|f|) over the grid points inside the scan window: the
        peak over the points evaluated so far, and over the rest of the
        grid, evaluated in one numpy call."""
        peak = self.peak
        if self.done < self.points:
            rest = char_bracket(_grid(np.arange(self.done, self.points)),
                                self.case, self.nu)
            inside = rest[:max(self.inside - self.done, 0)]
            if inside.size:
                peak = max(peak, float(np.max(np.abs(inside))))
        return max(1.0, peak)

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
                self.warned.append(NoSignChange(x, fx, accepted))
                found = [x] if accepted else []
        return [p for p in found if _P_MIN < p <= self.top]

    def take(self, lo, hi, dip):
        """Refine the trigger [lo, hi] into the found roots."""
        self.found = sorted(self.found + self._refine(lo, hi, dip))

    def close(self, lo):
        """Close the found roots that a trigger or mark starting at lo
        leaves behind: when it starts more than _CLUSTER_MERGE past the
        last of them, no later root can join them. Each cluster of roots
        closer than _CLUSTER_MERGE goes to self.roots as its root of least
        |f| (evaluated only for a cluster of two or more)."""
        found = self.found
        if not found or not lo - found[-1] > _CLUSTER_MERGE:
            return
        cluster = []
        for p in found + [math.inf]:    # inf closes the last one
            if cluster and p - cluster[-1] > _CLUSTER_MERGE:
                self.roots.append(
                    cluster[0] if len(cluster) == 1 else
                    min(cluster, key=lambda x: abs(self.f(x))))
                cluster = []
            cluster.append(p)
        self.found = []


def _run(scans, cuts, first):
    """Feed each scan (cases of one mode under one nu and options) the
    triggers of its grid, whose cells are cut into parts ending at the
    cells in cuts (ascending, the last one the grid's last cell).

    Each part is evaluated for every open row in one numpy call and read
    in one pass. A trigger is a sign change of f across a cell (a grid
    value of exactly zero counts as a change on both sides) or a dip, a
    local minimum of |f| with no sign change over three points, kept only
    below _CANDIDATE_REL of the scale. A row takes its triggers in
    ascending order; each trigger, a mark at the start of each later part
    and a last mark at p = inf first close the row's roots behind them.
    With first, a row closes once its first cluster does.

    A row whose dip read the scale (which evaluates the rest of its grid)
    is evaluated again in any later part it reaches. In practice it
    reaches none, since that dip holds its first root: no sweep angle
    tried did (the three modes, nu from -0.9 to 0.4999, p_max from 1.52
    to 4)."""
    head = scans[0]
    points, mode, nu = head.points, head.case.mode, head.nu
    rows = list(scans)      # the open rows
    angles = np.array([[scan.case.half_angle_a] for scan in rows])
    peak = np.zeros(len(rows))      # max|f| over their window points so far
    tail = np.empty((len(rows), 0))     # f at the points [start, done)
    start = done = 0
    for stop in cuts:
        if start:
            mark = _grid(start)
            for scan in rows:
                if scan.found:
                    scan.close(mark)
            if first and any(scan.roots for scan in rows):
                keep = [j for j, scan in enumerate(rows) if not scan.roots]
                if not keep:
                    return
                rows = [rows[j] for j in keep]
                angles, peak, tail = angles[keep], peak[keep], tail[keep]
        end = min(stop + 2, points)
        new = char_bracket(_grid(np.arange(done, end)), _Rows(angles, mode),
                           nu)
        vals = np.concatenate((tail, new), axis=1)
        absv = np.abs(vals)
        window = min(end, head.inside) - start
        if window > 0:
            np.maximum(peak, np.max(absv[:, :window], axis=1), out=peak)
        sign = np.sign(vals)
        change = sign[:, 1:] != sign[:, :-1]
        mid = absv[:, 1:-1]
        dips = ((mid <= absv[:, :-2]) & (mid <= absv[:, 2:])
                & ~change[:, :-1] & ~change[:, 1:])
        hits = change[:, :stop - start].copy()
        hits[:, :dips.shape[1]] |= dips
        row, col = np.nonzero(hits)
        for j, k, crossing, level in zip(
                row.tolist(), (col + start).tolist(),
                change[row, col].tolist(), absv[row, col + 1].tolist()):
            scan, lo = rows[j], _grid(k)
            scan.close(lo)
            if first and scan.roots:
                continue
            if not crossing:
                scan.done, scan.peak = end, float(peak[j])
                if not level < _CANDIDATE_REL * scan.scale:
                    continue
            scan.take(lo, _grid(k + 1 if crossing else k + 2), not crossing)
        tail = vals[:, -2:]
        start, done = stop, end
    for scan in rows:
        scan.close(math.inf)


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
    _run([scan], [scan.points - 1], first=False)
    _emit(scan.warned)
    return scan.roots


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


def sweep_exponents(cases, nu=None, options: RootScanOptions | None = None):
    """Exponent summaries for the smallest bracket roots of cases of one
    mode, in order: smallest_exponents of each case, bit for bit. Each
    case's NoSignChange warnings are emitted in turn, and NoRootFound is
    raised for the first case without a root (after its warnings).

    One case reads its grid in two parts, the cells up to p = 2.025, then
    the rest if it needs them. More cases are scanned _BLOCK_ROWS at a
    time, their grids in parts of _BLOCK_CELLS cells, each case stopping
    at the part where its first root cluster closes.
    """
    cases = list(cases)
    if len({case.mode for case in cases}) > 1:
        raise ValueError("sweep_exponents scans cases of one mode")
    options = options or RootScanOptions()
    summaries = []
    for at in range(0, len(cases), _BLOCK_ROWS):
        scans = [_Scan(case, nu, options)
                 for case in cases[at:at + _BLOCK_ROWS]]
        cells = scans[0].points - 1
        if len(cases) == 1:
            cuts = sorted({min(_FIRST_CELLS, cells), cells})
        else:
            cuts = [*range(_BLOCK_CELLS, cells, _BLOCK_CELLS), cells]
        _run(scans, cuts, first=True)
        for scan in scans:
            _emit(scan.warned)
            if not scan.roots:
                case = scan.case
                raise NoRootFound(
                    f"no admissible bracket root for mode {case.mode.value} "
                    f"at half-angle {case.half_angle_a:.6g}")
            summaries.append(ExponentSummary(scan.roots[0]))
    return summaries


def smallest_exponents(case: WedgeCase, nu=None,
                       options: RootScanOptions | None = None) -> ExponentSummary:
    """Exponent summary for the smallest bracket root.

    It is find_roots(...)[0] bit for bit, but the scan stops once its
    first root cluster closes: sweep_exponents of the one case.
    """
    return sweep_exponents([case], nu, options)[0]
