"""Root scanning: limit cases, oracle agreement, and pair resolution."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from gradnotch import eigensolver
from gradnotch.charfn import char_bracket
from gradnotch.eigensolver import (AdmissibleRoot, NoRootFound, NoSignChange,
                                   RootScanOptions, admissible_eigenvalues,
                                   find_roots, smallest_exponents)
from gradnotch.model import Mode, OutOfRange, WedgeCase

CRACK_HALF_INTEGERS = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
REFINE_TOL = RootScanOptions().refine_tol


def _case(angle_rad, mode):
    return WedgeCase(half_angle_a=angle_rad, mode=mode)


@pytest.mark.parametrize("mode,nu", [
    (Mode.PLANE_SYM, 0.0), (Mode.PLANE_SYM, 0.3),
    (Mode.PLANE_ANTI, 0.25), (Mode.ANTIPLANE_ODD, None),
])
def test_crack_roots_sit_on_half_integers(mode, nu):
    roots = find_roots(_case(math.pi, mode), nu)
    assert len(roots) == len(CRACK_HALF_INTEGERS)
    for found, expected in zip(roots, CRACK_HALF_INTEGERS):
        assert found == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("mode,nu", [
    (Mode.PLANE_SYM, 0.3), (Mode.PLANE_ANTI, 0.3),
    (Mode.ANTIPLANE_ODD, None),
])
def test_half_space_smallest_root_is_two(mode, nu):
    roots = find_roots(_case(math.pi / 2, mode), nu)
    assert roots[0] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_half_space_next_plane_root_is_three(nu):
    for mode in (Mode.PLANE_SYM, Mode.PLANE_ANTI):
        roots = find_roots(_case(math.pi / 2, mode), nu)
        above = [r for r in roots if r > 2.5]
        assert above[0] == pytest.approx(3.0, abs=1e-9)


def test_antiplane_interior_angle_matches_bisection_oracle():
    a = 3.0 * math.pi / 4.0
    expected = oracles.antiplane_root(a)
    found = find_roots(_case(a, Mode.ANTIPLANE_ODD))[0]
    assert found == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(1.6223242, abs=1e-6)


def test_bracket_is_tiny_at_every_reported_root():
    for mode, nu in [(Mode.PLANE_SYM, 0.22), (Mode.PLANE_ANTI, 0.31),
                     (Mode.ANTIPLANE_ODD, None)]:
        case = _case(2.1, mode)
        roots = find_roots(case, nu)
        assert roots
        for root in roots:
            window = np.linspace(root - 0.1, root + 0.1, 41)
            scale = max(abs(char_bracket(p, case, nu)) for p in window)
            assert abs(char_bracket(root, case, nu)) < 1e-9 * scale


def test_near_crack_touch_roots_split_into_close_pairs():
    # Just inside the crack limit, each even-multiplicity limit zero
    # splits into two genuine sign-changing roots separated by much less
    # than the scan grid step; both must be recovered.
    case = _case(math.radians(179.0), Mode.PLANE_ANTI)
    roots = find_roots(case, 0.25)
    pair = [r for r in roots if 1.5 <= r <= 1.51]
    assert len(pair) == 2
    assert pair[1] - pair[0] > 1e-4
    for root in pair:
        assert abs(char_bracket(root, case, 0.25)) < 1e-8


def test_smallest_exponent_continuous_through_crack_limit():
    p_179 = smallest_exponents(_case(math.radians(179.0), Mode.PLANE_ANTI),
                               0.25).p
    p_180 = smallest_exponents(_case(math.pi, Mode.PLANE_ANTI), 0.25).p
    assert p_180 == pytest.approx(1.5, abs=1e-9)
    assert 0.0 < p_179 - p_180 < 5e-3


def test_admissible_list_leads_with_constant_strain_entry():
    entries = admissible_eigenvalues(_case(2.4, Mode.PLANE_SYM), 0.3)
    first = entries[0]
    assert isinstance(first, AdmissibleRoot)
    assert first.kind == "special_p1"
    assert first.p == 1.0
    assert all(e.kind == "bracket_root" and e.p > 1.0 for e in entries[1:])


def test_exponent_summary_reports_growth_rates():
    summary = smallest_exponents(_case(math.pi, Mode.ANTIPLANE_ODD))
    assert summary.p == pytest.approx(1.5, abs=1e-9)
    assert summary.exp_monopolar == pytest.approx(summary.p - 1.0, abs=0.0)
    assert summary.exp_total == pytest.approx(summary.p - 3.0, abs=0.0)


def test_empty_scan_window_raises():
    options = RootScanOptions(p_max=1.5)
    with pytest.raises(NoRootFound):
        smallest_exponents(_case(math.pi / 2, Mode.ANTIPLANE_ODD),
                           options=options)


@pytest.mark.parametrize("kwargs", [
    {"p_max": 1.0000005}, {"p_max": math.nan}, {"p_max": math.inf},
    {"refine_tol": math.nan}, {"refine_tol": -1e-12},
    {"refine_tol": math.inf},
])
def test_scan_options_refuse_a_scan_that_would_not_end(kwargs):
    # only built: a scan with such a refine_tol never returns, and such a
    # p_max leaves no finite scan window above 1 + 1e-6
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        RootScanOptions(**kwargs)


def test_scan_options_accept_their_bounds():
    options = RootScanOptions(p_max=1.0 + 2e-6, refine_tol=0.0)
    assert (options.p_max, options.refine_tol) == (1.0 + 2e-6, 0.0)


@pytest.mark.parametrize("scan", [find_roots, admissible_eigenvalues,
                                  smallest_exponents])
@pytest.mark.parametrize("nu", [0.5, -1.0, None])
@pytest.mark.parametrize("mode", [Mode.PLANE_SYM, Mode.PLANE_ANTI])
def test_scans_refuse_a_plane_poisson_ratio_out_of_range(monkeypatch, scan,
                                                        nu, mode):
    # refused before the bracket is evaluated; anti-plane ignores nu
    monkeypatch.setattr(eigensolver, "char_bracket", None)
    with pytest.raises(OutOfRange) as info:
        scan(_case(4.0 - 0.5 * math.pi, mode), nu)
    assert (info.value.field_name, info.value.value) == ("nu", nu)
    monkeypatch.undo()
    assert scan(_case(2.0, Mode.ANTIPLANE_ODD), nu)


def test_full_scan_is_fast():
    start = time.perf_counter()
    find_roots(_case(2.3, Mode.PLANE_SYM), 0.3)
    assert time.perf_counter() - start < 1.0


# every root in (1, 4] at the interval limits, and the touch roots at 135
# degrees; in-plane roots at these angles are even-multiplicity (touch)
# roots, anti-plane ones are simple
LIMIT_ROOTS = [
    (Mode.PLANE_SYM, 90.0, [2.0, 3.0, 4.0]),
    (Mode.PLANE_ANTI, 90.0, [2.0, 3.0, 4.0]),
    (Mode.ANTIPLANE_ODD, 90.0, [2.0, 3.0, 4.0]),
    (Mode.PLANE_SYM, 135.0, [7.0 / 3.0, 11.0 / 3.0]),
    (Mode.PLANE_ANTI, 135.0, [5.0 / 3.0, 3.0]),
    (Mode.PLANE_SYM, 180.0, CRACK_HALF_INTEGERS),
    (Mode.PLANE_ANTI, 180.0, CRACK_HALF_INTEGERS),
    (Mode.ANTIPLANE_ODD, 180.0, CRACK_HALF_INTEGERS),
]


@pytest.mark.parametrize("mode,angle_deg,guesses", LIMIT_ROOTS)
def test_limit_roots_match_mpmath_to_refine_tol(mode, angle_deg, guesses):
    nu = None if mode is Mode.ANTIPLANE_ODD else 0.3
    roots = find_roots(_case(math.radians(angle_deg), mode), nu)
    if angle_deg != 135.0:
        assert len(roots) == len(guesses)
    for guess in guesses:
        ref, f_ref = oracles.mp_root(mode.value, angle_deg, nu,
                                     guess - 1e-3, guess + 1e-3,
                                     touch=mode.is_plane)
        assert ref == pytest.approx(guess, abs=1e-12)
        assert f_ref < 1e-20      # a zero of f, not only of f'
        assert min(abs(p - ref) for p in roots) <= REFINE_TOL


@pytest.mark.parametrize("angle_deg,limits", [
    (179.0, [1.5, 2.0, 2.5, 3.0, 3.5]),
    (90.01, [2.0, 3.0, 4.0]),
])
@pytest.mark.parametrize("mode", [Mode.PLANE_SYM, Mode.PLANE_ANTI])
def test_close_pairs_near_the_limits_match_mpmath(mode, angle_deg, limits):
    # each touch root of the limit splits into two simple roots closer
    # together than the scan grid resolves without the dip trigger
    roots = find_roots(_case(math.radians(angle_deg), mode), 0.3)
    assert len(roots) == 2 * len(limits)
    for limit in limits:
        pair = [p for p in roots if abs(p - limit) < 0.03]
        assert len(pair) == 2
        assert pair[1] - pair[0] < 0.025
    for p in roots:
        ref, f_ref = oracles.mp_root(mode.value, angle_deg, 0.3,
                                     p - 1e-9, p + 1e-9)
        assert f_ref < 1e-20
        assert abs(p - ref) <= REFINE_TOL


# near both ends of (-1, 0.5), zero, and the near-triple region around
# 0.36
SCAN_NUS = (-0.9, -0.5, 0.0, 0.3, 0.36, 0.4999)
FIRST_ROOT_CASES = [
    (Mode.PLANE_SYM, 0.3), (Mode.PLANE_ANTI, 0.3),
    (Mode.ANTIPLANE_ODD, None),
] + [(mode, nu) for mode in (Mode.PLANE_SYM, Mode.PLANE_ANTI)
     for nu in SCAN_NUS if nu != 0.3]
# the angles of the built-in sweep suite, and 0.05-degree sweeps next to
# both limits, where touch roots split into close pairs
FIRST_ROOT_ANGLES = np.concatenate([np.arange(90.0, 180.5, 1.0),
                                    90.0 + 0.05 * np.arange(21),
                                    179.0 + 0.05 * np.arange(21)])


@pytest.mark.parametrize("mode,nu", FIRST_ROOT_CASES)
def test_smallest_exponent_is_the_first_root_bit_for_bit(mode, nu):
    for angle_deg in FIRST_ROOT_ANGLES:
        case = _case(math.radians(angle_deg), mode)
        assert smallest_exponents(case, nu).p == find_roots(case, nu)[0]


def test_importing_the_cli_does_not_import_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, gradnotch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _record_bracket_args(monkeypatch, grids=None):
    """The type of p and the library of each bracket evaluation of the
    scanner; the p of each numpy evaluation is appended to grids."""
    seen = []

    def recorded(p, case, nu=None, lib=np):
        seen.append((type(p), lib.__name__))
        if grids is not None and lib is np:
            grids.append(np.array(p))
        return char_bracket(p, case, nu, lib)

    monkeypatch.setattr(eigensolver, "char_bracket", recorded)
    return seen


# the scan grid up to the default p_max = 4, two cells past it included
SCAN_GRID = eigensolver._P_MIN + eigensolver._GRID_STEP * np.arange(3003)


@pytest.mark.parametrize("scan,mode,angle_deg,parts", [
    # one numpy call over the whole grid
    (find_roots, Mode.PLANE_ANTI, 135.0, [3003]),
    # the smallest plane-anti root, 5/3, is a touch root: its dip reads
    # the scale, which evaluates the rest of the grid
    (smallest_exponents, Mode.PLANE_ANTI, 135.0, [1026, 1977]),
    # smallest roots at sign changes: the first part only, whether or
    # not a later trigger lies in it
    (smallest_exponents, Mode.PLANE_SYM, 131.8, [1026]),
    (smallest_exponents, Mode.ANTIPLANE_ODD, 120.0, [1026]),
])
def test_only_the_scan_grid_goes_through_numpy(monkeypatch, scan, mode,
                                                angle_deg, parts):
    grids = []
    seen = _record_bracket_args(monkeypatch, grids)
    nu = None if mode is Mode.ANTIPLANE_ODD else 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoSignChange)
        scan(_case(math.radians(angle_deg), mode), nu)
    assert [len(grid) for grid in grids] == parts
    # ascending parts of the one grid with no overlap and no gap
    covered = np.concatenate(grids)
    assert np.array_equal(covered, SCAN_GRID[:len(covered)])
    assert seen.count((np.ndarray, "numpy")) == len(parts)
    others = set(seen) - {(np.ndarray, "numpy")}
    # a touch root refines on f' (complex p, cmath) as well as on f
    assert others == ({(float, "math"), (complex, "cmath")}
                      if angle_deg == 135.0 else {(float, "math")})


SCAN_ANGLES = (90.0, 90.0001, 90.05, 90.3, 135.0, 150.0, 179.7, 179.95,
               179.9999, 180.0, 97.1634, 118.42, 141.077, 166.5391)
# windows shorter than the first part, one whose cells end on its
# boundary (p_max 2.022001: 1024 cells), one a cell past it, and longer
SCAN_P_MAX = (1.5, 2.0, 2.022001, 2.023001, 2.025, 4.0, 10.0)


def _triggers_and_marks(scan):
    """The triggers of scan, and the p of its marks (p, None, None)."""
    items = list(scan.triggers())
    return ([t for t in items if t[1] is not None],
            [t[0] for t in items if t[1] is None])


@pytest.mark.parametrize("mode", list(Mode))
def test_chunked_scan_equals_the_one_shot_scan(monkeypatch, mode):
    # the triggers and the scale do not depend on where the grid is cut
    # into parts, nor on whether the scale is read before the triggers; a
    # mark comes before each part and at the end, and a grid evaluated
    # before the triggers are read is one part
    nus = [None] if mode is Mode.ANTIPLANE_ODD else SCAN_NUS
    for nu in nus:
        for angle_deg in SCAN_ANGLES:
            case = _case(math.radians(angle_deg), mode)
            for p_max in SCAN_P_MAX:
                ref, scale = oracles.scan_triggers_one_shot(case, nu, p_max)
                options = RootScanOptions(p_max=p_max)
                for first in (1, 500, 1024):
                    monkeypatch.setattr(eigensolver, "_FIRST_CELLS", first)
                    scan = eigensolver._Scan(case, nu, options)
                    cuts = [first] if first < scan.points - 1 else []
                    marks = [eigensolver._grid(k) for k in [0] + cuts]
                    assert (_triggers_and_marks(scan), scan.scale) == (
                        (ref, marks + [math.inf]), scale), \
                        (nu, angle_deg, p_max, first)
                scan = eigensolver._Scan(case, nu, options)
                assert (scan.scale, _triggers_and_marks(scan)) == (
                    scale, (ref, [eigensolver._grid(0), math.inf]))


@pytest.mark.parametrize("mode", list(Mode))
def test_root_stream_equals_the_one_shot_roots(mode):
    # draining the stream, or taking its first root, gives the roots of
    # every trigger refined at once, sorted and merged
    nus = [None] if mode is Mode.ANTIPLANE_ODD else SCAN_NUS
    for nu in nus:
        for angle_deg in SCAN_ANGLES:
            case = _case(math.radians(angle_deg), mode)
            for p_max in SCAN_P_MAX:
                ref = oracles.scan_roots_one_shot(case, nu, p_max)
                options = RootScanOptions(p_max=p_max)
                key = (nu, angle_deg, p_max)
                assert find_roots(case, nu, options) == ref, key
                if ref:
                    assert smallest_exponents(case, nu, options).p == ref[0]
                else:
                    with pytest.raises(NoRootFound):
                        smallest_exponents(case, nu, options)


def test_merge_evaluates_the_bracket_only_for_clusters(monkeypatch):
    # a stream over triggers that refine to given roots: a root waits for
    # the next trigger that starts more than 1e-9 past it, the roots of
    # two triggers can form one cluster, and |f| is evaluated only for a
    # cluster of two or more
    scan = eigensolver._Scan(_case(2.3, Mode.PLANE_SYM), 0.3, None)
    refined = {1.4: [1.5], 2.4: [2.5], 2.5: [2.5 + 1e-10], 3.0: []}
    refines = []

    def triggers():
        yield 1.0, None, None
        for lo in refined:
            yield lo, lo + 0.2, False
        yield math.inf, None, None

    def refine(lo, hi, dip):
        refines.append(lo)
        return refined[lo]

    monkeypatch.setattr(scan, "triggers", triggers)
    monkeypatch.setattr(scan, "_refine", refine)
    pair = [2.5, 2.5 + 1e-10]
    best = min(pair, key=lambda p: abs(scan.f(p)))
    seen = _record_bracket_args(monkeypatch)
    stream = scan.roots()
    assert (next(stream), refines, seen) == (1.5, [1.4], [])
    assert (next(stream), refines) == (best, [1.4, 2.4, 2.5])
    assert seen == [(float, "math")] * 2
    assert list(stream) == [] and refines == [1.4, 2.4, 2.5, 3.0]
    # the cells of two dips one cell apart overlap: their roots are sorted
    refined = {2.0: [2.0015], 2.001: [2.0012]}
    assert list(scan.roots()) == [2.0012, 2.0015]


@pytest.mark.parametrize("scan", [find_roots, smallest_exponents,
                                  admissible_eigenvalues])
def test_warnings_are_credited_to_the_caller(scan):
    # every plane crack root is a touch root, each with its NoSignChange
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan(_case(math.pi, Mode.PLANE_SYM), 0.3)
    assert caught
    assert all(issubclass(w.category, NoSignChange) for w in caught)
    assert {w.filename for w in caught} == {__file__}


def _roots_and_touches(case, nu):
    """find_roots and the set of its accepted even-multiplicity roots."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NoSignChange)
        roots = find_roots(case, nu)
    return roots, {w.message.p_approx for w in caught
                   if issubclass(w.category, NoSignChange)
                   and w.message.accepted}


# both limits, just inside them, and the 135-degree touch roots (7/3 and
# 11/3 plane-sym, 5/3 and 3 plane-anti)
PATH_ANGLES = (90.0, 90.0001, 135.0, 150.0, 179.9999, 180.0)
PATH_CASES = [(mode, angle, nu)
              for mode in (Mode.PLANE_SYM, Mode.PLANE_ANTI)
              for angle in PATH_ANGLES
              for nu in (-0.5, 0.3, 0.36, 0.4999)] + [
    (Mode.ANTIPLANE_ODD, angle, None) for angle in PATH_ANGLES]


def test_scalar_path_roots_equal_the_numpy_path(monkeypatch):
    # the same scan with f and f' evaluated through numpy: every simple
    # root is bit for bit the same, and a touch root (a zero of f', whose
    # complex step may round differently) within refine_tol
    scalar = {key: _roots_and_touches(_case(math.radians(key[1]), key[0]),
                                      key[2])
              for key in PATH_CASES}
    step = eigensolver._STEP
    monkeypatch.setattr(eigensolver._Scan, "f",
                        lambda self, p: char_bracket(p, self.case, self.nu))
    monkeypatch.setattr(
        eigensolver._Scan, "df",
        lambda self, p: char_bracket(complex(p, step), self.case,
                                     self.nu).imag / step)
    worst = 0.0
    for key, (roots, touches) in scalar.items():
        ref, ref_touches = _roots_and_touches(
            _case(math.radians(key[1]), key[0]), key[2])
        assert len(roots) == len(ref), key
        for p, q in zip(roots, ref):
            if p in touches or q in ref_touches:
                worst = max(worst, abs(p - q))
                assert abs(p - q) <= REFINE_TOL, key
            else:
                assert p == q, key
    print(f"largest touch-root difference, scalar vs numpy path: {worst:.3e}")
