"""Root scanning: limit cases, oracle agreement, and pair resolution."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from gradnotch import eigensolver
from gradnotch.charfn import char_bracket
from gradnotch.eigensolver import (AdmissibleRoot, NoRootFound, NoSignChange,
                                   RootScanOptions, admissible_eigenvalues,
                                   find_roots, smallest_exponents,
                                   sweep_exponents)
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


def test_a_sweep_refuses_a_poisson_ratio_or_mixed_modes(monkeypatch):
    # refused before the bracket is evaluated; no cases, no summaries
    monkeypatch.setattr(eigensolver, "char_bracket", None)
    cases = [_case(2.0, Mode.PLANE_SYM)] * 40
    with pytest.raises(OutOfRange):
        sweep_exponents(cases, 0.5)
    with pytest.raises(ValueError, match="one mode"):
        sweep_exponents(cases + [_case(2.0, Mode.PLANE_ANTI)], 0.3)
    assert sweep_exponents([], 0.3) == []


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
    # one angle at a time, and every angle as one batch
    cases = [_case(math.radians(angle_deg), mode)
             for angle_deg in FIRST_ROOT_ANGLES]
    firsts = [find_roots(case, nu)[0] for case in cases]
    assert [smallest_exponents(case, nu).p for case in cases] == firsts
    assert [summary.p for summary in sweep_exponents(cases, nu)] == firsts


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


def _record_grid_parts(monkeypatch):
    """The numpy bracket evaluations of the scanner: for each, its points
    and, per half-angle it evaluates, the grid points it covers."""
    calls = []

    def recorded(p, case, nu=None, lib=np):
        if lib is np:
            angles = np.ravel(case.half_angle_a).tolist()
            calls.append((np.broadcast(p, case.half_angle_a).size,
                          [(a, np.array(p)) for a in angles]))
        return char_bracket(p, case, nu, lib)

    monkeypatch.setattr(eigensolver, "char_bracket", recorded)
    return calls


@pytest.mark.parametrize("mode,nu,degrees", [
    # touch roots at both ends and at 135 degrees, where a dip reads the
    # scale and so the rest of that angle's grid
    (Mode.PLANE_ANTI, 0.3, np.linspace(90.0, 180.0, 101)),
    (Mode.PLANE_SYM, -0.5, np.linspace(130.0, 140.0, 41)),
    (Mode.ANTIPLANE_ODD, None, np.linspace(90.0, 180.0, 70)),
])
def test_a_sweep_reads_each_grid_in_ascending_block_parts(monkeypatch, mode,
                                                          nu, degrees):
    calls = _record_grid_parts(monkeypatch)
    cases = [_case(math.radians(d), mode) for d in degrees]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoSignChange)
        sweep_exponents(cases, nu)
    block = eigensolver._BLOCK_ROWS * (eigensolver._BLOCK_CELLS + 2)
    assert max(points for points, _ in calls) <= block
    parts = {case.half_angle_a: [] for case in cases}
    for _, rows in calls:
        for angle, grid in rows:
            parts[angle].append(grid)
    for case in cases:
        # ascending parts of the one grid with no overlap and no gap,
        # stopped short of its end unless the scale was read
        covered = np.concatenate(parts[case.half_angle_a])
        assert np.array_equal(covered, SCAN_GRID[:len(covered)])
        assert len(parts[case.half_angle_a][0]) == \
            eigensolver._BLOCK_CELLS + 2
        p = smallest_exponents(case, nu).p
        assert SCAN_GRID[len(covered) - 1] > p
        if len(covered) < len(SCAN_GRID):
            assert SCAN_GRID[len(covered) - 1] < p + 0.3


def _sweep_peak(degrees):
    """The peak traced memory of sweep_exponents over the angles."""
    cases = [_case(math.radians(d), Mode.PLANE_SYM) for d in degrees]
    tracemalloc.start()
    try:
        sweep_exponents(cases, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_sweeps_memory_does_not_grow_with_angles_times_grid():
    # the work arrays are bounded by a block of angles: ten times the
    # angles adds only their cases' share, where an angles x grid buffer
    # would add 24 kB per angle (43 MB here)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoSignChange)
        small = _sweep_peak(np.linspace(90.0, 180.0, 201))
        large = _sweep_peak(np.linspace(90.0, 180.0, 2001))
    assert large < 2 * small, (small, large)


SCAN_ANGLES = (90.0, 90.0001, 90.05, 90.3, 135.0, 150.0, 179.7, 179.95,
               179.9999, 180.0, 97.1634, 118.42, 141.077, 166.5391)
# windows shorter than the first part, one whose cells end on its
# boundary (p_max 2.022001: 1024 cells), one a cell past it, and longer
SCAN_P_MAX = (1.5, 2.0, 2.022001, 2.023001, 2.025, 4.0, 10.0)


def _fed(monkeypatch, scans, cuts):
    """The triggers _run feeds each of scans over its grid cut into parts
    ending at cuts, recorded without refining them."""
    fed = {id(scan): [] for scan in scans}
    with monkeypatch.context() as patch:
        patch.setattr(eigensolver._Scan, "take",
                      lambda self, *trigger: fed[id(self)].append(trigger))
        eigensolver._run(scans, cuts, first=False)
    return [fed[id(scan)] for scan in scans]


@pytest.mark.parametrize("mode", list(Mode))
def test_chunked_scan_equals_the_one_shot_scan(monkeypatch, mode):
    # the triggers fed to a scan and its scale do not depend on where the
    # grid is cut into parts, on the other angles of its block, nor on
    # whether the scale is read before the triggers
    nus = [None] if mode is Mode.ANTIPLANE_ODD else SCAN_NUS
    cases = [_case(math.radians(angle_deg), mode)
             for angle_deg in SCAN_ANGLES]
    for nu in nus:
        for p_max in SCAN_P_MAX:
            refs = [oracles.scan_triggers_one_shot(case, nu, p_max)
                    for case in cases]
            options = RootScanOptions(p_max=p_max)
            cells = eigensolver._Scan(cases[0], nu, options).points - 1
            for cuts in ([1], [500], [1024], [],
                         range(eigensolver._BLOCK_CELLS, cells,
                               eigensolver._BLOCK_CELLS)):
                cuts = sorted({*(cut for cut in cuts if cut < cells), cells})
                scans = [eigensolver._Scan(case, nu, options)
                         for case in cases]
                assert (_fed(monkeypatch, scans, cuts),
                        [scan.scale for scan in scans]) == (
                    [ref for ref, _ in refs], [scale for _, scale in refs]), \
                    (nu, p_max, cuts[:2])
            for case, (ref, scale) in zip(cases, refs):
                scan = eigensolver._Scan(case, nu, options)
                assert scan.scale == scale
                assert _fed(monkeypatch, [scan],
                            sorted({min(500, cells), cells})) == [ref]


@pytest.mark.parametrize("mode", list(Mode))
def test_root_stream_equals_the_one_shot_roots(mode):
    # draining the stream, or taking its first root, gives the roots of
    # every trigger refined at once, sorted and merged; so does every
    # angle as one batch, where NoRootFound names the first angle without
    # a root
    nus = [None] if mode is Mode.ANTIPLANE_ODD else SCAN_NUS
    cases = [_case(math.radians(angle_deg), mode)
             for angle_deg in SCAN_ANGLES]
    for nu in nus:
        for p_max in SCAN_P_MAX:
            options = RootScanOptions(p_max=p_max)
            refs = [oracles.scan_roots_one_shot(case, nu, p_max)
                    for case in cases]
            for case, ref in zip(cases, refs):
                key = (nu, case.half_angle_a, p_max)
                assert find_roots(case, nu, options) == ref, key
                if ref:
                    assert smallest_exponents(case, nu, options).p == ref[0]
                else:
                    with pytest.raises(NoRootFound):
                        smallest_exponents(case, nu, options)
            empty = next((i for i, ref in enumerate(refs) if not ref),
                         len(refs))
            assert [summary.p for summary in sweep_exponents(
                cases[:empty], nu, options)] == [
                    ref[0] for ref in refs[:empty]], (nu, p_max)
            if empty < len(cases):
                with pytest.raises(NoRootFound) as info:
                    sweep_exponents(cases, nu, options)
                assert str(info.value).endswith(
                    f"half-angle {cases[empty].half_angle_a:.6g}")


def test_merge_evaluates_the_bracket_only_for_clusters(monkeypatch):
    # a scan fed triggers that refine to given roots: a root waits for
    # the next trigger or mark that starts more than 1e-9 past it, the
    # roots of two triggers can form one cluster, and |f| is evaluated
    # only for a cluster of two or more
    refined = {1.4: [1.5], 2.4: [2.5], 2.5: [2.5 + 1e-10], 3.0: [],
               2.0: [2.0015], 2.001: [2.0012]}
    refines = []

    def refine(lo, hi, dip):
        refines.append(lo)
        return refined[lo]

    def feed(scan, lo):
        """A trigger at lo, as _run feeds it: close, then refine."""
        scan.close(lo)
        scan.take(lo, lo + 0.2, False)
        return scan.roots

    scan = eigensolver._Scan(_case(2.3, Mode.PLANE_SYM), 0.3, None)
    monkeypatch.setattr(scan, "_refine", refine)
    pair = [2.5, 2.5 + 1e-10]
    best = min(pair, key=lambda p: abs(scan.f(p)))
    seen = _record_bracket_args(monkeypatch)
    assert (feed(scan, 1.4), refines, seen) == ([], [1.4], [])
    assert (feed(scan, 2.4), refines, seen) == ([1.5], [1.4, 2.4], [])
    assert feed(scan, 2.5) == [1.5]
    scan.close(2.5 + 1e-9)      # a mark that leaves no root behind
    assert (scan.roots, seen) == ([1.5], [])
    assert feed(scan, 3.0) == [1.5, best]
    assert seen == [(float, "math")] * 2
    scan.close(math.inf)
    assert scan.roots == [1.5, best] and refines == [1.4, 2.4, 2.5, 3.0]
    # the cells of two dips one cell apart overlap: their roots are sorted
    scan = eigensolver._Scan(_case(2.3, Mode.PLANE_SYM), 0.3, None)
    monkeypatch.setattr(scan, "_refine", refine)
    feed(scan, 2.0)
    feed(scan, 2.001)
    scan.close(math.inf)
    assert scan.roots == [2.0012, 2.0015]


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


def _warned(call):
    """The warnings call emits, in order, as (category, message, file),
    and the message of the NoRootFound it raises, if any."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
            error = None
        except NoRootFound as exc:
            error = str(exc)
    return [(w.category, str(w.message), w.filename) for w in caught], error


def _one_by_one(cases, nu, options):
    for case in cases:
        smallest_exponents(case, nu, options)


@pytest.mark.parametrize("p_max", [4.0, 1.7])
@pytest.mark.parametrize("mode,nu", [
    (Mode.PLANE_SYM, 0.3), (Mode.PLANE_SYM, -0.5), (Mode.PLANE_ANTI, -0.9),
    (Mode.PLANE_SYM, 13.0 / 36.0), (Mode.PLANE_ANTI, 13.0 / 36.0),
])
def test_a_batch_warns_as_its_angles_do_one_by_one(mode, nu, p_max):
    # touch roots at 180, 135 (plane-anti) and 90 degrees, in two blocks;
    # with p_max = 1.7, 90 degrees has no root: the warnings before it
    # are emitted, and none of the angles after it in its block
    degrees = np.concatenate([[180.0, 135.0, 90.0, 180.0, 135.0],
                              np.linspace(180.0, 90.0, 37)])
    cases = [_case(math.radians(d), mode) for d in degrees]
    options = RootScanOptions(p_max=p_max)
    batched = _warned(lambda: sweep_exponents(cases, nu, options))
    assert batched == _warned(lambda: _one_by_one(cases, nu, options))
    caught, error = batched
    assert caught and {file for _, _, file in caught} == {__file__}
    assert (error is None) == (p_max == 4.0)


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
