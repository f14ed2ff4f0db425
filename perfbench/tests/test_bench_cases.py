import itertools

import cases
import pytest


def _touch_flags(case):
    # three roots, the middle one a touch root
    return (False, True, False)


def _argvs(workload, seed, n=60):
    stream = cases.stream(workload, seed, _touch_flags)
    return [req.argv for req in itertools.islice(stream, n)]


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert _argvs(workload, 5) == _argvs(workload, 5)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_different_seeds_different_requests(workload):
    assert _argvs(workload, 5) != _argvs(workload, 6)


def test_spectrum_cases_do_not_repeat():
    eig = [req for req in itertools.islice(cases.spectrum(3), 2000)
           if req.kind == "eig"]
    keys = {(r.case["mode"], r.case["angle"], r.case["nu"]) for r in eig}
    assert len(keys) == len(eig)


def test_sweeps_have_fixed_length_and_share_eig_angles():
    reqs = list(itertools.islice(cases.spectrum(4), 11 * 8))
    sweeps = [r for r in reqs if r.kind == "sweep"]
    assert len(sweeps) == 8
    eig_keys = {(r.case["mode"], r.case["angle"], r.case["nu"])
                for r in reqs if r.kind == "eig"}
    for s in sweeps:
        lo, hi = float(s.case["from"]), float(s.case["to"])
        assert abs(hi - lo - cases.SWEEP_SPAN_DEG) < 1e-9
        if s.case["shared"]:
            assert (s.case["mode"], s.case["from"], s.case["nu"]) in eig_keys


def test_field_amps_match_nullity():
    for req in itertools.islice(cases.field(2, _touch_flags), 50):
        amps = next(a for a in req.argv if a.startswith("--amps="))
        n = len(amps.split("=", 1)[1].split(","))
        index = req.case["index"]
        expected = (cases.P1_NULLITY[req.case["mode"]] if index == 0
                    else 2 if _touch_flags(req.case)[index - 1] else 1)
        assert n == expected


def test_field_grid_shapes_are_the_same_for_every_seed():
    def shapes(seed):
        stream = cases.field(seed, _touch_flags)
        return [(len(r.case["radii"]), r.case["steps"], r.slot)
                for r in itertools.islice(stream, 120)]

    assert shapes(5) == shapes(6)
    small = [s for s in shapes(5) if s[2] == "request"]
    assert {s[0] for s in small} == {1, 2, 3, 4}
    assert len({s[1] for s in small}) == 51
