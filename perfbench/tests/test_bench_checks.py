import contextlib
import io
import json
import math
import warnings

import checks
import pytest
import reference
from gradnotch import cli
from gradnotch.basis import eigenfield
from gradnotch.eigensolver import admissible_eigenvalues
from gradnotch.fields import field_series_map
from gradnotch.model import MaterialParams, Mode, WedgeCase


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(argv)
    return rc, out.getvalue()


def _shift_root(out, index, delta):
    doc = json.loads(out)
    doc["roots"][index]["p"] += delta
    return json.dumps(doc)


def test_reference_finds_exact_touch_roots():
    roots = reference.reference_roots("ps-sym", "135", "0.3")
    touch = [r.p for r in roots if r.touch]
    assert touch == pytest.approx([7 / 3, 11 / 3], abs=1e-15)
    at_90 = reference.reference_roots("ps-anti", "90", "0.2")
    assert [r.p for r in at_90] == [2.0, 3.0, 4.0]
    assert all(r.touch for r in at_90)
    # a simple root 1.65e-3 above the touch root 11/3 hides it on the grid
    crossing = reference.reference_roots("ps-sym", "135", "0.36")
    near = [(r.p, r.touch) for r in crossing if abs(r.p - 11 / 3) < 0.01]
    assert near == [(pytest.approx(11 / 3, abs=1e-15), True),
                    (pytest.approx(3.66831274, abs=1e-8), False)]


def test_eig_check_accepts_output_and_rejects_shifted_root():
    ref = reference.reference_roots("ap", "150", None)
    rc, out = _run(["eig", "--mode", "ap", "--angle-deg", "150"])
    assert checks.check_eig(out, rc, ref) == []
    problems = checks.check_eig(_shift_root(out, 1, 1e-9), rc, ref)
    assert problems and not problems[0].known
    dropped = json.loads(out)
    del dropped["roots"][2]
    assert checks.check_eig(json.dumps(dropped), rc, ref)
    assert checks.check_eig(out, 1, ref)


def test_eig_check_marks_the_touch_root_defect_as_known():
    ref = reference.reference_roots("ps-sym", "90", "0.3")
    rc, out = _run(["eig", "--mode", "ps-sym", "--angle-deg", "90",
                    "--nu", "0.3"])
    exact = json.loads(out)
    for entry, r in zip(exact["roots"][1:], ref):
        entry["p"] = r.p
    assert checks.check_eig(json.dumps(exact), rc, ref) == []
    off = _shift_root(json.dumps(exact), 1, 3e-12)
    problems = checks.check_eig(off, rc, ref)
    assert len(problems) == 1 and problems[0].known
    far = _shift_root(json.dumps(exact), 1, 2e-11)
    assert not checks.check_eig(far, rc, ref)[0].known
    # a touch root dropped from the output is never the known defect
    for i in range(1, len(exact["roots"])):
        dropped = json.loads(json.dumps(exact))
        del dropped["roots"][i]
        problems = checks.check_eig(json.dumps(dropped), rc, ref)
        assert problems and not any(p.known for p in problems), i


def _eig_doc(ps):
    return json.dumps({"roots": [{"kind": "special_p1", "p": 1}] + [
        {"kind": "bracket_root", "p": p} for p in ps]})


def test_eig_check_close_pair_misses_are_known_only_as_such():
    Root = reference.RefRoot
    ref = (Root(1.5, False), Root(2.0, False), Root(2.00001, False))
    for got in ([1.5, 2.000005], [1.5, 2.0], [1.5, 2.0 + 5e-12, 2.00001]):
        problems = checks.check_eig(_eig_doc(got), 0, ref)
        assert problems and all(p.known for p in problems), got
    for got in ([1.5, 2.1], [2.0, 2.00001], [1.5 + 5e-12, 2.0, 2.00001],
                [1.5, 2.0, 2.000005, 2.00001], [1.5, 2.0 + 2e-10, 2.00001]):
        problems = checks.check_eig(_eig_doc(got), 0, ref)
        assert problems and not any(p.known for p in problems), got
    # a touch root with a simple root within two scan cells may be lost or
    # placed anywhere nearer to it than to the simple root
    crossing = (Root(1.5, False), Root(2.0, True, 40.0), Root(2.0012, False))
    for got in ([1.5, 2.0012], [1.5, 2.0 + 5e-8, 2.0012]):
        problems = checks.check_eig(_eig_doc(got), 0, crossing)
        assert problems and all(p.known for p in problems), got
    problems = checks.check_eig(_eig_doc([1.5 + 2e-12, 2.0, 2.0012]), 0,
                                crossing)
    assert problems and not any(p.known for p in problems)
    # a touch root with no other root within two scan cells must be found
    touching = (Root(1.5, False), Root(2.0, True, 0.05), Root(2.01, False))
    for got in ([1.5, 2.01], [1.5, 2.005, 2.01], [1.5, 2.0 + 2e-11, 2.01]):
        problems = checks.check_eig(_eig_doc(got), 0, touching)
        assert problems and not any(p.known for p in problems), got
    problems = checks.check_eig(_eig_doc([1.5, 2.0 + 1e-11, 2.01]), 0,
                                touching)
    assert problems and all(p.known for p in problems)


def test_sweep_check_accepts_output_and_rejects_perturbations():
    case = {"mode": "ps-sym", "from": "170", "to": "180", "nu": "0.3",
            "shared": True}
    argv = ["sweep", "--mode", "ps-sym", "--nu", "0.3", "--from", "170",
            "--to", "180", "--step", "0.1"]
    rc, out = _run(argv)
    p0 = float(out.splitlines()[1].split(",")[3])
    assert checks.check_sweep(out, rc, case, 101, p0) == []
    assert checks.check_sweep(out, rc, case, 101, p0 + 1e-9)
    lines = out.splitlines()
    row = lines[-1].split(",")
    row[3] = repr(float(row[3]) + 1e-6)
    bad_end = "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    assert checks.check_sweep(bad_end, rc, case, 101, p0)
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert checks.check_sweep("\n".join(swapped) + "\n", rc, case, 101, p0)


def _field_case(with_p1=False):
    angle, nu, index = "135", "0.3", 1
    argv = ["field", "--mode", "ps-sym", "--angle-deg", angle, "--nu", nu,
            "--eig-index", str(index), "--amps=0.7", "--r", "0.5,2",
            "--theta-steps", "11"]
    if with_p1:
        argv.append("--with-p1=0.1,-0.2")
    case = {"mode": "ps-sym", "angle": angle, "nu": nu, "index": index,
            "with_p1": with_p1, "radii": (0.5, 2.0), "steps": 11}
    a = math.radians(135.0)
    material = MaterialParams(nu=0.3)
    wedge = WedgeCase(half_angle_a=a, mode=Mode.PLANE_SYM)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = admissible_eigenvalues(wedge, 0.3)[index].p
    series = field_series_map(
        eigenfield(wedge, material, p).combined_field([0.7]), material)
    return argv, case, a, series


def _replace_value(out, row, column, value):
    lines = out.splitlines()
    cells = lines[row].split(",")
    j = lines[0].split(",").index(column)
    cells[j] = repr(value)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_field_check_accepts_output_and_rejects_perturbations():
    argv, case, a, series = _field_case()
    rc, out = _run(argv)
    assert checks.check_field(out, rc, case, a, series) == []
    # a nonzero face traction on theta = +a at the first radius, a row the
    # value sampling does not visit
    problems = checks.check_field(_replace_value(out, 11, "t_tt", 1e-3),
                                  rc, case, a, series)
    assert [p.text for p in problems if "face traction" in p.text]
    # a sampled row off the reference by 1e-9 of its column's scale
    rows = [line.split(",") for line in out.splitlines()[1:]]
    scale = max(abs(float(r[2])) for r in rows)
    mid = 1 + len(rows) // 3
    value = float(rows[mid - 1][2]) + 1e-9 * scale
    problems = checks.check_field(_replace_value(out, mid, "u_r", value),
                                  rc, case, a, series)
    assert [p.text for p in problems if p.text.startswith("u_r")]
    assert checks.check_field(_replace_value(out, 5, "W", math.inf),
                              rc, case, a, series)
    short = "\n".join(out.splitlines()[:-1]) + "\n"
    assert checks.check_field(short, rc, case, a, series)


def test_report_checks_reject_fail_lines():
    argv = ["equilibrium", "--mode", "I", "--angle-deg", "180", "--nu", "0.3",
            "--amps=1,-0.5"]
    rc, out = _run(argv)
    assert checks.check_report(out, rc, "equilibrium") == []
    failed = out.replace("result: PASS", "result: FAIL")
    assert checks.check_report(failed, rc, "equilibrium")
    check_out = ("[PASS] a: value = 0, tol = 1\n[FAIL] b: value = 2, tol = 1\n"
                 "1/2 checks passed\n" + json.dumps({"passed": False}) + "\n")
    assert checks.check_report(check_out, 2, "check")
    assert checks.check_report(check_out.replace("[FAIL]", "[PASS]").replace(
        "false", "true"), 0, "check") == []
