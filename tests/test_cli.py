"""Command-line interface: output formats, contracts, and exit codes."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import tracemalloc

import numpy as np
import pytest

from gradnotch import basis, cli
from gradnotch.basis import attach_p1, eigenfield
from gradnotch.cli import main
from gradnotch.eigensolver import admissible_eigenvalues, smallest_exponents
from gradnotch.fields import (ANTIPLANE_FIELD_KEYS, PLANE_FIELD_KEYS,
                              field_series_map)
from gradnotch.model import MaterialParams, Mode, PolarSeries, WedgeCase
from gradnotch.verify import CheckResult, SuiteReport

PLANE_HEADER = ("r,theta,u_r,u_t,eps_rr,eps_tt,eps_rt,tau_rr,tau_tt,tau_rt,"
                "tau_zz,m_rrr,m_rrt,m_rtt,m_trr,m_ttr,m_ttt,t_tr,t_tt,"
                "t_rr,t_rt,W")
ANTIPLANE_HEADER = ("r,theta,w,eps_rz,eps_tz,tau_rz,tau_tz,m_rrz,m_rtz,"
                    "m_trz,m_ttz,t_tz,W")


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def rows(csv_text):
    lines = csv_text.strip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def _no_work(*args, **kwargs):
    raise AssertionError("the solver was called")


# ----------------------------------------------------------------------
# eig
# ----------------------------------------------------------------------

def test_eig_antiplane_crack_json(capsys):
    rc, out, _ = run(capsys, ["eig", "--mode", "ap", "--angle-deg", "180"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["case"]["nu"] is None
    assert doc["case"]["mode"] == "ap"
    assert doc["case"]["angle_deg"] == 180.0

    roots = doc["roots"]
    assert roots[0]["kind"] == "special_p1"
    assert roots[0]["p"] == 1.0
    assert roots[0]["admissible"] is True

    first = roots[1]
    assert first["p"] == pytest.approx(1.5, abs=1e-9)
    assert first["nullity"] == 1
    amp = first["amplitudes"][0]
    assert amp[0] / amp[1] == pytest.approx(5.0 / 3.0, rel=1e-9)
    # unit-normalized with the largest component positive
    assert math.hypot(*amp) == pytest.approx(1.0, rel=1e-12)
    assert amp[0] > 0

    # JSON keys are emitted in sorted order
    case_text = out[out.index('"case"'):]
    positions = [case_text.index(f'"{k}"')
                 for k in ("angle_deg", "c", "mode", "mu", "nu")]
    assert positions == sorted(positions)


def test_eig_plane_sym_crack_nullity_two(capsys):
    rc, out, _ = run(capsys, ["eig", "--mode", "ps-sym",
                              "--angle-deg", "180", "--nu", "0.25"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["case"]["nu"] == 0.25
    first = doc["roots"][1]
    assert first["p"] == pytest.approx(1.5, abs=1e-9)
    assert first["nullity"] == 2
    assert len(first["amplitudes"]) == 2
    assert all(len(vec) == 4 for vec in first["amplitudes"])


def test_eig_usage_errors(capsys):
    rc, _, err = run(capsys, ["eig", "--mode", "ap", "--angle-deg", "45"])
    assert rc == 1
    assert "90" in err and "180" in err

    rc, _, err = run(capsys, ["eig", "--mode", "ps-sym",
                              "--angle-deg", "120"])
    assert rc == 1
    assert "--nu" in err

    rc, _, err = run(capsys, ["eig", "--mode", "ps-sym",
                              "--angle-deg", "120", "--nu", "0.6"])
    assert rc == 1

    rc, _, err = run(capsys, ["eig", "--mode", "ap", "--angle-deg", "120",
                              "--mu", "-1"])
    assert rc == 1

    # a tolerance coarser than 1e-8 leaves roots unrefined and without
    # eigenfields
    for value in ("nan", "inf", "1e-3", "0", "-1e-12"):
        rc, out, err = run(capsys, ["eig", "--mode", "ap",
                                    "--angle-deg", "120", "--tol", value])
        assert rc == 1 and out == ""
        assert "--tol" in err

    # non-finite material constants: no traceback, no bare inf in the JSON
    for flag, value in (("--mu", "nan"), ("--mu", "inf"), ("--c", "inf"),
                        ("--c", "nan")):
        rc, out, err = run(capsys, ["eig", "--mode", "ap",
                                    "--angle-deg", "120", flag, value])
        assert rc == 1 and out == ""
        assert flag in err and "finite" in err


@pytest.mark.parametrize("argv", [
    ["--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3"],
    ["--mode", "ps-anti", "--angle-deg", "180", "--nu", "-0.5",
     "--p-max", "12"],
    ["--mode", "ps-sym", "--angle-deg", "90", "--nu", "0.4999"],
    ["--mode", "ap", "--angle-deg", "179.9999", "--p-max", "12"],
])
def test_eig_request_is_one_batched_pass(capsys, monkeypatch, argv):
    # one eigenfield call over every root, one face-matrix stack, and no
    # bracket-root series: eig reports amplitudes, which need no field; only
    # the p = 1 entry's constant-strain fields (one series per member and
    # component) are built with their solution
    calls = {"eigenfield": 0, "bc_matrix": 0, "series": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "eigenfield",
                        counted("eigenfield", cli.eigenfield))
    monkeypatch.setattr(basis, "bc_matrix",
                        counted("bc_matrix", basis.bc_matrix))
    monkeypatch.setattr(PolarSeries, "__post_init__",
                        counted("series", PolarSeries.__post_init__))
    rc, out, _ = run(capsys, ["eig", *argv])
    assert rc == 0
    assert calls["eigenfield"] == 1 and calls["bc_matrix"] == 1
    roots = json.loads(out)["roots"]
    assert sum(r["nullity"] for r in roots[1:]) >= len(roots) - 2
    p1_members = basis._P1_MEMBERS[cli._MODE_BY_LABEL[argv[1]]][1]
    assert calls["series"] == len(p1_members) * len(p1_members[0])


def test_parser_is_built_once_per_process(capsys):
    eig = ["eig", "--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3"]
    bad_flag = eig + ["--bogus"]
    bad_angle = ["eig", "--mode", "ap", "--angle-deg", "45"]
    cli._build_parser.cache_clear()
    first = run(capsys, eig)
    second = run(capsys, eig)
    assert cli._build_parser.cache_info().misses == 1
    assert first[0] == 0 and second == first
    # usage errors after a successful call: exit 1 and the stderr a fresh
    # parser gives
    after = [run(capsys, bad_flag), run(capsys, bad_angle)]
    cli._build_parser.cache_clear()
    fresh = [run(capsys, bad_flag)]
    cli._build_parser.cache_clear()
    fresh.append(run(capsys, bad_angle))
    assert after == fresh
    assert [rc for rc, _, _ in after] == [1, 1]
    assert all(err for _, _, err in after)


def test_unbounded_work_is_refused_before_any_allocation(capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli, "admissible_eigenvalues", _no_work)
    monkeypatch.setattr(cli, "smallest_exponents", _no_work)
    monkeypatch.setattr(cli, "eigenfield", _no_work)
    field = ["field", "--mode", "ap", "--angle-deg", "180",
             "--eig-index", "1", "--amps", "1"]
    tracemalloc.start()
    try:
        sweep = run(capsys, ["sweep", "--mode", "ap", "--from", "90",
                             "--to", "180", "--step", "1e-9"])
        eig = run(capsys, ["eig", "--mode", "ap", "--angle-deg", "120",
                           "--p-max", "1e9"])
        big_grid = run(capsys, field + ["--r", "1,2",
                                        "--theta-steps", "500001"])
        non_finite = run(capsys, field + ["--r", "nan,inf",
                                          "--theta-steps", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sweep[0] == 1 and "10001 angles" in sweep[2]
    assert eig[0] == 1 and "must not exceed 100" in eig[2]
    assert big_grid[0] == 1 and "at most 1000000 rows" in big_grid[2]
    assert non_finite[0] == 1 and "finite" in non_finite[2]
    assert peak < 1 << 20


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_antiplane_endpoints_and_monotone(capsys):
    rc, out, _ = run(capsys, ["sweep", "--mode", "ap", "--from", "90",
                              "--to", "180", "--step", "10"])
    assert rc == 0
    header, body = rows(out)
    assert header == "angle_deg,nu,mode,p,exp_monopolar,exp_total"
    assert len(body) == 10
    assert [float(r[0]) for r in body] == [90.0 + 10.0 * i
                                           for i in range(10)]
    # anti-plane rows leave the nu column empty
    assert all(r[1] == "" for r in body)
    assert all(r[2] == "ap" for r in body)

    p_col = [float(r[3]) for r in body]
    assert all(a > b for a, b in zip(p_col, p_col[1:]))
    assert p_col[0] == pytest.approx(2.0, abs=1e-9)
    assert p_col[-1] == pytest.approx(1.5, abs=1e-9)
    assert float(body[0][5]) == pytest.approx(-1.0, abs=1e-9)
    assert float(body[-1][5]) == pytest.approx(-1.5, abs=1e-9)


def test_sweep_single_angle_to_file(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, ["sweep", "--mode", "ps-sym", "--nu", "0.3",
                              "--from", "120", "--to", "120",
                              "--out", str(out_path)])
    assert rc == 0
    assert out == ""
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    header, body = rows(raw.decode("utf-8"))
    assert header == "angle_deg,nu,mode,p,exp_monopolar,exp_total"
    assert len(body) == 1
    row = body[0]
    assert float(row[0]) == 120.0
    # 17-digit text round-trips the float exactly
    assert float(row[1]) == 0.3
    assert row[2] == "ps-sym"
    p = float(row[3])
    assert float(row[4]) == pytest.approx(p - 1.0, abs=1e-15)
    assert float(row[5]) == pytest.approx(p - 3.0, abs=1e-15)


def test_sweep_usage_errors(capsys, monkeypatch, tmp_path):
    rc, _, err = run(capsys, ["sweep", "--mode", "ap", "--from", "100",
                              "--to", "90"])
    assert rc == 1
    assert "exceeds" in err

    # an --out in a missing directory is refused before any solve, and
    # leaves no file behind
    with monkeypatch.context() as patch:
        patch.setattr(cli, "smallest_exponents", _no_work)
        for missing in (tmp_path / "missing" / "x.csv",
                        tmp_path / "missing" / "deeper" / "x.csv"):
            rc, out, err = run(capsys, ["sweep", "--mode", "ap",
                                        "--from", "90", "--to", "180",
                                        "--out", str(missing)])
            assert rc == 1 and out == ""
            assert err == (f"error: cannot write {missing}: "
                           f"No such file or directory\n")
    assert list(tmp_path.iterdir()) == []

    rc, _, _ = run(capsys, ["sweep", "--mode", "ap", "--from", "90",
                            "--to", "100", "--step", "0"])
    assert rc == 1

    rc, _, _ = run(capsys, ["sweep", "--mode", "ap", "--from", "90",
                            "--to", "100", "--step", "nan"])
    assert rc == 1

    rc, _, _ = run(capsys, ["sweep", "--mode", "ap", "--from", "30",
                            "--to", "100"])
    assert rc == 1


# ----------------------------------------------------------------------
# field
# ----------------------------------------------------------------------

def test_field_antiplane_crack_spot_value(capsys):
    # scale the unit null vector (5, 3)/sqrt(34) by sqrt(34)/3 so the
    # second coefficient becomes 1, which puts t_tz(1, 0) at exactly 1.5
    amp = repr(math.sqrt(34.0) / 3.0)
    rc, out, _ = run(capsys, ["field", "--mode", "ap", "--angle-deg", "180",
                              "--eig-index", "1", "--amps", amp,
                              "--r", "1", "--theta-steps", "3"])
    assert rc == 0
    header, body = rows(out)
    assert header == ANTIPLANE_HEADER
    assert len(body) == 3

    col = header.split(",").index("t_tz")
    by_theta = {round(float(r[1]), 9): float(r[col]) for r in body}
    assert by_theta[0.0] == pytest.approx(1.5, rel=1e-9)
    # faces are total-traction free
    for theta, value in by_theta.items():
        if theta != 0.0:
            assert abs(value) < 1e-8


def test_field_plane_header_and_homogeneity(capsys):
    rc, out, _ = run(capsys, ["field", "--mode", "ps-sym",
                              "--angle-deg", "180", "--nu", "0.3",
                              "--eig-index", "1", "--amps", "1,0.5",
                              "--r", "1,2", "--theta-steps", "5"])
    assert rc == 0
    header, body = rows(out)
    assert header == PLANE_HEADER
    assert len(body) == 10

    cols = header.split(",")
    i_u, i_tau, i_m = (cols.index("u_r"), cols.index("tau_rr"),
                       cols.index("m_rrr"))
    inner, outer = body[2], body[7]    # same theta, r = 1 and r = 2
    assert float(inner[1]) == float(outer[1])
    p = 1.5
    for col, degree in [(i_u, p), (i_tau, p - 1.0), (i_m, p - 2.0)]:
        ref = float(inner[col])
        if abs(ref) > 1e-12:
            assert float(outer[col]) / ref == pytest.approx(
                2.0 ** degree, rel=1e-12)


def test_field_with_p1_adds_linear_part(capsys):
    base = ["field", "--mode", "ap", "--angle-deg", "180",
            "--eig-index", "1", "--amps", "1",
            "--r", "1,2", "--theta-steps", "5"]
    rc, plain, _ = run(capsys, base)
    assert rc == 0
    rc, with_p1, _ = run(capsys, base + ["--with-p1", "0.4"])
    assert rc == 0

    header, body0 = rows(plain)
    _, body1 = rows(with_p1)
    col = header.split(",").index("w")
    # the added part is homogeneous of degree one: the w difference at a
    # fixed theta doubles from r = 1 to r = 2
    deltas = [float(r1[col]) - float(r0[col])
              for r0, r1 in zip(body0, body1)]
    assert abs(deltas[1]) > 1e-12
    assert deltas[6] / deltas[1] == pytest.approx(2.0, rel=1e-9)


def _pointwise_field_csv(mode, angle, nu, index, with_p1, radii, steps):
    """`field` argv and its expected CSV, every value evaluated point by
    point and formatted with "%.17g"."""
    mode_enum = {"ps-sym": Mode.PLANE_SYM, "ps-anti": Mode.PLANE_ANTI,
                 "ap": Mode.ANTIPLANE_ODD}[mode]
    half_angle = math.radians(float(angle))
    case = WedgeCase(half_angle_a=half_angle, mode=mode_enum)
    nu_value = None if nu is None else float(nu)
    material = MaterialParams(nu=nu_value or 0.0)
    entry = admissible_eigenvalues(case, nu_value)[index]
    sol = eigenfield(case, material, entry.p)
    amps = [1.0 - 0.75 * k for k in range(sol.nullity)]
    if with_p1 is not None:
        sol = attach_p1(sol, [float(x) for x in with_p1.split(",")])
    series = field_series_map(sol.combined_field(amps, include_p1=True),
                              material)
    keys = PLANE_FIELD_KEYS if mode_enum.is_plane else ANTIPLANE_FIELD_KEYS
    evals = [series[key].eval for key in keys]
    lines = ["r,theta," + ",".join(keys)]
    for r in radii:
        for theta in np.linspace(-half_angle, half_angle, steps).tolist():
            values = [r, theta] + [ev(r, theta) for ev in evals]
            lines.append(",".join("%.17g" % v for v in values))

    argv = ["field", "--mode", mode, "--angle-deg", angle,
            "--eig-index", str(index), "--amps", ",".join(map(repr, amps)),
            "--r", ",".join(map(repr, radii)), "--theta-steps", str(steps)]
    if nu is not None:
        argv += ["--nu", nu]
    if with_p1 is not None:
        argv += ["--with-p1", with_p1]
    return argv, "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode,angle,nu,index,with_p1", [
    ("ps-sym", "150", "0.3", 1, "0.2,-0.1"),
    ("ps-sym", "180", "0.3", 2, None),
    ("ps-anti", "120", "0.25", 2, "0.7"),
    ("ap", "135", None, 1, "0.4"),
    ("ap", "180", None, 0, None),
])
def test_field_rows_match_pointwise_evaluation(capsys, mode, angle, nu,
                                               index, with_p1):
    argv, expected = _pointwise_field_csv(mode, angle, nu, index, with_p1,
                                          (0.25, 1.0, 3.0), 9)
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == expected


@pytest.mark.parametrize("mode,angle,nu,index,with_p1,radii,extra", [
    # a block and one row more at each of three radii
    ("ps-sym", "150", "0.3", 1, "0.2,-0.1", (0.25, 1.0, 3.0), 1),
    # exactly one block on one radius
    ("ap", "135", None, 1, "0.4", (2.0,), 0),
])
def test_field_block_edges_leave_the_rows_unchanged(capsys, tmp_path, mode,
                                                    angle, nu, index, with_p1,
                                                    radii, extra):
    steps = cli._FIELD_BLOCK_ROWS + extra
    argv, expected = _pointwise_field_csv(mode, angle, nu, index, with_p1,
                                          radii, steps)
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == expected

    out_path = tmp_path / "field.csv"
    rc, out, _ = run(capsys, argv + ["--out", str(out_path)])
    assert rc == 0 and out == ""
    assert out_path.read_bytes() == expected.encode("utf-8")


def test_field_out_memory_does_not_grow_with_the_text(capsys, tmp_path):
    out_path = tmp_path / "field.csv"
    argv = ["field", "--mode", "ps-sym", "--angle-deg", "150", "--nu", "0.3",
            "--eig-index", "1", "--amps", "1", "--r", "0.5,1,2,4",
            "--theta-steps", "10000", "--out", str(out_path)]
    tracemalloc.start()
    try:
        rc, _, _ = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the float grid alone is 40,000 rows x 20 columns x 8 bytes = 6.4 MB;
    # the text, ~17 MB, is written one block at a time
    assert peak < out_path.stat().st_size


def test_field_usage_errors(capsys, monkeypatch, tmp_path):
    # an --out in a missing directory, or under a file, is refused before
    # any solve, and leaves no file behind
    plain = tmp_path / "plain"
    plain.write_text("kept")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "admissible_eigenvalues", _no_work)
        patch.setattr(cli, "eigenfield", _no_work)
        for missing, reason in (
                (tmp_path / "missing" / "x.csv", "No such file or directory"),
                (plain / "x.csv", "Not a directory")):
            rc, out, err = run(capsys, ["field", "--mode", "ap",
                                        "--angle-deg", "180",
                                        "--eig-index", "1", "--amps", "1",
                                        "--r", "1", "--theta-steps", "3",
                                        "--out", str(missing)])
            assert rc == 1 and out == ""
            assert err == f"error: cannot write {missing}: {reason}\n"
    assert list(tmp_path.iterdir()) == [plain]
    assert plain.read_text() == "kept"

    rc, _, err = run(capsys, ["field", "--mode", "ps-sym",
                              "--angle-deg", "180", "--nu", "0.3",
                              "--eig-index", "1", "--amps", "1",
                              "--r", "1", "--theta-steps", "3"])
    assert rc == 1
    assert "2 coefficient" in err

    rc, _, err = run(capsys, ["field", "--mode", "ap", "--angle-deg", "180",
                              "--eig-index", "0", "--amps", "1",
                              "--with-p1", "0.4",
                              "--r", "1", "--theta-steps", "3"])
    assert rc == 1
    assert "--with-p1" in err

    rc, _, err = run(capsys, ["field", "--mode", "ap", "--angle-deg", "180",
                              "--eig-index", "1", "--amps", "1",
                              "--with-p1", "0.4,0.2",
                              "--r", "1", "--theta-steps", "3"])
    assert rc == 1
    assert "1 constant" in err

    rc, _, err = run(capsys, ["field", "--mode", "ap", "--angle-deg", "180",
                              "--eig-index", "99", "--amps", "1",
                              "--r", "1", "--theta-steps", "3"])
    assert rc == 1
    assert "out of range" in err

    for radii in ("-1", "1,nan", "inf"):
        rc, _, _ = run(capsys, ["field", "--mode", "ap", "--angle-deg",
                                "180", "--eig-index", "1", "--amps", "1",
                                "--r", radii, "--theta-steps", "3"])
        assert rc == 1

    # non-finite coefficients are refused before any solve
    monkeypatch.setattr(cli, "admissible_eigenvalues", _no_work)
    monkeypatch.setattr(cli, "eigenfield", _no_work)
    for flag, extra in (("--amps", ["--amps", "nan"]),
                        ("--amps", ["--amps=-inf"]),
                        ("--with-p1", ["--amps", "1", "--with-p1", "inf"]),
                        ("--with-p1", ["--amps", "1", "--with-p1", "nan"])):
        rc, out, err = run(capsys, ["field", "--mode", "ap", "--angle-deg",
                                    "180", "--eig-index", "1", *extra,
                                    "--r", "1", "--theta-steps", "3"])
        assert rc == 1 and out == ""
        assert flag in err and "finite" in err


# ----------------------------------------------------------------------
# equilibrium
# ----------------------------------------------------------------------

def test_equilibrium_mode1_reference(capsys):
    rc, out, _ = run(capsys, ["equilibrium", "--mode", "I",
                              "--angle-deg", "180", "--nu", "0.3",
                              "--amps", "1,0"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert any(line.startswith("result: PASS") for line in lines)
    doc = json.loads(lines[-1])
    assert doc["passed"] is True
    assert doc["p"] == 1.5
    assert doc["corners"]["e_r_a"] == pytest.approx(-7.566878980891720,
                                                    rel=1e-9)
    assert doc["corners"]["e_r_b"] == pytest.approx(
        doc["corners"]["e_r_a"], rel=1e-12)
    scale = doc["scale"]
    assert abs(doc["sum_fx"]) <= doc["tol"] * scale
    assert abs(doc["sum_fy"]) <= doc["tol"] * scale
    assert abs(doc["sum_moment"]) <= doc["tol"] * scale


def test_equilibrium_mode2_balance(capsys):
    rc, out, _ = run(capsys, ["equilibrium", "--mode", "II",
                              "--angle-deg", "180", "--nu", "0.25",
                              "--amps", "0.5,1.2"])
    assert rc == 0
    doc = json.loads(out.strip().split("\n")[-1])
    assert doc["passed"] is True
    assert abs(doc["arc"]["h"]) <= doc["tol"] * doc["scale"]


def test_equilibrium_notch_sym(capsys):
    rc, out, _ = run(capsys, ["equilibrium", "--mode", "notch-sym",
                              "--angle-deg", "114.6", "--nu", "0.3",
                              "--amps", "1", "--r0", "0.5"])
    assert rc == 0
    doc = json.loads(out.strip().split("\n")[-1])
    assert doc["passed"] is True
    assert 1.0 < doc["p"] < 2.0


def test_equilibrium_antiplane_rejected(capsys):
    for flag in ("III", "III-na"):
        rc, out, err = run(capsys, ["equilibrium", "--mode", flag,
                                    "--angle-deg", "180", "--nu", "0.3",
                                    "--amps", "1"])
        assert rc == 1
        assert out == ""
        assert "anti-plane" in err


def test_equilibrium_usage_errors(capsys, monkeypatch):
    # crack modes require the full-plane angle
    rc, _, err = run(capsys, ["equilibrium", "--mode", "I",
                              "--angle-deg", "120", "--nu", "0.3",
                              "--amps", "1,0"])
    assert rc == 1
    assert "180" in err

    rc, _, _ = run(capsys, ["equilibrium", "--mode", "I",
                            "--angle-deg", "180", "--amps", "1,0"])
    assert rc == 1

    rc, _, _ = run(capsys, ["equilibrium", "--mode", "I",
                            "--angle-deg", "180", "--nu", "0.3",
                            "--amps", "1,0", "--r0", "0"])
    assert rc == 1

    # non-finite amplitudes and radii are refused before any solve
    for name in ("smallest_exponents", "eigenfield",
                 "solution_from_amplitudes", "check_equilibrium"):
        monkeypatch.setattr(cli, name, _no_work)
    for mode, extra in (("I", ["--amps", "inf,0"]),
                        ("II", ["--amps", "0,nan"]),
                        ("notch-sym", ["--amps", "nan"]),
                        ("I", ["--amps", "1,0", "--r0", "nan"]),
                        ("notch-anti", ["--amps", "1", "--r0", "inf"])):
        rc, out, err = run(capsys, ["equilibrium", "--mode", mode,
                                    "--angle-deg", "180", "--nu", "0.3",
                                    *extra])
        assert rc == 1 and out == ""
        assert extra[-2] in err and "finite" in err


# ----------------------------------------------------------------------
# Poisson ratio range, shared by every subcommand
# ----------------------------------------------------------------------

_NU_ARGV = {
    "eig": ["eig", "--mode", "ps-sym", "--angle-deg", "150"],
    "sweep": ["sweep", "--mode", "ps-anti", "--from", "150", "--to", "151"],
    "field": ["field", "--mode", "ps-anti", "--angle-deg", "150",
              "--eig-index", "1", "--amps", "1", "--r", "0.5,1",
              "--theta-steps", "5"],
    "equilibrium": ["equilibrium", "--mode", "I", "--angle-deg", "180",
                    "--amps", "1,0.5"],
}


@pytest.mark.parametrize("nu", ["-0.5", "-0.9"])
def test_negative_poisson_ratio_is_accepted(capsys, nu):
    rc, out, _ = run(capsys, _NU_ARGV["eig"] + ["--nu", nu])
    assert rc == 0
    doc = json.loads(out)
    assert doc["case"]["nu"] == float(nu)
    assert all(root["nullity"] >= 1 for root in doc["roots"])
    rc, out, _ = run(capsys, _NU_ARGV["sweep"] + ["--nu", nu])
    assert rc == 0 and len(out.strip().split("\n")) == 4
    rc, out, _ = run(capsys, _NU_ARGV["field"] + ["--nu", nu])
    assert rc == 0
    header, body = rows(out)
    assert header == PLANE_HEADER and len(body) == 10
    assert all(math.isfinite(float(x)) for row in body for x in row)
    rc, out, _ = run(capsys, _NU_ARGV["equilibrium"] + ["--nu", nu])
    assert rc == 0 and "result: PASS" in out


@pytest.mark.parametrize("nu", [-0.5, -0.9])
@pytest.mark.parametrize("mode", ["notch-sym", "notch-anti"])
def test_notch_equilibrium_passes_at_negative_poisson_ratio(capsys, nu,
                                                            mode):
    plane = Mode.PLANE_SYM if mode == "notch-sym" else Mode.PLANE_ANTI
    for angle in ("100", "135", "157.5", "179"):
        case = WedgeCase(half_angle_a=math.radians(float(angle)), mode=plane)
        p = smallest_exponents(case, nu).p
        nullity = eigenfield(case, MaterialParams(nu=nu), p).nullity
        amps = ",".join(["1", "-0.6", "0.3"][:nullity])
        rc, out, _ = run(capsys, ["equilibrium", "--mode", mode,
                                  "--angle-deg", angle, "--nu", str(nu),
                                  "--amps", amps])
        assert rc == 0, (angle, out)
        assert "result: PASS" in out


@pytest.mark.parametrize("command", sorted(_NU_ARGV))
@pytest.mark.parametrize("nu", ["-1", "0.5", "nan"])
def test_poisson_ratio_outside_the_library_range_is_refused(capsys,
                                                            command, nu):
    rc, out, err = run(capsys, _NU_ARGV[command] + ["--nu", nu])
    assert rc == 1
    assert out == ""
    assert "(-1, 0.5)" in err


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------

def test_check_crack_suite_deterministic(capsys):
    rc1, out1, _ = run(capsys, ["check", "--suite", "crack", "--seed", "7"])
    rc2, out2, _ = run(capsys, ["check", "--suite", "crack", "--seed", "7"])
    assert rc1 == rc2 == 0
    assert out1 == out2

    lines = out1.strip().split("\n")
    assert all(line.startswith("[PASS]") for line in lines[:-2])
    assert "checks passed" in lines[-2]
    doc = json.loads(lines[-1])
    assert doc["passed"] is True
    assert doc["suite"] == "crack"
    assert doc["seed"] == 7
    assert all(c["passed"] for c in doc["checks"])


def test_check_failure_exits_two(capsys, monkeypatch):
    stub = SuiteReport(suite="crack", seed=0, checks=(
        CheckResult(name="stub-check", passed=False, value=1.0, tol=0.5,
                    detail="forced"),))
    monkeypatch.setattr("gradnotch.cli.run_suite",
                        lambda suite, seed=0: stub)
    rc, out, _ = run(capsys, ["check", "--suite", "crack"])
    assert rc == 2
    assert "[FAIL] stub-check" in out
    doc = json.loads(out.strip().split("\n")[-1])
    assert doc["passed"] is False


def test_check_unknown_suite_exits_one(capsys):
    rc, _, _ = run(capsys, ["check", "--suite", "bogus"])
    assert rc == 1


# ----------------------------------------------------------------------
# top-level plumbing
# ----------------------------------------------------------------------

def test_no_subcommand_exits_one(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["frobnicate"])[0] == 1


def test_console_script_installed():
    exe = shutil.which("gradnotch")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "eig", "--mode", "ap", "--angle-deg", "180"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["roots"][1]["p"] == pytest.approx(1.5, abs=1e-9)
