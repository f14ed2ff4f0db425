"""Command-line interface: output formats, contracts, and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from gradnotch import basis, cli, verify
from gradnotch.basis import EmptyNullSpace, attach_p1, eigenfield
from gradnotch.cli import main
from gradnotch.eigensolver import (NoRootFound, NoSignChange,
                                  admissible_eigenvalues, smallest_exponents)
from gradnotch.equilibrium import QuadratureDisagreement
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

    # above 1 but not above the scan window's lower end 1 + 1e-6
    rc, out, err = run(capsys, ["eig", "--mode", "ap", "--angle-deg", "120",
                                "--p-max", "1.0000005"])
    assert rc == 1 and out == ""
    assert err.count("error:") == 1 and "--p-max" in err

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
    monkeypatch.setattr(cli, "sweep_exponents", _no_work)
    monkeypatch.setattr(cli, "eigenfield", _no_work)
    field = ["field", "--mode", "ap", "--angle-deg", "180",
             "--eig-index", "1", "--amps", "1"]
    tracemalloc.start()
    try:
        sweep = run(capsys, ["sweep", "--mode", "ap", "--from", "90",
                             "--to", "180", "--step", "1e-9"])
        # the angle loop admits 1e-9 past --to, which the cap counts
        tiny_step = run(capsys, ["sweep", "--mode", "ap", "--from", "90",
                                 "--to", "90", "--step", "1e-300"])
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
    assert tiny_step[:2] == (1, "") and "10001 angles" in tiny_step[2]
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
        patch.setattr(cli, "sweep_exponents", _no_work)
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

    for step in ("nan", "inf"):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "sweep_exponents", _no_work)
            rc, out, err = run(capsys, ["sweep", "--mode", "ap",
                                        "--from", "90", "--to", "100",
                                        "--step", step])
        assert rc == 1 and out == ""
        assert err.count("error:") == 1 and "--step" in err

    # the exponents do not depend on mu or c, so sweep takes neither
    for flag in ("--mu", "--c"):
        rc, out, err = run(capsys, ["sweep", "--mode", "ap", "--from", "90",
                                    "--to", "91", flag, "2"])
        assert rc == 1 and out == ""
        assert f"unrecognized arguments: {flag} 2" in err

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


def test_field_out_memory_beyond_the_float_grid_is_bounded(capsys,
                                                          tmp_path):
    out_path = tmp_path / "field.csv"
    argv = ["field", "--mode", "ps-sym", "--angle-deg", "150", "--nu", "0.3",
            "--eig-index", "1", "--amps", "1", "--r", "2",
            "--theta-steps", "100000", "--out", str(out_path)]
    tracemalloc.start()
    try:
        rc, _, _ = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the float grid is 100,000 rows x 22 columns x 8 bytes = 17.6 MB; the
    # series are evaluated and the text is made a bounded block at a time
    grid_bytes = 100_000 * (2 + len(PLANE_FIELD_KEYS)) * 8
    assert peak - grid_bytes < 2 << 20


_GRID_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, 1e300]))


@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4),
       st.integers(1, 8), st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_field_csv_matches_the_per_row_writer(n_radii, steps, n_keys,
                                              block_rows, data):
    keys = PLANE_FIELD_KEYS[:n_keys]
    radii = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=n_radii,
                               max_size=n_radii))
    thetas = np.array(data.draw(st.lists(
        st.floats(-math.pi, math.pi), min_size=steps, max_size=steps)))
    values = data.draw(hnp.arrays(np.float64, (n_radii, steps, n_keys),
                                  elements=_GRID_VALUES))
    grid = np.empty((n_radii, steps, 2 + n_keys))
    grid[:, :, 0] = np.array(radii)[:, None]
    grid[:, :, 1] = thetas
    grid[:, :, 2:] = values
    with np.errstate(all="raise"), mock.patch.object(
            cli, "_FIELD_BLOCK_ROWS", block_rows):
        text = "".join(cli._field_csv(keys, grid))
    assert text == oracles.field_csv_per_row(keys, radii, thetas, values)


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

    # so are --with-p1 on the p = 1 entry and a wrong constant count
    rc, out, err = run(capsys, ["field", "--mode", "ap", "--angle-deg", "180",
                                "--eig-index", "0", "--amps", "1",
                                "--with-p1", "0.4",
                                "--r", "1", "--theta-steps", "3"])
    assert rc == 1 and out == ""
    assert "--with-p1 cannot be combined with the p = 1 entry" in err

    rc, out, err = run(capsys, ["field", "--mode", "ap", "--angle-deg", "180",
                                "--eig-index", "1", "--amps", "1",
                                "--with-p1", "0.4,0.2",
                                "--r", "1", "--theta-steps", "3"])
    assert rc == 1 and out == ""
    assert err == ("error: --with-p1: the anti-plane class takes 1 constant "
                   "(E), got 2\n")


def test_field_that_overflows_is_refused_without_output(capsys, tmp_path):
    # amplitude 1e300 at r = 1e-300 overflows the gradient stresses: one
    # error line, no numpy warning and no --out file
    out_path = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, ["field", "--mode", "ap",
                                    "--angle-deg", "180", "--eig-index", "1",
                                    "--amps", "1e300", "--r", "1e-300",
                                    "--theta-steps", "2",
                                    "--out", str(out_path)])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "--amps 1e300" in err and "--r 1e-300" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--mode", "ap", "--from", "90", "--to", "91"],
    ["field", "--mode", "ap", "--angle-deg", "180", "--eig-index", "1",
     "--amps", "1", "--r", "1", "--theta-steps", "3"],
])
def test_out_naming_a_directory_is_refused_before_any_solve(
        capsys, monkeypatch, tmp_path, argv):
    # the solvers still run if called, so a late refusal (the same message,
    # from the failed open after the solve) shows as a nonzero count
    calls = []
    for name in ("sweep_exponents", "admissible_eigenvalues"):
        def counted(*args, _solve=getattr(cli, name), **kwargs):
            calls.append(_solve.__name__)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    rc, out, err = run(capsys, argv + ["--out", str(tmp_path)])
    assert rc == 1 and out == ""
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


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


def test_equilibrium_that_overflows_is_refused(capsys):
    # r0 = 1e300 overflows the arc moment: one error line, no report
    rc, out, err = run(capsys, ["equilibrium", "--mode", "I",
                                "--angle-deg", "180", "--nu", "0.3",
                                "--amps", "1,0", "--r0", "1e300"])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "--r0 1e+300" in err


# each of these made a series coefficient inf or nan, which the relative
# prune turned into a zero series: W = 0, or every stress 0 and a PASS
@pytest.mark.parametrize("argv,names", [
    (["field", "--mode", "ap", "--angle-deg", "180", "--eig-index", "1",
      "--amps", "1e200", "--r", "1", "--theta-steps", "3"],
     ["--amps 1e200", "--r 1", "--mu 1", "--c 1"]),
    (["field", "--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3",
      "--eig-index", "1", "--amps", "1", "--r", "1", "--theta-steps", "2",
      "--mu", "1e308", "--c", "1e308"],
     ["--amps 1", "--r 1", "--mu 1e+308", "--c 1e+308"]),
    (["equilibrium", "--mode", "I", "--angle-deg", "180", "--nu", "0.3",
      "--amps", "1,1", "--mu", "1e200", "--c", "1e200"],
     ["--r0 1", "--amps 1,1", "--mu 1e+200", "--c 1e+200"]),
])
def test_non_finite_series_is_refused(capsys, argv, names):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert all(name in err for name in names)


def test_equilibrium_overflow_refusal_prints_no_warning(capsys):
    # r0 = 1e-300 overflows the arc quadrature: numpy's overflow and
    # invalid-value warnings are not printed before the one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, ["equilibrium", "--mode", "I",
                                    "--angle-deg", "180", "--nu", "0.3",
                                    "--amps", "1,1", "--r0", "1e-300"])
    assert rc == 1 and out == ""
    assert err == ("error: the sector balance is not finite at --r0 1e-300, "
                   "--amps 1,1, --mu 1.0 and --c 1.0: it overflows a "
                   "double\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   np.float64("nan"), [1.0, {"x": math.inf}]])
def test_json_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        json.dumps(value, allow_nan=False)
    with pytest.raises(ValueError):
        cli._to_json(value)


def test_json_keeps_finite_numbers():
    doc = {"b": [0.1, -0.0, 5e-324, 1.7976931348623157e308, np.float64(2)],
           "a": None}
    assert cli._to_json(doc) == ('{"a":null,"b":[0.10000000000000001,-0,'
                                 '4.9406564584124654e-324,'
                                 '1.7976931348623157e+308,2]}')
    assert json.loads(cli._to_json(doc)) == json.loads(
        json.dumps(doc, default=float))


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(-2**70, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(), st.floats().map(np.float64), st.text(),
    st.just(object()))
_JSON_DOCS = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4),
    st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=3)),
    max_leaves=24)


def _written(writer, doc):
    try:
        return writer(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


@given(_JSON_DOCS)
@settings(max_examples=400, deadline=None)
def test_json_writer_matches_the_per_value_writer(doc):
    # nested documents with non-ASCII keys and strings, numpy scalars and
    # tuples: the same bytes, or the same refusal (non-finite float,
    # unserializable value, keys that do not sort)
    assert _written(cli._to_json, doc) == _written(
        oracles.to_json_per_value, doc)


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


@pytest.mark.parametrize("angle,rc", [
    ("180.00000000005", 0), ("89.99999999995", 0),
    ("180.0000001", 1), ("89.9999999", 1),
])
def test_angle_ends_admit_the_library_slack(capsys, angle, rc):
    # the library admits 1e-12 rad (about 5.7e-11 degrees) past either end
    got, out, err = run(capsys, ["eig", "--mode", "ap", "--angle-deg", angle])
    assert got == rc
    if rc:
        assert out == "" and err == (f"error: --angle-deg must lie in "
                                     f"[90, 180], got {float(angle)!r}\n")
    else:
        assert json.loads(out)["case"]["angle_deg"] == float(angle)


def test_sweep_range_is_refused_before_the_angle_count(capsys, monkeypatch):
    # a step that asks for too many angles over an out-of-range span is
    # refused for the range, and before any solve
    monkeypatch.setattr(cli, "sweep_exponents", _no_work)
    for lo, hi in (("-1e300", "100"), ("90", "180.0000001"), ("nan", "90")):
        rc, out, err = run(capsys, ["sweep", "--mode", "ap", f"--from={lo}",
                                    "--to", hi, "--step", "1e-300"])
        assert rc == 1 and out == ""
        assert err == (f"error: sweep range must lie in [90, 180], "
                       f"got [{float(lo)!r}, {float(hi)!r}]\n")
    rc, out, err = run(capsys, ["sweep", "--mode", "ap", "--from", "120",
                                "--to", "119.9999999", "--step", "1e-300"])
    assert rc == 1 and out == ""
    assert err == "error: --from (120.0) exceeds --to (119.9999999)\n"


# a value just past a bound is echoed with every digit that puts it there
@pytest.mark.parametrize("argv,message", [
    (["eig", "--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.5000001"],
     "--nu must lie in (-1, 0.5), got 0.5000001"),
    (["eig", "--mode", "ap", "--angle-deg", "135", "--p-max", "100.0000001"],
     "--p-max must not exceed 100, got 100.0000001"),
    (["eig", "--mode", "ap", "--angle-deg", "135", "--tol", "1.0000001e-8"],
     "--tol must lie in (0, 1e-08], got 1.0000001e-08"),
    (["equilibrium", "--mode", "I", "--angle-deg", "179.9999999", "--nu",
      "0.3", "--amps", "1,0"],
     "mode I is the crack case; --angle-deg must be 180, got 179.9999999"),
])
def test_refusals_print_the_value_they_refused(capsys, monkeypatch, argv,
                                               message):
    for name in ("admissible_eigenvalues", "smallest_exponents",
                 "solution_from_amplitudes"):
        monkeypatch.setattr(cli, name, _no_work)
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


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
        CheckResult(name="stub-check", value=1.0, tol=0.5, detail="forced"),))
    monkeypatch.setattr("gradnotch.cli.run_suite",
                        lambda suite, seed=0: stub)
    rc, out, _ = run(capsys, ["check", "--suite", "crack"])
    assert rc == 2
    assert "[FAIL] stub-check" in out
    doc = json.loads(out.strip().split("\n")[-1])
    assert doc["passed"] is False


_CHECK_ROW = re.compile(r"\[(PASS|FAIL)\] (\S+): value = (\S+), "
                        r"tol = (\S+?)(?:  \(.*\))?")


def _check_rows(out):
    """{name: (tag, value, tol)} of the text rows of a check report, and
    its JSON document."""
    *lines, _, doc = out.strip().split("\n")
    rows = {}
    for line in lines:
        tag, name, value, tol = _CHECK_ROW.fullmatch(line).groups()
        rows[name] = (tag, float(value), float(tol))
    return rows, json.loads(doc)


def _run_check(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoSignChange)
        return run(capsys, ["check", *argv])


@pytest.mark.parametrize("seed", range(8))
def test_check_row_passes_iff_its_value_is_below_its_tol(capsys, seed):
    rc, out, _ = _run_check(capsys, ["--suite", "all", "--seed", str(seed)])
    rows, doc = _check_rows(out)
    assert len(rows) == len(doc["checks"]) == 45
    for name, (tag, value, tol) in rows.items():
        assert (tag == "PASS") == (value < tol), name
    assert [c["passed"] for c in doc["checks"]] == [
        tag == "PASS" for tag, _, _ in rows.values()]
    assert doc["passed"] == all(c["passed"] for c in doc["checks"])
    assert (rc, doc["passed"]) == (0, True)


_real_det_vs_charfn = verify.det_vs_charfn
_real_energy_scaling = verify.energy_scaling


def _det_with_off_ratio(case, nu=None):
    report = _real_det_vs_charfn(case, nu)
    return report._replace(min_off_ratio=1e-7)


def _energy_exponent_off(sol):
    scaling = _real_energy_scaling(sol)
    return scaling._replace(exponent_exact=scaling.exponent_exact + 1e-9)


@pytest.mark.parametrize("name,stub,failing", [
    ("det_vs_charfn", _det_with_off_ratio,
     {f"crack-determinant-off-root-{mode.value}" for mode in Mode}),
    ("energy_scaling", _energy_exponent_off,
     {"crack-energy-exponent-plane-sym",
      "crack-energy-exponent-plane-anti"}),
])
def test_a_failing_check_row_prints_what_fails_it(capsys, monkeypatch,
                                                  name, stub, failing):
    # a wrong off-root ratio or exact energy exponent fails the row that
    # prints it, with its printed value above its printed tol
    monkeypatch.setattr(verify, name, stub)
    rc, out, _ = _run_check(capsys, ["--suite", "crack"])
    rows, doc = _check_rows(out)
    assert (rc, doc["passed"]) == (2, False)
    assert {row for row, (tag, _, _) in rows.items()
            if tag == "FAIL"} == failing
    assert all(rows[row][1] > rows[row][2] for row in failing)


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


_NOTCH = ["--angle-deg", "135", "--nu", "0.3", "--amps", "1"]


@pytest.mark.parametrize("target,error,argv,rc,prefix", [
    ("sweep_exponents", NoRootFound("no admissible bracket root"),
     ["sweep", "--mode", "ap", "--from", "90", "--to", "91"], 2, ""),
    ("smallest_exponents", NoRootFound("no admissible bracket root"),
     ["equilibrium", "--mode", "notch-sym", *_NOTCH], 1, ""),
    ("smallest_exponents", NoRootFound("no admissible bracket root"),
     ["equilibrium", "--mode", "notch-anti", *_NOTCH], 1, ""),
    ("check_equilibrium", QuadratureDisagreement("rules disagree"),
     ["equilibrium", "--mode", "I", "--angle-deg", "180", "--nu", "0.3",
      "--amps", "1,0"], 2, "arc quadrature failed to converge: "),
    ("eigenfield", EmptyNullSpace("no eigenfield at p = 1.5 for mode "
                                  "antiplane-odd"),
     ["field", "--mode", "ap", "--angle-deg", "135", "--eig-index", "1",
      "--amps", "1", "--r", "1", "--theta-steps", "3"], 1, ""),
])
def test_library_refusals_print_one_error_line(capsys, monkeypatch, target,
                                               error, argv, rc, prefix):
    # the library's refusal is printed once, as one error line with no
    # traceback, and nothing goes to stdout
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, refuse)
    assert run(capsys, argv) == (rc, "", f"error: {prefix}{error}\n")


def test_module_entry_prints_each_warning_on_one_line(capsys):
    # main() formats warnings as "warning: <message>", without the source
    # path and line the default format adds, and the entry point only
    # calls it; stdout is what main() writes in-process
    argv = ["eig", "--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "gradnotch.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith(
            "warning: even-multiplicity root accepted near p = ")
        assert ".py:" not in line
    with pytest.warns(NoSignChange):
        rc, out, _ = run(capsys, argv)
    assert rc == 0 and proc.stdout == out


def test_main_prints_the_entry_points_warning_lines_and_restores_the_format():
    # a library caller of main() gets the console script's stderr: each
    # warning on one line, with no source path; main() leaves
    # warnings.formatwarning as it found it
    argv = ["eig", "--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    caller = ("import sys, warnings\n"
              "from gradnotch.cli import main\n"
              "before = warnings.formatwarning\n"
              "rc = main(sys.argv[1:])\n"
              "assert warnings.formatwarning is before\n"
              "sys.exit(rc)\n")
    procs = [subprocess.run([sys.executable, *how, *argv],
                            capture_output=True, text=True, timeout=120,
                            env=env)
             for how in (["-c", caller], ["-m", "gradnotch.cli"])]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert procs[0].stdout == procs[1].stdout
    assert procs[0].stderr == procs[1].stderr
    lines = procs[0].stderr.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith(
            "warning: even-multiplicity root accepted near p = ")
        assert ".py:" not in line


def test_main_restores_the_warning_format_after_a_refusal_or_a_raise(
        monkeypatch):
    before = warnings.formatwarning
    assert main(["eig", "--mode", "ap", "--angle-deg", "200"]) == 1
    assert warnings.formatwarning is before
    monkeypatch.setattr(cli, "admissible_eigenvalues", _no_work)
    with pytest.raises(AssertionError, match="the solver was called"):
        main(["eig", "--mode", "ap", "--angle-deg", "135"])
    assert warnings.formatwarning is before


def test_check_prints_each_repeated_warning_once_per_caller():
    # the scans credit each NoSignChange to the line that called them, so
    # the default once-per-location filter drops a repeated message only
    # from the same caller: seed 0 prints 13 warning lines
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "gradnotch.cli", "check",
                           "--suite", "all", "--seed", "0"],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("warning: ") for line in lines)


# ----------------------------------------------------------------------
# a guard over the whole CLI
# ----------------------------------------------------------------------

def _mostly(valid, refused):
    """One of the values; one draw in about 4 len(valid) / len(refused)
    is a value the program must refuse."""
    return st.sampled_from(valid * 4 + refused)


# extreme but finite values: huge, tiny and subnormal, of either sign;
# nu near -1 and 1/2; each angle end, 1 ulp inside it, and 1e-10 degrees
# past it
_AMPS = st.sampled_from(["1e300", "-1e300", "1e-300", "-1e-300", "5e-324",
                         "1", "-0.3"])
_POSITIVE = _mostly(["1e300", "1e-300", "5e-324", "1", "0.3"], ["-1e-300"])
_NU = _mostly([repr(-1.0 + 1e-12), repr(0.5 - 1e-12), "0.3", "-0.5",
               "1e-300", "5e-324"], ["1e300"])
_ENDS = ["90", repr(math.nextafter(90.0, 180.0)), "180",
         repr(math.nextafter(180.0, 90.0))]
_PAST = [repr(90.0 - 1e-10), repr(180.0 + 1e-10)]
_ANGLE = _mostly(_ENDS + ["135"], _PAST)
_MODE = st.sampled_from(["ps-sym", "ps-anti", "ap"])


def _flag(name, values):
    return values.map(lambda value: f"--{name}={value}")


def _floats(values, counts):
    """Comma-separated lists of the values, of a length drawn from
    counts."""
    return st.sampled_from(counts).flatmap(
        lambda n: st.lists(values, min_size=n, max_size=n)).map(",".join)


def _material(angle):
    return [_flag("angle-deg", angle), _flag("nu", _NU),
            _flag("mu", _POSITIVE), _flag("c", _POSITIVE)]


# every drawn request asks for little work: at most 5 sweep angles (90
# degrees in steps of 22.5), 3 radii x 5 theta steps and --p-max 6
_REQUESTS = st.one_of(
    st.tuples(st.just("eig"), _flag("mode", _MODE), *_material(_ANGLE),
              _flag("p-max", _mostly(["1.5", "6"], ["1e-300"])),
              _flag("tol", _mostly(["1e-12", "5e-324"], ["1e300"]))),
    st.tuples(st.just("sweep"), _flag("mode", _MODE), _flag("nu", _NU),
              _flag("from", _ANGLE), _flag("to", _ANGLE),
              _flag("step", _mostly(["22.5", "45", "1e300"],
                                    ["5e-324", "-1e300"]))),
    st.tuples(st.just("field"), _flag("mode", _MODE), *_material(_ANGLE),
              _flag("eig-index", st.sampled_from(["0", "1", "2"])),
              _flag("amps", _floats(_AMPS, [1, 1, 1, 2, 2, 3])),
              _flag("r", _floats(_POSITIVE, [1, 2, 3])),
              _flag("theta-steps", st.sampled_from(["2", "5"]))),
    # the crack modes I and II take only 180 degrees
    st.tuples(st.just("equilibrium"), _flag("mode", st.sampled_from(
        ["I", "II"])), *_material(_mostly(["180"], _ENDS[:-1] + _PAST)),
              _flag("amps", _floats(_AMPS, [2, 2, 2, 1, 3])),
              _flag("r0", _POSITIVE)),
    st.tuples(st.just("equilibrium"), _flag("mode", st.sampled_from(
        ["notch-sym", "notch-anti"])), *_material(_ANGLE),
              _flag("amps", _floats(_AMPS, [1, 1, 2, 3])),
              _flag("r0", _POSITIVE)),
).map(list)


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _assert_finite_numbers(text):
    """Every number in `text` is finite: JSON lines parsed strictly, and
    each comma- or space-separated token of the other lines that reads
    as a float."""
    for line in text.splitlines():
        if line.startswith("{"):
            json.loads(line, parse_constant=_reject_constant)
            continue
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), line


@given(_REQUESTS)
@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_extreme_request_ends_cleanly(argv):
    # success with only finite numbers, or one error line: no traceback,
    # no numpy warning, no inf or nan. Exit 2 without an error line is an
    # equilibrium FAIL verdict, a check result printed in full; those the
    # guard draws are false alarms (test_equilibrium_false_alarms)
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", NoSignChange)
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if rc == 0 or (rc == 2 and not err):
        assert rc == 0 or "\nresult: FAIL" in out
        _assert_finite_numbers(out)
    else:
        assert rc in (1, 2)
        assert err.count("error:") == 1 and "Traceback" not in err
        if rc == 1:
            assert out == ""


# balanced fields that the equilibrium check reports as FAIL (exit 2): a
# subnormal mu or amplitude carries too few bits for the balance to hold
# to 1e-8, nu = 1/2 - 1e-12 loses the dilatation's digits to lambda (and
# so do nu = 0.49999 and 0.4999995 at the crack: two requests of the
# benchmark's verify workload), and at r0 = 1e-300 the arc moment's
# r0 * r0 underflows to zero
@pytest.mark.xfail(strict=True, reason="false FAIL at extreme inputs")
@pytest.mark.parametrize("argv", [
    ["--mode", "I", "--angle-deg", "180", "--nu", "0.3",
     "--amps", "1e300,1e300", "--mu", "5e-324"],
    ["--mode", "I", "--angle-deg", "180", "--nu", "0.3",
     "--amps", "5e-324,5e-324", "--mu", "1e300"],
    ["--mode", "notch-sym", "--angle-deg", "135", "--nu", "0.499999999999",
     "--amps", "1", "--r0", "0.3"],
    ["--mode", "notch-anti", "--angle-deg", "90", "--nu", "0.3",
     "--amps", "0,1", "--r0", "1e-300"],
    ["--mode", "notch-sym", "--angle-deg", "180", "--nu",
     "0.4999920484043908", "--amps=1.29128,0.585284", "--r0", "0.3097"],
    ["--mode", "notch-sym", "--angle-deg", "180", "--nu",
     "0.49999948174194225", "--amps=-1.65901,1.86245", "--r0", "2.5881"],
])
def test_equilibrium_false_alarms(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoSignChange)
        rc, out, _ = run(capsys, ["equilibrium", *argv])
    assert rc == 0 and "result: PASS" in out
