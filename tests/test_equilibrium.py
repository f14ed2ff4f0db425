"""Sector force/moment balance: arc resultants vs. corner edge forces."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest

import oracles
from gradnotch import equilibrium
from gradnotch.basis import eigenfield, solution_from_amplitudes
from gradnotch.cli import main
from gradnotch.equilibrium import (QuadratureDisagreement, check_equilibrium,
                                   edge_forces, resultant_on_arc)
from gradnotch.eigensolver import smallest_exponents
from gradnotch.fields import crack_mode_std_amplitudes
from gradnotch.model import MaterialParams, Mode, PolarSeries, WedgeCase


def _crack_field(mode_label, amps, nu, mu=1.0, c=1.0):
    mode = Mode.PLANE_SYM if mode_label == "I" else Mode.PLANE_ANTI
    mat = MaterialParams(nu=nu, mu=mu, c=c)
    case = WedgeCase(half_angle_a=math.pi, mode=mode)
    std = crack_mode_std_amplitudes(mode_label, amps, nu)
    sol = solution_from_amplitudes(case, mat, 1.5, [std])
    return sol.fields[0], mat


def test_mode1_corner_forces_match_closed_form():
    for a1, a2, nu in [(1.0, 0.0, 0.3), (1.1, 0.7, 0.3), (0.4, -0.9, 0.1)]:
        field, mat = _crack_field("I", (a1, a2), nu)
        for r0 in (0.1, 1.0, 2.0):
            corners = edge_forces(field, mat, r0, math.pi)
            want = oracles.corner_force_mode1_radial(a1, a2, nu, r0=r0)
            assert corners.e_r_a == pytest.approx(want, rel=1e-12)
            assert corners.e_r_b == pytest.approx(want, rel=1e-12)
            # symmetric mode: tangential corner components cancel
            assert abs(corners.e_t_a + corners.e_t_b) < 1e-12 * abs(want)


def test_mode1_reference_corner_value():
    field, mat = _crack_field("I", (1.0, 0.0), 0.3)
    corners = edge_forces(field, mat, 1.0, math.pi)
    assert corners.e_r_a == pytest.approx(-7.566878980891720, rel=1e-12)


def test_mode2_corner_forces_match_closed_form():
    for b1, b2, nu in [(1.0, 0.0, 0.3), (0.9, -0.6, 0.25), (0.2, 1.4, 0.0)]:
        field, mat = _crack_field("II", (b1, b2), nu)
        corners = edge_forces(field, mat, 1.0, math.pi)
        want = oracles.corner_force_mode2_tangential(b1, b2, nu)
        assert corners.e_t_a == pytest.approx(want, rel=1e-11)
        # anti-symmetric mode: radial corner components cancel
        scale = abs(want) + 1.0
        assert abs(corners.e_r_a + corners.e_r_b) < 1e-12 * scale


def test_mode1_balance_and_zero_vertical_resultant():
    field, mat = _crack_field("I", (1.1, 0.7), 0.3)
    for r0 in (0.1, 1.0):
        report = check_equilibrium(field, mat, r0, math.pi)
        assert report.passed
        assert abs(report.arc.v) < 1e-12 * report.scale
        assert abs(report.arc.t) < 1e-12 * report.scale * r0


def test_mode2_balance_and_zero_horizontal_resultant():
    field, mat = _crack_field("II", (0.9, -0.6), 0.25)
    for r0 in (0.1, 1.0):
        report = check_equilibrium(field, mat, r0, math.pi)
        assert report.passed
        assert abs(report.arc.h) < 1e-12 * report.scale


def test_arc_resultants_match_independent_quadrature_of_closed_forms():
    a1, a2, nu = 1.1, 0.7, 0.3
    field, mat = _crack_field("I", (a1, a2), nu)
    r0 = 1.3
    arc = resultant_on_arc(field, mat, r0, math.pi)

    def t_x(theta):
        t_rr, t_rt = oracles.mode1_arc_tractions(theta, a1, a2, nu, r0=r0)
        return t_rr * math.cos(theta) - t_rt * math.sin(theta)

    def t_y(theta):
        t_rr, t_rt = oracles.mode1_arc_tractions(theta, a1, a2, nu, r0=r0)
        return t_rr * math.sin(theta) + t_rt * math.cos(theta)

    h_num = r0 * oracles.quad_arc(t_x, math.pi)
    v_num = r0 * oracles.quad_arc(t_y, math.pi)
    assert arc.h == pytest.approx(h_num, rel=1e-10, abs=1e-10)
    assert arc.v == pytest.approx(v_num, rel=1e-10, abs=1e-10)


def test_interior_notch_eigenfield_balances():
    nu = 0.3
    for mode in (Mode.PLANE_SYM, Mode.PLANE_ANTI):
        case = WedgeCase(half_angle_a=math.radians(114.6), mode=mode)
        mat = MaterialParams(nu=nu)
        p = smallest_exponents(case, nu).p
        sol = eigenfield(case, mat, p)
        field = sol.combined_field([1.0, -0.7][:sol.nullity],
                                   include_p1=False)
        for r0 in (0.1, 1.0):
            report = check_equilibrium(field, mat, r0, case.half_angle_a)
            assert report.passed, (mode, r0, report.residuals)


@pytest.mark.parametrize("nu", [-0.9, -0.5])
@pytest.mark.parametrize("label, angle_deg", [
    ("I", 180.0), ("II", 180.0),
    *[(label, angle) for label in ("notch-sym", "notch-anti")
      for angle in (90.0, 135.0, 180.0)]])
def test_negative_poisson_ratio_balances(label, angle_deg, nu):
    # the CLI accepts nu in (-1, 1/2); the crack modes run at 180 deg only
    if label in ("I", "II"):
        field, mat = _crack_field(label, (1.1, 0.7), nu)
    else:
        mode = Mode.PLANE_SYM if label == "notch-sym" else Mode.PLANE_ANTI
        case = WedgeCase(half_angle_a=math.radians(angle_deg), mode=mode)
        mat = MaterialParams(nu=nu)
        sol = eigenfield(case, mat, smallest_exponents(case, nu).p)
        field = sol.combined_field([1.0, -0.7][:sol.nullity],
                                   include_p1=False)
    for r0 in (0.1, 1.0):
        report = check_equilibrium(field, mat, r0, math.radians(angle_deg))
        assert report.passed, (label, angle_deg, nu, r0, report.residuals)


def test_verdict_is_scale_invariant_in_radius():
    field, mat = _crack_field("I", (1.0, 0.0), 0.3)
    verdicts = [check_equilibrium(field, mat, r0, math.pi).passed
                for r0 in (0.01, 1.0)]
    assert verdicts[0] == verdicts[1] is True


def test_material_scaling_propagates_to_corner_forces():
    field, mat = _crack_field("I", (1.0, 0.5), 0.3, mu=2.5, c=0.7)
    corners = edge_forces(field, mat, 1.0, math.pi)
    want = oracles.corner_force_mode1_radial(1.0, 0.5, 0.3, mu=2.5, c=0.7)
    assert corners.e_r_a == pytest.approx(want, rel=1e-12)


def test_antiplane_field_is_rejected():
    case = WedgeCase(half_angle_a=math.pi, mode=Mode.ANTIPLANE_ODD)
    mat = MaterialParams(nu=0.3)
    sol = solution_from_amplitudes(case, mat, 1.5, [(5.0 / 3.0, 1.0)])
    field = sol.fields[0]
    with pytest.raises(ValueError):
        check_equilibrium(field, mat, 1.0, math.pi)
    with pytest.raises(ValueError):
        edge_forces(field, mat, 1.0, math.pi)
    with pytest.raises(ValueError):
        resultant_on_arc(field, mat, 1.0, math.pi)


# ----------------------------------------------------------------------
# Clenshaw-Curtis cross-check quadrature
# ----------------------------------------------------------------------

def _mp_clenshaw_curtis_weights(n):
    """Classical cosine-sum Clenshaw-Curtis weights, in 30 digits."""
    mpmath.mp.dps = 30
    weights = []
    for k in range(n + 1):
        s = 1 - mpmath.fsum(
            (1 if 2 * j == n else 2) / mpmath.mpf(4 * j * j - 1)
            * mpmath.cos(2 * j * k * mpmath.pi / n)
            for j in range(1, n // 2 + 1))
        weights.append((1 if k in (0, n) else 2) * s / n)
    return weights


@pytest.mark.parametrize("n", [64, 128])
def test_clenshaw_curtis_weights_match_cosine_sum_in_mpmath(n):
    _, weights = equilibrium._clenshaw_curtis(n)
    want = _mp_clenshaw_curtis_weights(n)
    assert max(abs(w - float(x)) for w, x in zip(weights, want)) < 1e-16


@pytest.mark.parametrize("n", [64, 128, 4096])
def test_clenshaw_curtis_weights_are_positive_and_sum_to_two(n):
    nodes, weights = equilibrium._clenshaw_curtis(n)
    assert nodes.shape == weights.shape == (n + 1,)
    assert weights.min() > 0.0
    assert abs(weights.sum() - 2.0) < 1e-14


@pytest.mark.parametrize("n", [64, 128, 4096])
def test_clenshaw_curtis_is_exact_on_monomials_up_to_degree_n(n):
    nodes, weights = equilibrium._clenshaw_curtis(n)
    for d in range(n + 1):
        want = float(mpmath.mpf(2) / (d + 1)) if d % 2 == 0 else 0.0
        assert abs(np.dot(weights, nodes**d) - want) < 1e-14, d


@pytest.mark.parametrize("n", [64, 128, 4096])
@pytest.mark.parametrize("a", [math.pi / 2, 3 * math.pi / 4, math.pi])
def test_clenshaw_curtis_integrates_arc_trig_integrands(n, a):
    mpmath.mp.dps = 30
    nodes, weights = equilibrium._clenshaw_curtis(n)
    for k in (0.5, 1.0, 1.7, 2.0, 3.0, 4.25, 5.0, 6.0):
        for trig, mp_trig in ((np.cos, mpmath.cos), (np.sin, mpmath.sin)):
            got = a * np.dot(weights, trig(k * a * nodes))
            want = mpmath.quad(lambda t: mp_trig(k * t), [-a, 0, a])
            assert abs(got - float(want)) < 1e-14, (k, trig)


def test_clenshaw_curtis_rules_are_built_once_and_read_only():
    nodes, weights = equilibrium._clenshaw_curtis(64)
    again = equilibrium._clenshaw_curtis(64)
    assert again[0] is nodes and again[1] is weights
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0.0
    # no rule is built at import
    code = ("import gradnotch.cli, gradnotch.equilibrium as e; "
            "print(e._clenshaw_curtis.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(equilibrium.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "0\n"


def test_clenshaw_curtis_rules_nest_bit_for_bit():
    n = 64
    while n < 4096:
        coarse, _ = equilibrium._clenshaw_curtis(n)
        fine, _ = equilibrium._clenshaw_curtis(2 * n)
        assert np.array_equal(coarse, fine[0::2])
        n *= 2


def _count_eval_points(monkeypatch, series) -> Counter:
    """Points passed to `PolarSeries.eval`, by position in `series`."""
    points = Counter()
    original = PolarSeries.eval

    def counted(self, r, theta):
        for i, s in enumerate(series):
            if s is self:
                points[i] += np.size(theta)
        return original(self, r, theta)
    monkeypatch.setattr(PolarSeries, "eval", counted)
    return points


def test_quad_arc_converging_at_128_evaluates_129_points_per_series(
        monkeypatch):
    field, mat = _crack_field("I", (1.1, 0.7), 0.3)
    integrands = []
    honest = equilibrium._quad_arc

    def recorded(series_list, r0, a):
        integrands.extend(series_list)
        return honest(series_list, r0, a)
    monkeypatch.setattr(equilibrium, "_quad_arc", recorded)
    points = _count_eval_points(monkeypatch, integrands)
    resultant_on_arc(field, mat, 1.3, math.pi)
    assert len(integrands) == 4
    assert [points[i] for i in range(4)] == [129] * 4


def test_quad_arc_doubles_past_128_for_a_fast_integrand(monkeypatch):
    a, r0 = math.pi, 1.0
    series = (PolarSeries.single(1.0, 0.0, 80.0, "cos"),
              PolarSeries.single(0.7, 1.5, 80.3, "cos")
              + PolarSeries.single(-0.2, 1.5, 3.0, "cos"))
    points = _count_eval_points(monkeypatch, series)
    got = equilibrium._quad_arc(series, r0, a)
    assert points[0] > 129 and points[1] > 129
    for s, q in zip(series, got):
        exact = s.integrate_theta(a).eval(r0, 0.0)
        assert abs(q - exact) <= equilibrium._QUAD_RTOL * max(1.0, abs(exact))


def _off_by_a_millionth(monkeypatch):
    honest = equilibrium._quad_arc

    def skewed(series_list, r0, a):
        vals = honest(series_list, r0, a)
        shift = 1e-6 * max(1.0, *(abs(v) for v in vals))
        return (vals[0] + shift,) + vals[1:]
    monkeypatch.setattr(equilibrium, "_quad_arc", skewed)


def test_quadrature_disagreement_is_raised(monkeypatch):
    field, mat = _crack_field("I", (1.1, 0.7), 0.3)
    _off_by_a_millionth(monkeypatch)
    with pytest.raises(QuadratureDisagreement):
        resultant_on_arc(field, mat, 1.0, math.pi)
    with pytest.raises(QuadratureDisagreement):
        check_equilibrium(field, mat, 1.0, math.pi)


def test_cli_reports_quadrature_disagreement_without_traceback(
        monkeypatch, capsys):
    _off_by_a_millionth(monkeypatch)
    rc = main(["equilibrium", "--mode", "I", "--angle-deg", "180",
               "--nu", "0.3", "--amps", "1,0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: arc quadrature failed to converge")
    assert "Traceback" not in captured.err
