"""Derived fields: constitutive pipeline vs. independent closed forms."""

from __future__ import annotations

import math
import random
from collections import Counter

import mpmath
import numpy as np
import pytest

import oracles
from gradnotch import fields
from gradnotch.basis import (attach_p1, eigenfield, solution_from_amplitudes,
                             special_p1_field)
from gradnotch.eigensolver import admissible_eigenvalues
from gradnotch.equilibrium import check_equilibrium, resultant_on_arc
from gradnotch.fields import (ANTIPLANE_FIELD_KEYS, PLANE_FIELD_KEYS,
                              apply_bc_operators, crack_mode_std_amplitudes,
                              crack_reference_fields, dipolar_series,
                              energy_density_series, field_series_map,
                              monopolar_series, strain_series, total_r_series,
                              total_theta_series)
from gradnotch.model import (DisplacementField, MaterialParams, Mode,
                             PolarPoint, WedgeCase)

MAT = MaterialParams(nu=0.3)
POINTS = [(0.7, 0.5), (1.0, -1.3), (1.6, 2.6), (0.4, -2.9)]

GENERAL_CASES = [
    (Mode.PLANE_SYM, 1.62, 0.27, (1.0, -0.6, 0.4, 0.9)),
    (Mode.PLANE_SYM, 2.31, 0.05, (0.3, 1.2, -0.8, 0.5)),
    (Mode.PLANE_ANTI, 1.62, 0.27, (1.0, -0.6, 0.4, 0.9)),
    (Mode.PLANE_ANTI, 2.77, 0.41, (-1.1, 0.2, 0.7, 0.3)),
    (Mode.ANTIPLANE_ODD, 1.62, 0.27, (1.0, -0.6)),
    (Mode.ANTIPLANE_ODD, 2.31, 0.05, (0.3, 1.2)),
]


def _solution(mode, p, nu, amps, mu=1.0, c=1.0):
    angle = math.pi if mode is Mode.ANTIPLANE_ODD else math.pi
    case = WedgeCase(half_angle_a=angle, mode=mode)
    mat = MaterialParams(nu=nu, mu=mu, c=c)
    return solution_from_amplitudes(case, mat, p, [amps]), mat


@pytest.mark.parametrize("mode,p,nu,amps", GENERAL_CASES)
def test_pipeline_matches_independent_closed_forms(mode, p, nu, amps):
    sol, mat = _solution(mode, p, nu, amps)
    field = sol.fields[0]
    pipeline = field_series_map(field, mat)
    reference = oracles.reference_general_series(mode, p, nu, amps, mat)
    for key, ref_series in reference.items():
        pipe_series = pipeline[key]
        scale = max(ref_series.max_abs_coef(), pipe_series.max_abs_coef(),
                    1e-30)
        for r, theta in POINTS:
            got = pipe_series.eval(r, theta)
            want = ref_series.eval(r, theta)
            assert abs(got - want) <= 1e-10 * scale * max(r, 1 / r)**3, (
                f"{key} at ({r}, {theta}): {got} vs {want}")


@pytest.mark.parametrize("mode,p,nu,amps", GENERAL_CASES)
def test_dipolar_stress_is_gradient_coefficient_times_radial_derivative(
        mode, p, nu, amps):
    sol, mat = _solution(mode, p, nu, amps, c=1.7)
    field = sol.fields[0]
    tau = monopolar_series(field, mat)
    dip = dipolar_series(field, mat)
    pairs = ([("m_rrr", "tau_rr"), ("m_rrt", "tau_rt"), ("m_rtt", "tau_tt")]
             if mode.is_plane else
             [("m_rrz", "tau_rz"), ("m_rtz", "tau_tz")])
    for m_key, tau_key in pairs:
        expected = tau[tau_key].dr().scaled(mat.c)
        got = dip[m_key]
        residual = got + expected.scaled(-1.0)
        scale = max(got.max_abs_coef(), expected.max_abs_coef(), 1e-30)
        assert residual.max_abs_coef() <= 1e-12 * scale


@pytest.mark.parametrize("mode,p,nu,amps", GENERAL_CASES[:3])
def test_field_homogeneity_degrees(mode, p, nu, amps):
    sol, mat = _solution(mode, p, nu, amps)
    series = field_series_map(sol.fields[0], mat)
    for key, expected_shift in [("tau", p - 1.0), ("m_", p - 2.0),
                                ("t_", p - 3.0)]:
        for name, s in series.items():
            if not name.startswith(key) or s.is_zero:
                continue
            v1 = s.eval(1.0, 0.37)
            v2 = s.eval(2.0, 0.37)
            if abs(v1) < 1e-12 * s.max_abs_coef():
                continue
            assert v2 == pytest.approx(2.0**expected_shift * v1, rel=1e-12)


def test_out_of_plane_monopolar_component_for_plane_strain():
    sol, mat = _solution(Mode.PLANE_SYM, 1.62, 0.27, (1.0, -0.6, 0.4, 0.9))
    series = field_series_map(sol.fields[0], mat)
    for r, theta in POINTS:
        trace = (series["tau_rr"].eval(r, theta)
                 + series["tau_tt"].eval(r, theta))
        assert series["tau_zz"].eval(r, theta) == pytest.approx(
            mat.nu * trace, rel=1e-12, abs=1e-13)


def test_total_radial_series_rejects_antiplane():
    sol, mat = _solution(Mode.ANTIPLANE_ODD, 1.62, 0.27, (1.0, -0.6))
    with pytest.raises(ValueError):
        total_r_series(sol.fields[0], mat)


# ----------------------------------------------------------------------
# crack closed forms
# ----------------------------------------------------------------------

def _crack_solution(mode_label, amps, nu=0.3, mu=1.0, c=1.0):
    mode = {"I": Mode.PLANE_SYM, "II": Mode.PLANE_ANTI,
            "III": Mode.ANTIPLANE_ODD}[mode_label]
    mat = MaterialParams(nu=nu, mu=mu, c=c)
    case = WedgeCase(half_angle_a=math.pi, mode=mode)
    n_p1 = {"I": 2, "II": 1, "III": 1}[mode_label]
    p1 = oracles.crack_mode_p1_constants(mode_label, amps[:n_p1])
    std = crack_mode_std_amplitudes(mode_label, amps[n_p1:], nu)
    sol = attach_p1(solution_from_amplitudes(case, mat, 1.5, [std]), p1)
    return sol, mat


@pytest.mark.parametrize("mode_label,amps", [
    ("I", (0.3, -0.2, 1.1, 0.7)),
    ("II", (0.4, 0.9, -0.6)),
    ("III", (0.25, 1.3)),
])
def test_crack_reference_fields_match_pipeline(mode_label, amps):
    sol, mat = _crack_solution(mode_label, amps)
    field = sol.combined_field([1.0], include_p1=True)
    series = field_series_map(field, mat)
    plane = mode_label in ("I", "II")
    if plane:
        series.update(total_r_series(field, mat))
    for r, theta in POINTS:
        reference = crack_reference_fields(mode_label, amps, mat,
                                           PolarPoint(r, theta))
        for key, want in reference.items():
            got = series[key].eval(r, theta)
            scale = max(abs(want), series[key].max_abs_coef(), 1.0)
            assert abs(got - want) <= 1e-11 * scale, (
                f"{mode_label} {key} at ({r}, {theta}): {got} vs {want}")


def test_mode1_arc_tractions_match_oracle():
    a1, a2, nu = 1.1, 0.7, 0.3
    sol, mat = _crack_solution("I", (0.0, 0.0, a1, a2), nu=nu)
    field = sol.fields[0]
    total_r = total_r_series(field, mat)
    for r0 in (0.5, 1.0, 2.0):
        for theta in np.linspace(-math.pi, math.pi, 9):
            t_rr, t_rt = oracles.mode1_arc_tractions(theta, a1, a2, nu,
                                                     r0=r0)
            assert total_r["t_rr"].eval(r0, theta) == pytest.approx(
                t_rr, rel=1e-11, abs=1e-12)
            assert total_r["t_rt"].eval(r0, theta) == pytest.approx(
                t_rt, rel=1e-11, abs=1e-12)


def test_mode2_arc_tractions_match_oracle():
    b1, b2, nu = 0.9, -0.6, 0.25
    sol, mat = _crack_solution("II", (0.0, b1, b2), nu=nu)
    field = sol.fields[0]
    total_r = total_r_series(field, mat)
    for theta in np.linspace(-math.pi, math.pi, 9):
        t_rr, t_rt = oracles.mode2_arc_tractions(theta, b1, b2, nu)
        assert total_r["t_rr"].eval(1.0, theta) == pytest.approx(
            t_rr, rel=1e-11, abs=1e-12)
        assert total_r["t_rt"].eval(1.0, theta) == pytest.approx(
            t_rt, rel=1e-11, abs=1e-12)


def test_mode3_total_traction_matches_oracle():
    d_amp, nu = 1.3, 0.3
    sol, mat = _crack_solution("III", (0.0, d_amp), nu=nu)
    field = sol.fields[0]
    t_tz = total_theta_series(field, mat)["t_tz"]
    for r0 in (0.5, 1.0):
        for theta in np.linspace(-math.pi, math.pi, 9):
            want = oracles.mode3_crack_total_traction(theta, d_amp, r0=r0)
            assert t_tz.eval(r0, theta) == pytest.approx(
                want, rel=1e-11, abs=1e-12)
    # spot value: 1.5 * (mu c / 8)(5 + 7) at unit amplitude and radius
    sol1, mat1 = _crack_solution("III", (0.0, 1.0))
    assert total_theta_series(sol1.fields[0], mat1)["t_tz"].eval(
        1.0, 0.0) == pytest.approx(1.5, rel=1e-12)


# ----------------------------------------------------------------------
# finite-difference spot checks and energy density
# ----------------------------------------------------------------------

def test_strains_match_finite_difference_of_displacement():
    sol, mat = _solution(Mode.PLANE_SYM, 1.62, 0.27, (1.0, -0.6, 0.4, 0.9))
    field = sol.fields[0]
    strains = strain_series(field)
    r, theta = 1.2, 0.8
    h = 1e-6
    fd_err = abs(oracles.fd1(lambda x: field.u_r.eval(x, theta), r, h)
                 - strains["eps_rr"].eval(r, theta))
    assert fd_err < 1e-8
    eps_tt_fd = (field.u_r.eval(r, theta)
                 + oracles.fd1(lambda t: field.u_theta.eval(r, t),
                               theta, h)) / r
    assert eps_tt_fd == pytest.approx(strains["eps_tt"].eval(r, theta),
                                      abs=1e-8)


def test_energy_density_is_nonnegative_and_matches_combined_field():
    for mode, p, nu, amps in GENERAL_CASES[:4]:
        sol, mat = _solution(mode, p, nu, amps)
        w_series = field_series_map(sol.fields[0], mat)["W"]
        combined = energy_density_series(sol.combined_field(0), mat)
        for r, theta in POINTS:
            w = w_series.eval(r, theta)
            assert w >= -1e-12 * w_series.max_abs_coef()
            assert combined.eval(r, theta) == pytest.approx(
                w, rel=1e-12, abs=1e-14)


# the fields W is checked on: the first three bracket roots of every mode
# at the interval ends and inside it, with and without a p = 1 part, for
# a material with mu and c away from 1
_W_ANGLES_DEG = (90.0, 90.0001, 135.0, 179.9999, 180.0)
_W_P1 = {Mode.PLANE_SYM: (0.4, -0.2), Mode.PLANE_ANTI: (0.3,),
         Mode.ANTIPLANE_ODD: (0.5,)}


def _w_fields(mode, angle_deg, nu, n_roots=3):
    case = WedgeCase(half_angle_a=math.radians(angle_deg), mode=mode)
    mat = MaterialParams(nu=0.3 if nu is None else nu, mu=1.7, c=0.6)
    ps = [e.p for e in admissible_eigenvalues(case, nu)[1:1 + n_roots]]
    p1 = special_p1_field(mode, _W_P1[mode])
    fields_ = [f for sol in eigenfield(case, mat, np.array(ps))
               if sol is not None for f in sol.fields]
    return case, mat, fields_ + [f + p1 for f in fields_]


def _w_cases(nus):
    for mode in Mode:
        for angle_deg in _W_ANGLES_DEG:
            for nu in (nus if mode.is_plane else (None,)):
                yield mode, angle_deg, nu


@pytest.mark.parametrize("mode,angle_deg,nu",
                         list(_w_cases((-0.9, 0.0, 0.3, 0.4999))))
def test_energy_density_equals_the_material_constants_form(mode, angle_deg,
                                                            nu):
    # W = (tau:eps + m:grad(eps)) / 2 from the stages equals the quadratic
    # form in eps and grad(eps) written with lam, mu and c, to roundoff of
    # max |W| at each radius
    case, mat, fields_ = _w_fields(mode, angle_deg, nu)
    assert fields_
    a = case.half_angle_a
    r = np.array([0.5, 1.0, 2.0])[:, None]
    theta = np.linspace(-a, a, 31)[None, :]
    for field in fields_:
        got = field_series_map(field, mat)["W"].eval(r, theta)
        want = oracles.energy_density_from_strain(
            strain_series(field), mat).eval(r, theta)
        scale = np.max(np.abs(want), axis=1)
        assert np.all(scale > 0.0)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("mode,angle_deg,nu",
                         [case for case in _w_cases((-0.9, 0.4999))
                          if case[1] in (90.0001, 179.9999)])
def test_energy_density_matches_high_precision_form(mode, angle_deg, nu):
    # the same form evaluated at 40 digits on the same strain series
    case, mat, fields_ = _w_fields(mode, angle_deg, nu, n_roots=2)
    a = case.half_angle_a
    thetas = (-a, -0.5 * a, 0.1, 0.7 * a, a)
    with mpmath.workdps(40):
        for field in fields_:
            w = energy_density_series(field, mat)
            eps = strain_series(field)
            for r in (0.5, 2.0):
                want = [oracles.energy_density_from_strain(
                    {k: oracles.MpJet.of_series(s, r, t)
                     for k, s in eps.items()}, mat).v for t in thetas]
                scale = max(abs(x) for x in want)
                for t, ref in zip(thetas, want):
                    assert abs(w.eval(r, t) - ref) <= 1e-13 * scale


def test_series_map_key_order_matches_output_contract():
    sol, mat = _solution(Mode.PLANE_SYM, 1.62, 0.27, (1.0, -0.6, 0.4, 0.9))
    assert tuple(field_series_map(sol.fields[0], mat)) == PLANE_FIELD_KEYS
    sol_ap, mat_ap = _solution(Mode.ANTIPLANE_ODD, 1.62, 0.27, (1.0, -0.6))
    assert tuple(field_series_map(sol_ap.fields[0],
                                  mat_ap)) == ANTIPLANE_FIELD_KEYS


# ----------------------------------------------------------------------
# the stage chain: each stage built once, and the same series either way
# ----------------------------------------------------------------------

_STAGES = ("strain_series", "_monopolar", "_dipolar", "_total_theta",
           "_total_r", "_energy_density", "_polar_gradient")


def _count_stages(monkeypatch) -> Counter:
    calls = Counter()
    for name in _STAGES:
        def counted(*args, _name=name, _stage=getattr(fields, name)):
            calls[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(fields, name, counted)
    return calls


def test_field_series_map_builds_each_stage_once(monkeypatch):
    plane, mat = _solution(*GENERAL_CASES[0], mu=1.3, c=0.7)
    anti, _ = _solution(*GENERAL_CASES[4], mu=1.3, c=0.7)
    calls = _count_stages(monkeypatch)
    field_series_map(plane.fields[0], mat)
    # the polar gradient serves m = c grad(tau) and grad(eps) in W
    assert calls == Counter(strain_series=1, _monopolar=1, _dipolar=1,
                            _total_theta=1, _total_r=1, _energy_density=1,
                            _polar_gradient=2)
    calls.clear()
    field_series_map(anti.fields[0], mat)
    assert calls == Counter(strain_series=1, _monopolar=1, _dipolar=1,
                            _total_theta=1, _energy_density=1,
                            _polar_gradient=2)


def test_face_and_arc_callers_build_the_dipolar_stress_once(monkeypatch):
    sol, mat = _solution(*GENERAL_CASES[0])
    field = sol.fields[0]
    calls = _count_stages(monkeypatch)
    apply_bc_operators(field, mat.nu)
    assert calls["_dipolar"] == 1
    calls.clear()
    resultant_on_arc(field, mat, 1.0, math.pi)
    assert calls["_dipolar"] == 1
    calls.clear()
    check_equilibrium(field, mat, 1.0, math.pi)
    assert calls["_dipolar"] == 1


def test_series_map_components_equal_their_public_stage():
    rng = random.Random(11)
    for mode in Mode:
        for _ in range(3):
            n_amps = 4 if mode.is_plane else 2
            sol, mat = _solution(
                mode, rng.uniform(1.1, 3.9), rng.uniform(-0.9, 0.45),
                tuple(rng.uniform(-1, 1) for _ in range(n_amps)),
                mu=rng.uniform(0.2, 3.0), c=rng.uniform(0.2, 3.0))
            field = sol.fields[0]
            owners = [strain_series(field), monopolar_series(field, mat),
                      dipolar_series(field, mat),
                      total_theta_series(field, mat),
                      {"W": energy_density_series(field, mat)}]
            if mode.is_plane:
                owners.append(total_r_series(field, mat))
            series = field_series_map(field, mat)
            owned = {key: s for owner in owners for key, s in owner.items()}
            displacement = dict(zip(series, field.components()))
            assert set(owned) | set(displacement) == set(series)
            for key, s in {**owned, **displacement}.items():
                assert series[key].terms == s.terms, key
