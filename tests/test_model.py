"""Material parameters, case validation, and solution containers."""

from __future__ import annotations

import math

import pytest

from gradnotch.basis import attach_p1, basis_fields, eigenfield
from gradnotch.model import (ANGLE_SLACK, DisplacementField,
                             MaterialParams, Mode, OutOfRange, PolarSeries,
                             WedgeCase, assemble_field)


def test_lame_constant_from_shear_and_poisson():
    mat = MaterialParams(nu=0.25, mu=2.0)
    assert mat.lam == pytest.approx(2.0 * 2.0 * 0.25 / 0.5, rel=1e-15)
    assert MaterialParams(nu=0.0).lam == 0.0


def test_mode_plane_flags():
    assert Mode.PLANE_SYM.is_plane
    assert Mode.PLANE_ANTI.is_plane
    assert not Mode.ANTIPLANE_ODD.is_plane


def test_mode_flags_are_plain_member_attributes():
    # read per bracket point by the root scanner: stored on each member,
    # not computed by a property on each read
    assert [(m.is_plane, m.sign) for m in Mode] == [
        (True, 1.0), (True, -1.0), (False, -1.0)]
    for mode in Mode:
        assert vars(mode)["is_plane"] is mode.is_plane
        assert type(mode.sign) is float and vars(mode)["sign"] == mode.sign


@pytest.mark.parametrize("nu", [0.5, 0.75, -1.0, -2.0])
def test_validate_rejects_poisson_ratio(nu):
    with pytest.raises(OutOfRange) as info:
        MaterialParams(nu=nu)
    assert (info.value.field_name, info.value.value) == ("nu", nu)


@pytest.mark.parametrize("angle", [0.5, math.pi / 2 - 0.01,
                                   math.pi + 0.01, 4.0])
def test_validate_rejects_half_angle(angle):
    with pytest.raises(OutOfRange) as info:
        WedgeCase(half_angle_a=angle, mode=Mode.PLANE_SYM)
    assert info.value.field_name == "half_angle_a"


@pytest.mark.parametrize("mu,c", [(0.0, 1.0), (-1.0, 1.0),
                                  (1.0, 0.0), (1.0, -0.5)])
def test_validate_rejects_nonpositive_moduli(mu, c):
    with pytest.raises(OutOfRange):
        MaterialParams(nu=0.3, mu=mu, c=c)


@pytest.mark.parametrize("mu,c", [(math.inf, 1.0), (1.0, math.inf),
                                  (math.inf, math.inf), (math.nan, 1.0),
                                  (1.0, math.nan)])
def test_validate_rejects_nonfinite_moduli(mu, c):
    with pytest.raises(OutOfRange, match=r"outside \(0, inf\)"):
        MaterialParams(nu=0.3, mu=mu, c=c)


def test_validate_accepts_full_ranges():
    MaterialParams(nu=0.0)
    for angle in (math.pi / 2, 2.0, math.pi):
        for mode in Mode:
            WedgeCase(half_angle_a=angle, mode=mode)


def test_material_refuses_nu_then_mu_then_c():
    # the first bad value, in this order, is the one reported
    for kwargs, name in (({"nu": 0.5, "mu": -1.0, "c": -1.0}, "nu"),
                         ({"nu": 0.3, "mu": -1.0, "c": -1.0}, "mu"),
                         ({"nu": 0.3, "mu": 1.0, "c": math.nan}, "c")):
        with pytest.raises(OutOfRange) as info:
            MaterialParams(**kwargs)
        assert info.value.field_name == name


def test_wedge_admits_the_angle_slack_and_no_more():
    for end in (math.pi / 2 - ANGLE_SLACK, math.pi + ANGLE_SLACK):
        WedgeCase(half_angle_a=end, mode=Mode.ANTIPLANE_ODD)
    for past in (math.pi / 2 - 2 * ANGLE_SLACK, math.pi + 2 * ANGLE_SLACK,
                 math.nan):
        with pytest.raises(OutOfRange, match=r"outside \[pi/2, pi\]"):
            WedgeCase(half_angle_a=past, mode=Mode.ANTIPLANE_ODD)
    with pytest.raises(OutOfRange) as info:
        WedgeCase(half_angle_a=2.0, mode="plane-sym")
    assert info.value.field_name == "mode"


def test_field_addition_requires_matching_mode():
    s = PolarSeries.single(1.0, 1.5, 0.5, "cos")
    plane = DisplacementField.plane(Mode.PLANE_SYM, s, s)
    anti = DisplacementField.antiplane(s)
    with pytest.raises(ValueError):
        plane + anti


def test_antiplane_field_has_single_component():
    s = PolarSeries.single(1.0, 1.5, 1.5, "sin")
    field = DisplacementField.antiplane(s)
    assert field.components() == (s,)


def test_combined_field_index_equals_unit_coefficients():
    case = WedgeCase(half_angle_a=math.pi, mode=Mode.PLANE_SYM)
    sol = eigenfield(case, MaterialParams(nu=0.3), 1.5)
    assert sol.nullity == 2
    by_index = sol.combined_field(1, include_p1=False)
    by_coeff = sol.combined_field([0.0, 1.0], include_p1=False)
    for r, theta in [(0.7, 0.4), (1.3, -2.0)]:
        assert by_index.u_r.eval(r, theta) == pytest.approx(
            by_coeff.u_r.eval(r, theta), rel=1e-14, abs=1e-15)
        assert by_index.u_theta.eval(r, theta) == pytest.approx(
            by_coeff.u_theta.eval(r, theta), rel=1e-14, abs=1e-15)


def test_combined_field_rejects_wrong_coefficient_count():
    case = WedgeCase(half_angle_a=math.pi, mode=Mode.ANTIPLANE_ODD)
    sol = eigenfield(case, MaterialParams(nu=0.3), 1.5)
    with pytest.raises(ValueError):
        sol.combined_field([1.0, 2.0], include_p1=False)


def _terms(fields):
    return [[comp.terms for comp in f.components()] for f in fields]


def test_assemble_field_equals_scaling_and_adding_one_by_one():
    # one canonical pass over all scaled terms gives the same series as
    # scaling each member and adding the results in turn
    for mode, p in [(Mode.PLANE_SYM, 1.5), (Mode.PLANE_SYM, 2.0),
                    (Mode.PLANE_ANTI, 2.7), (Mode.ANTIPLANE_ODD, 1.5)]:
        members, _ = basis_fields(WedgeCase(2.5, mode), p, 0.3)
        coeffs = [0.3, -1.7, 0.25, 1.1][:len(members)]
        combined = assemble_field(mode, _terms(members), coeffs)
        assert combined.mode is mode
        for i, comp in enumerate(combined.components()):
            want = PolarSeries()
            for k, member in zip(coeffs, members):
                want = want + member.components()[i].scaled(k)
            assert comp.terms == want.terms
    # no member is the zero field of the mode
    for mode in Mode:
        empty = assemble_field(mode, (), ())
        assert empty.mode is mode and empty.is_zero


def test_fields_are_built_once_and_survive_attach_p1():
    case = WedgeCase(half_angle_a=math.pi, mode=Mode.PLANE_SYM)
    sol = eigenfield(case, MaterialParams(nu=0.3), 1.5)
    assert "fields" not in vars(sol)
    fields = sol.fields
    assert sol.fields is fields
    assert sol.nullity == len(sol.amplitudes) == len(fields) == 2
    with_p1 = attach_p1(sol, (0.4, -0.2))
    assert sol.p1_field is None
    assert with_p1.p1_field == DisplacementField.plane(
        Mode.PLANE_SYM, PolarSeries.single(0.4, 1.0, 0.0, "cos")
        + PolarSeries.single(-0.2, 1.0, 2.0, "cos"),
        PolarSeries.single(0.2, 1.0, 2.0, "sin"))
    assert with_p1.amplitudes == sol.amplitudes
    assert [[c.terms for c in f.components()] for f in with_p1.fields] \
        == _terms(fields)
