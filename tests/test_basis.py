"""Basis members, face-condition matrix, and null-space extraction."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import oracles
from gradnotch import basis, model
from gradnotch.basis import (EmptyNullSpace, apply_bc_operators,
                             basis_fields, bc_det, bc_matrix, eigenfield,
                             null_space, singular_ratio,
                             solution_from_amplitudes, special_p1_field,
                             special_p1_solution, third_member_ratio)
from gradnotch.eigensolver import RootScanOptions, find_roots
from gradnotch.fields import face_rows
from gradnotch.model import MaterialParams, Mode, WedgeCase

MAT = MaterialParams(nu=0.3)


def _case(angle, mode):
    return WedgeCase(half_angle_a=angle, mode=mode)


# ----------------------------------------------------------------------
# basis members
# ----------------------------------------------------------------------

def test_third_member_coupling_ratio():
    assert third_member_ratio(1.5, 0.3) == pytest.approx(
        (1.5 + 5 - 8 * 0.3) / (1.5 - 7 + 8 * 0.3), rel=1e-15)
    for p, nu in [(1.5, 0.3), (2.7, 0.1), (1.9, 0.45)]:
        assert third_member_ratio(p, nu) == pytest.approx(
            oracles.utheta_ratio(p, nu), rel=1e-14)


def test_plane_sym_members_carry_expected_angular_content():
    p, nu = 1.5, 0.3
    members, kept = basis_fields(_case(math.pi, Mode.PLANE_SYM), p, nu)
    assert kept == (0, 1, 2, 3)
    assert len(members) == 4
    r, theta = 1.3, 0.6
    k = third_member_ratio(p, nu)
    expected_u_r = [
        r**p * math.cos((p - 1) * theta),
        r**p * math.cos((p + 1) * theta),
        r**p * math.cos((p - 3) * theta),
        0.0,
    ]
    expected_u_t = [
        0.0,
        -r**p * math.sin((p + 1) * theta),
        -k * r**p * math.sin((p - 3) * theta),
        r**p * math.sin((p - 1) * theta),
    ]
    for member, u_r, u_t in zip(members, expected_u_r, expected_u_t):
        assert member.u_r.eval(r, theta) == pytest.approx(u_r, abs=1e-13)
        assert member.u_theta.eval(r, theta) == pytest.approx(u_t, abs=1e-13)


def test_plane_anti_members_swap_parity():
    p, nu = 1.5, 0.3
    members, _ = basis_fields(_case(math.pi, Mode.PLANE_ANTI), p, nu)
    r, theta = 1.1, 0.8
    k = third_member_ratio(p, nu)
    assert members[0].u_r.eval(r, theta) == pytest.approx(
        r**p * math.sin((p - 1) * theta), abs=1e-13)
    assert members[2].u_theta.eval(r, theta) == pytest.approx(
        k * r**p * math.cos((p - 3) * theta), abs=1e-13)
    assert members[3].u_theta.eval(r, theta) == pytest.approx(
        r**p * math.cos((p - 1) * theta), abs=1e-13)


def test_antiplane_members():
    p = 1.5
    members, kept = basis_fields(_case(math.pi, Mode.ANTIPLANE_ODD), p)
    assert kept == (0, 1)
    r, theta = 1.7, -0.9
    assert members[0].w.eval(r, theta) == pytest.approx(
        r**p * math.sin(p * theta), abs=1e-13)
    assert members[1].w.eval(r, theta) == pytest.approx(
        r**p * math.sin((p - 2) * theta), abs=1e-13)


def test_antiplane_second_member_degenerates_at_two():
    members, kept = oracles.basis_members(Mode.ANTIPLANE_ODD, 2.0, None,
                                          keep_zero=True)
    assert kept == (0, 1)
    assert members[1].is_zero and not members[0].is_zero
    members, kept = basis_fields(_case(math.pi / 2, Mode.ANTIPLANE_ODD), 2.0)
    assert kept == (0,)
    assert len(members) == 1


def test_pole_exponent_keeps_members_finite():
    nu = 0.3
    pole = 7.0 - 8.0 * nu  # 4.6
    members, _ = basis_fields(_case(2.2, Mode.PLANE_SYM), pole, nu)
    for member in members:
        for series in member.components():
            assert all(math.isfinite(t.coef) for t in series.terms)
    matrices, scales = bc_matrix(_case(2.2, Mode.PLANE_SYM), np.array([pole]),
                                 nu)
    assert np.all(np.isfinite(matrices)) and np.all(np.isfinite(scales))


# ----------------------------------------------------------------------
# face-condition matrix and null space
# ----------------------------------------------------------------------

def test_bc_matrix_shapes_and_scales():
    ps = np.array([1.7, 2.9, 3.4])
    matrices, scales = bc_matrix(_case(2.5, Mode.PLANE_SYM), ps, 0.3)
    assert matrices.shape == (3, 4, 4) and scales.shape == (3, 4)
    assert np.all(scales > 0)
    matrices, scales = bc_matrix(_case(2.5, Mode.ANTIPLANE_ODD), ps, 0.3)
    assert matrices.shape == (3, 2, 2) and scales.shape == (3, 2)


def _pipeline_system(case, p, nu):
    """Face-condition matrix and column scales of every basis member,
    built through the series pipeline: the operators evaluated at
    (r, theta) = (1, a), each column scaled by its largest coefficient."""
    members, _ = oracles.basis_members(case.mode, p, nu, keep_zero=True)
    matrix = np.zeros((4 if case.mode.is_plane else 2, len(members)))
    scales = np.zeros(len(members))
    for j, member in enumerate(members):
        ops = apply_bc_operators(member, nu)
        for i, series in enumerate(ops):
            matrix[i, j] = series.eval(1.0, case.half_angle_a)
        scales[j] = max(series.max_abs_coef() for series in ops)
    return matrix, scales


def _assert_matches_pipeline(case, p, nu):
    matrices, col_scales = bc_matrix(case, np.array([p]), nu)
    matrix, scales = _pipeline_system(case, p, nu)
    label = f"{case.mode.value} a={case.half_angle_a!r} p={p!r} nu={nu!r}"
    assert matrices[0].shape == matrix.shape, label
    # 1e-12 leaves room for the pipeline's own roundoff, which grows like
    # ulp * lambda / mu as nu nears 1/2
    assert np.all(np.abs(matrices[0] - matrix) <= 1e-12 * scales), label
    assert np.all(np.abs(col_scales[0] - scales) <= 1e-12 * scales), label


def test_closed_form_face_matrix_matches_pipeline_at_random_cases():
    rng = random.Random(20261018)
    for _ in range(300):
        mode = rng.choice(list(Mode))
        case = _case(rng.uniform(math.pi / 2, math.pi), mode)
        _assert_matches_pipeline(case, rng.uniform(1.0, 12.0),
                                 rng.uniform(-0.9, 0.5))


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("angle", [math.pi / 2, math.pi])
@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.4999])
def test_closed_form_face_matrix_matches_pipeline_at_degenerate_cases(
        mode, angle, nu):
    # p = 2: total tractions vanish, the anti-plane second member is a
    # zero column; p = 3: the plane third member has a sin(0 theta)
    # part; p near 7 - 8 nu: the third member is pole-rescaled
    for p in (1.5, 2.0, 3.0, 4.2, 7.0 - 8.0 * nu + 3e-7):
        _assert_matches_pipeline(_case(angle, mode), p, nu)


@pytest.mark.parametrize("mode", [Mode.PLANE_SYM, Mode.PLANE_ANTI])
def test_closed_form_face_matrix_holds_digits_as_nu_nears_half(mode):
    # As nu nears 1/2 the pipeline multiplies roundoff in the dilatation
    # by lambda / mu (5e3 at nu = 0.4999): just below the pole it is off
    # by 2.2e-12 of a column's scale. The closed form has no such
    # amplification; check it against its own 40-digit evaluation.
    mp = pytest.importorskip("mpmath")
    nu = 0.4999
    p = 7.0 - 8.0 * nu - 5e-7
    case = _case(math.pi / 2, mode)
    matrices, scales = bc_matrix(case, np.array([p]), nu)
    with mp.workdps(40):
        exact = face_rows(mode, np.array([mp.mpf(p)], dtype=object),
                          mp.mpf(nu))
        for i, kind in enumerate(exact.kinds):
            trig = mp.sin if kind == "sin" else mp.cos
            for j in range(4):
                angle = exact.freq[0, j] * case.half_angle_a
                want = exact.coef[0, i, j] * trig(angle)
                assert abs(matrices[0, i, j] - want) <= 1e-15 * scales[0, j]
    for j in range(4):
        scale = max(abs(exact.coef[0, i, j]) for i in range(4))
        assert abs(scales[0, j] - scale) <= 1e-15 * scale


def test_degenerate_face_matrix_columns():
    # every member has a column, the zero one included; the kept members
    # are a choice of columns
    anti = _case(math.pi / 2, Mode.ANTIPLANE_ODD)
    (matrix,), (scales,) = bc_matrix(anti, np.array([2.0]), 0.3)
    assert matrix.shape == (2, 2)
    assert scales[1] == 0.0 and np.all(matrix[:, 1] == 0.0)
    assert basis_fields(anti, 2.0, 0.3)[1] == (0,)
    # at p = 3 the third member's sin(0 theta) rows leave its scale to
    # the cos(0 theta) rows, whose entries are their coefficients
    (sym,), (scales,) = bc_matrix(_case(2.5, Mode.PLANE_SYM), np.array([3.0]),
                                  0.3)
    assert sym[0, 2] == 0.0 and sym[3, 2] == 0.0
    assert scales[2] == max(abs(sym[1, 2]), abs(sym[2, 2]))


@pytest.mark.parametrize("mode", list(Mode))
def test_bc_det_over_an_array_equals_scalar_calls(mode):
    grid = np.linspace(1.001, 4.0, 601)
    for angle in (math.pi / 2, 2.3, math.pi):
        case = _case(angle, mode)
        batch = bc_det(case, grid, 0.3)
        assert isinstance(batch, np.ndarray) and batch.shape == grid.shape
        for p, det in zip(grid, batch):
            scalar = bc_det(case, float(p), 0.3)
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(det, rel=1e-14, abs=0.0)


def test_face_determinant_builds_no_series(monkeypatch):
    built = []
    canonical = model._canonical

    def counting(raw_terms):
        built.append(raw_terms)
        return canonical(raw_terms)

    monkeypatch.setattr(model, "_canonical", counting)
    case = _case(2.2, Mode.PLANE_SYM)
    bc_det(case, np.linspace(1.1, 3.9, 50), 0.3)
    bc_det(case, 1.7, 0.3)
    assert built == []


def test_singular_ratio_collapses_exactly_at_roots():
    for mode, nu in [(Mode.PLANE_SYM, 0.3), (Mode.PLANE_ANTI, 0.2),
                     (Mode.ANTIPLANE_ODD, 0.3)]:
        case = _case(2.2, mode)
        roots = find_roots(case, None if mode is Mode.ANTIPLANE_ODD else nu)
        for root in roots[:2]:
            assert singular_ratio(case, root, nu) < 1e-8
        assert singular_ratio(case, roots[0] + 0.13, nu) > 1e-4


def _members_and_null_vectors(case, p, nu, keep_zero=False):
    """(members, kept, vectors) at one exponent: the kept basis members
    (every member, from the literal oracle, with keep_zero) and the null
    vectors of their face system, from a one-exponent bc_matrix stack cut
    to their columns and one null_space call."""
    if keep_zero:
        members, kept = oracles.basis_members(case.mode, p, nu, keep_zero)
    else:
        members, kept = basis_fields(case, p, nu)
    matrices, scales = bc_matrix(case, np.array([p]), nu)
    cols = list(kept)
    return members, kept, null_space(matrices[:, :, cols],
                                     scales[:, cols])[0]


def test_null_space_vectors_are_normalized():
    _, _, vectors = _members_and_null_vectors(_case(math.pi, Mode.PLANE_SYM),
                                              1.5, 0.3)
    assert len(vectors) == 2
    for vec in vectors:
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
        assert vec[np.argmax(np.abs(vec))] > 0


def test_crack_plane_nullities_are_two():
    for mode in (Mode.PLANE_SYM, Mode.PLANE_ANTI):
        sol = eigenfield(_case(math.pi, mode), MAT, 1.5)
        assert sol.nullity == 2
        assert sol.kind == "bracket_root"
        assert len(sol.amplitudes) == 2
        assert len(sol.fields) == 2
        assert not any(f.is_zero for f in sol.fields)


def test_crack_antiplane_null_vector_is_five_to_three():
    sol = eigenfield(_case(math.pi, Mode.ANTIPLANE_ODD), MAT, 1.5)
    assert sol.nullity == 1
    amp = np.asarray(sol.amplitudes[0])
    expected = np.array([5.0, 3.0]) / math.sqrt(34.0)
    assert np.max(np.abs(amp - expected)) < 1e-9


def test_nonroot_exponent_has_no_eigenfield():
    with pytest.raises(EmptyNullSpace):
        eigenfield(_case(math.pi, Mode.PLANE_SYM), MAT, 1.7)


def test_plane_null_direction_at_two_is_filtered_to_real_fields():
    # At p = 2 one plane member is a combination of two others; it is
    # dropped from the basis, so no zero-field direction can reach the
    # null space and only genuine fields are returned.
    sol = eigenfield(_case(math.pi / 2, Mode.PLANE_SYM), MAT, 2.0)
    assert sol.nullity >= 1
    for field in sol.fields:
        assert not field.is_zero


def test_plane_degree_two_family_has_zero_total_stress_at_any_angle():
    # Both total-traction operators annihilate every degree-2 plane
    # member, so a one-parameter face-condition solution with identically
    # zero total stresses survives at every angle, not just where the
    # characteristic bracket vanishes.
    from gradnotch.fields import dipolar_series, total_theta_series

    sol = eigenfield(_case(2.2, Mode.PLANE_SYM), MAT, 2.0)
    assert sol.nullity == 1
    field = sol.fields[0]
    assert not field.is_zero
    dip_scale = max(s.max_abs_coef()
                    for s in dipolar_series(field, MAT).values())
    for series in total_theta_series(field, MAT).values():
        assert series.max_abs_coef() <= 1e-14 * dip_scale


# ----------------------------------------------------------------------
# zero-field filter and the reported basis
# ----------------------------------------------------------------------

_PLANE_MODES = (Mode.PLANE_SYM, Mode.PLANE_ANTI)


def _material(mode, nu):
    return MaterialParams(nu=0.0 if mode is Mode.ANTIPLANE_ODD else nu)


def _filter_cases():
    """(case, material, p): every root of a seeded case set (all modes;
    90, 135, 180 degrees, just inside both ends, interior angles), p = 2
    at 50 angles on plane modes, and one random non-root p per case."""
    rng = random.Random(20261019)
    angles = [90.0, 90.0001, 135.0, 179.9999, 180.0]
    angles += [rng.uniform(91.0, 179.0) for _ in range(6)]
    for mode in Mode:
        nus = [0.3] if mode is Mode.ANTIPLANE_ODD else [0.0, 0.3, 0.49, -0.5]
        for angle in angles:
            for nu in nus:
                case = _case(math.radians(angle), mode)
                material = _material(mode, nu)
                roots = find_roots(case, None if mode is Mode.ANTIPLANE_ODD
                                   else nu)
                for p in roots:
                    yield case, material, p
                p = rng.uniform(1.05, 4.0)
                if all(abs(p - root) > 1e-3 for root in roots):
                    yield case, material, p
    for mode in _PLANE_MODES:
        for angle in np.linspace(90.0, 180.0, 50):
            yield (_case(math.radians(angle), mode),
                   MaterialParams(nu=rng.uniform(-0.9, 0.5)), 2.0)


def test_exact_zero_field_filter_matches_sampling_oracle():
    checked = 0
    for case, material, p in _filter_cases():
        label = (f"{case.mode.value} a={case.half_angle_a!r} "
                 f"nu={material.nu!r} p={p!r}")
        members, _, vectors = _members_and_null_vectors(case, p, material.nu)
        a = case.half_angle_a
        want = oracles.sampled_zero_field_filter(members, vectors, a)
        try:
            sol = eigenfield(case, material, p)
        except EmptyNullSpace:
            assert want == [], label
            continue
        assert sol.nullity == len(want), label
        samples = oracles.member_samples(members, a)
        got = samples @ np.array(sol.amplitudes).T
        assert oracles.largest_principal_angle(
            got, samples @ np.column_stack(want)) <= 1e-12, label
        checked += 1
    assert checked > 500


def _assert_spans_sampled_filter(sol, members, vectors, a, tol, label):
    """sol's fields span what the sampled zero-field filter keeps of the
    given null vectors over members: equal nullity, and principal angle
    at most tol on member samples."""
    want = oracles.sampled_zero_field_filter(members, vectors, a)
    assert (0 if sol is None else sol.nullity) == len(want), label
    if want:
        got = oracles.member_samples(sol.fields, a)
        assert oracles.largest_principal_angle(
            got, oracles.member_samples(members, a)
            @ np.column_stack(want)) <= tol, label


@pytest.mark.parametrize("mode", _PLANE_MODES)
@pytest.mark.parametrize("nu", [-0.9, 0.0, 0.3, 0.4999])
def test_coinciding_third_member_is_dropped_within_key_tol(mode, nu):
    # the third plane member is dropped where its frequency p - 3 merges
    # with -(p - 1) (p = 2) or -(p + 1) (p = 1) under KEY_TOL = 1e-9
    material = MaterialParams(nu=nu)
    near_two = [2.0, 2.0 + 2e-10, 2.0 - 2e-10, 2.0 + 4.9e-10, 2.0 - 4.9e-10]
    near_one = [1.0 + 2e-11, 1.0 + 4.9e-10]
    for angle in (90.0, 112.5, 135.0, 157.5, 180.0):
        case = _case(math.radians(angle), mode)
        a = case.half_angle_a
        for p in near_two + near_one:
            label = f"{mode.value} {angle} nu={nu!r} p={p!r}"
            members, kept, vectors = _members_and_null_vectors(case, p, nu)
            assert 2 not in kept, label
            try:
                sol = eigenfield(case, material, p)
            except EmptyNullSpace:
                sol = None
            # no null direction of the kept members is a zero field
            _assert_spans_sampled_filter(sol, members, vectors, a, 1e-12,
                                         label)
            if p in near_two:
                # and they span what the filter keeps of all four members'
                # null space; off p = 2 the dropped member differs from
                # its combination by O(p - 2), up to 330 |p - 2| in angle
                # at nu = 0.4999
                every, _, vectors = _members_and_null_vectors(
                    case, p, nu, keep_zero=True)
                _assert_spans_sampled_filter(
                    sol, every, vectors, a, 1e-12 + 1e3 * abs(p - 2.0),
                    label)
        for p in (2.0 + 6e-10, 2.0 - 6e-10):
            # outside KEY_TOL the member stays and every null direction
            # is reported, as the coefficient-level filter reported it
            label = f"{mode.value} {angle} nu={nu!r} p={p!r}"
            _, kept, vectors = _members_and_null_vectors(case, p, nu)
            assert kept == (0, 1, 2, 3), label
            sol = eigenfield(case, material, p)
            assert sol.nullity == len(vectors), label
            assert oracles.largest_principal_angle(
                np.array(sol.amplitudes).T,
                np.column_stack(vectors)) <= 1e-12, label


def test_eigenfield_evaluates_no_series(monkeypatch):
    calls = []
    evaluate = model.PolarSeries.eval

    def counting(self, r, theta):
        calls.append((r, theta))
        return evaluate(self, r, theta)

    monkeypatch.setattr(model.PolarSeries, "eval", counting)
    for mode in Mode:
        case = _case(math.pi, mode)
        for p in (1.5, 2.0, 2.5):
            eigenfield(case, MAT, p)
    for mode in _PLANE_MODES:
        eigenfield(_case(2.2, mode), MAT, 2.0)
    assert calls == []


def test_nullity_one_amplitudes_are_the_normalized_null_vector():
    # the one surviving direction is the null vector itself, normalized
    # once more as eigenfield always has: the same bits as before the
    # exact filter
    checked = 0
    for mode in Mode:
        nu = 0.0 if mode is Mode.ANTIPLANE_ODD else 0.3
        for angle in (1.7, 2.2, 2.9):
            case = _case(angle, mode)
            for p in find_roots(case, None if mode is Mode.ANTIPLANE_ODD
                                else nu):
                sol = eigenfield(case, MaterialParams(nu=nu), p)
                _, _, vectors = _members_and_null_vectors(case, p, nu)
                if sol.nullity != 1 or len(vectors) != 1:
                    continue
                v = vectors[0] / np.linalg.norm(vectors[0])
                assert sol.amplitudes[0] == tuple(float(x) for x in v)
                checked += 1
    assert checked >= 20


# ----------------------------------------------------------------------
# the array form of eigenfield, against the per-root route
# ----------------------------------------------------------------------

def _field_bits(field):
    """Every term of a field's components, floats as hex."""
    return tuple(tuple((t.coef.hex(), float(t.r_exp).hex(),
                        float(t.freq).hex(), t.kind) for t in comp.terms)
                 for comp in field.components())


def _solved_bits(amplitudes, fields):
    """Amplitude vectors and every field term, floats as hex."""
    return (tuple(tuple(float(x).hex() for x in v) for v in amplitudes),
            tuple(map(_field_bits, fields)))


def _bits(sol):
    """Everything an eigensolution reports, floats as hex: kind, p,
    nullity, amplitudes and every field term (None for no eigenfield)."""
    if sol is None:
        return None
    return (sol.kind, float(sol.p).hex(), sol.nullity,
            _solved_bits(sol.amplitudes, sol.fields))


_EDGE_ANGLES = (90.0, 90.0001, 135.0, 179.9999, 180.0)
_EDGE_NUS = (-0.9, -0.5, 0.0, 0.3, 0.4999)


def test_array_eigenfield_matches_per_root_route_bit_for_bit():
    # every root up to p = 12, plus p = 2 (plane: third member dropped;
    # anti-plane: second member zero), the plane pole 7 - 8 nu and the
    # midpoint of the first two roots, so each stack mixes kept patterns,
    # rescaled third members and empty null spaces
    options = RootScanOptions(p_max=12.0)
    cases = mixed = empty = compared = 0
    for mode in Mode:
        nus = [0.0] if mode is Mode.ANTIPLANE_ODD else _EDGE_NUS
        for angle in _EDGE_ANGLES:
            for nu in nus:
                case = _case(math.radians(angle), mode)
                material = MaterialParams(nu=nu)
                roots = find_roots(case, None if mode is Mode.ANTIPLANE_ODD
                                   else nu, options)
                ps = [1.0] + roots + [2.0, 0.5 * (roots[0] + roots[1])]
                if mode.is_plane:
                    ps.append(7.0 - 8.0 * nu)
                sols = eigenfield(case, material, np.array(ps))
                cases += 1
                assert len(sols) == len(ps)
                patterns = {basis._kept_terms(mode, p, nu)[0] for p in ps}
                mixed += len(patterns) > 1
                for p, sol in zip(ps, sols):
                    label = f"{mode.value} {angle} nu={nu!r} p={p!r}"
                    want = oracles.eigenfield_per_root(case, material, p)
                    assert (sol is None) == (want is None), label
                    if sol is not None:
                        assert sol.kind == ("special_p1" if p == 1.0
                                            else "bracket_root"), label
                        assert sol.p == p, label
                        assert _solved_bits(sol.amplitudes, sol.fields) \
                            == _solved_bits(*want), label
                    empty += sol is None
                    compared += 1
    assert compared > 1000 and empty >= 60 and mixed == cases == 55


def test_scalar_eigenfield_is_the_array_entry():
    for mode in Mode:
        for angle in _EDGE_ANGLES:
            case = _case(math.radians(angle), mode)
            nu = None if mode is Mode.ANTIPLANE_ODD else 0.3
            ps = [1.0] + find_roots(case, nu) + [2.0, 1.2345]
            sols = eigenfield(case, MAT, np.array(ps))
            for p, sol in zip(ps, sols):
                if sol is None:
                    with pytest.raises(EmptyNullSpace):
                        eigenfield(case, MAT, p)
                else:
                    assert _bits(eigenfield(case, MAT, p)) == _bits(sol)
    assert eigenfield(_case(math.pi, Mode.PLANE_SYM), MAT,
                      np.array([])) == []


def _predicate_exponents(mode, nu):
    ps = [1.0 + 2e-11, 1.0 + 4.9e-10, 3.0]
    if mode is Mode.ANTIPLANE_ODD:
        return ps + [2.0, 0.0]
    pole = 7.0 - 8.0 * nu
    return ps + [2.0 + d for d in (0.0, 4.9e-10, -4.9e-10, 6e-10, -6e-10)] \
        + [pole, pole + 3e-7, pole - 3e-7]


@pytest.mark.parametrize("mode", list(Mode))
def test_term_table_and_kept_predicate_reproduce_the_literal_members(mode):
    # the kept predicate reads the term table only; both must give the
    # members and kept indices of the basis written out as series
    seen = set()
    for nu in _EDGE_NUS:
        for p in _predicate_exponents(mode, nu):
            label = f"{mode.value} nu={nu!r} p={p!r}"
            members, kept = oracles.basis_members(mode, p, nu)
            got, got_kept = basis_fields(_case(math.pi, mode), p, nu)
            assert got_kept == kept, label
            assert list(map(_field_bits, got)) == \
                list(map(_field_bits, members)), label
            # every member of the table, the dropped ones included
            every, _ = oracles.basis_members(mode, p, nu, keep_zero=True)
            table = basis._member_terms(mode, p, nu)
            assert [_field_bits(model.assemble_field(mode, (m,), (1.0,)))
                    for m in table] == list(map(_field_bits, every)), label
            seen.add(kept)
    # next to p = 1 the plane member with frequency p - 1 in its sin
    # component is the zero field too
    assert seen == {Mode.PLANE_SYM: {(0, 1, 2, 3), (0, 1, 3), (0, 1)},
                    Mode.PLANE_ANTI: {(0, 1, 2, 3), (0, 1, 3), (1, 3)},
                    Mode.ANTIPLANE_ODD: {(0, 1), (0,), (1,)}}[mode]


def _pivots(rows):
    return [int(np.flatnonzero(np.abs(row) > basis._PIVOT_TOL)[0])
            for row in rows]


def _assert_echelon(rows):
    pivots = _pivots(rows)
    assert pivots == sorted(set(pivots))
    for i, (row, j) in enumerate(zip(rows, pivots)):
        assert np.linalg.norm(row) == pytest.approx(1.0, rel=1e-14)
        assert row[j] > 0.0
        # left of its pivot a row holds roundoff only
        assert np.all(np.abs(row[:j]) <= 1e-13)
        assert all(rows[k][j] == 0.0 for k in range(len(rows)) if k != i)


def _nullity_two_roots(nus):
    for mode in Mode:
        for angle in (90.0, 135.0, 180.0):
            for nu in ([0.0] if mode is Mode.ANTIPLANE_ODD else nus):
                case = _case(math.radians(angle), mode)
                material = _material(mode, nu)
                for p in find_roots(case, None if mode is Mode.ANTIPLANE_ODD
                                    else nu):
                    sol = eigenfield(case, material, p)
                    if sol.nullity >= 2:
                        yield case, material, p, sol


def test_nullity_two_basis_is_reduced_echelon_of_the_null_span():
    # at 180 degrees and nu = 0.3744 the crack null space holds the first
    # member only at ~1e-4: small, but a pivot all the same
    nus = [0.3744199030137237] + list(np.linspace(-0.95, 0.49, 9))
    seen = 0
    for case, material, p, sol in _nullity_two_roots(nus):
        rows = np.array(sol.amplitudes)
        _assert_echelon(rows)
        _, _, vectors = _members_and_null_vectors(case, p, material.nu)
        assert oracles.largest_principal_angle(
            rows.T, np.column_stack(vectors)) <= 1e-12
        seen += 1
    assert seen >= 10


def test_nullity_two_basis_is_stable_under_one_ulp_in_p():
    # the null vectors are rotated by roundoff within their span; the
    # echelon basis depends on the span only
    worst, seen = 0.0, 0
    for case, material, p, sol in _nullity_two_roots([0.0, 0.25, 0.3,
                                                     0.49]):
        for moved in (np.nextafter(p, np.inf), np.nextafter(p, -np.inf)):
            other = eigenfield(case, material, float(moved))
            assert other.nullity == sol.nullity
            worst = max(worst, float(np.max(np.abs(
                np.array(other.amplitudes) - np.array(sol.amplitudes)))))
            seen += 1
    assert seen >= 40
    assert worst <= 1e-9


def test_echelon_basis_depends_on_the_span_only():
    rng = np.random.default_rng(7)
    for shape in ((4, 2), (4, 3), (2, 2)):
        span = rng.standard_normal(shape)
        mixed = span @ rng.standard_normal((shape[1], shape[1]))
        rows = basis._echelon(span)
        _assert_echelon(rows)
        assert np.max(np.abs(rows - basis._echelon(mixed))) <= 1e-13
    # a column with no part outside the earlier pivots is passed over
    span = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert _pivots(basis._echelon(span)) == [0, 2]
    # a small part is still a pivot
    span[0, 1] = 1e-6
    assert _pivots(basis._echelon(span)) == [0, 1]


# ----------------------------------------------------------------------
# constant-strain family
# ----------------------------------------------------------------------

def test_special_p1_solution_structure():
    sym = special_p1_solution(_case(2.0, Mode.PLANE_SYM), MAT)
    assert sym.kind == "special_p1"
    assert sym.nullity == 2
    anti = special_p1_solution(_case(2.0, Mode.PLANE_ANTI), MAT)
    assert anti.nullity == 1
    ap = special_p1_solution(_case(2.0, Mode.ANTIPLANE_ODD), MAT)
    assert ap.nullity == 1


def test_special_p1_field_is_constant_strain_with_zero_dipolar_stress():
    from gradnotch.fields import dipolar_series, strain_series

    from gradnotch.fields import monopolar_series

    field = special_p1_field(Mode.PLANE_SYM, (0.7, -0.4))
    strains = strain_series(field)
    for series in strains.values():
        assert series.is_zero or series.degree() == pytest.approx(0.0, abs=0.0)
    tau_scale = max(s.max_abs_coef()
                    for s in monopolar_series(field, MAT).values())
    for series in dipolar_series(field, MAT).values():
        # analytically zero; the theta-gradient route may leave a
        # last-ulp coefficient
        assert series.max_abs_coef() <= 1e-14 * tau_scale


def test_special_p1_field_values():
    field = special_p1_field(Mode.PLANE_SYM, (1.0, 0.5))
    r, theta = 1.4, 0.9
    assert field.u_r.eval(r, theta) == pytest.approx(
        r * (1.0 + 0.5 * math.cos(2 * theta)), rel=1e-14)
    assert field.u_theta.eval(r, theta) == pytest.approx(
        -0.5 * r * math.sin(2 * theta), rel=1e-14)
    ap = special_p1_field(Mode.ANTIPLANE_ODD, (0.8,))
    assert ap.w.eval(r, theta) == pytest.approx(
        0.8 * r * math.sin(theta), rel=1e-14)


def test_eigenfield_dispatches_unit_exponent_to_special_family():
    sol = eigenfield(_case(2.0, Mode.PLANE_ANTI), MAT, 1.0)
    assert sol.kind == "special_p1"


def test_solution_from_amplitudes_validates_length():
    case = _case(math.pi, Mode.PLANE_SYM)
    with pytest.raises(ValueError):
        solution_from_amplitudes(case, MAT, 1.5, [(1.0, 2.0)])
