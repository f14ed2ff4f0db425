"""Algebraic properties of the exact trigonometric series carrier."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gradnotch.model import KEY_TOL, PolarSeries

COEFS = st.floats(min_value=-100.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)
R_EXPS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
FREQS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
KINDS = st.sampled_from(["cos", "sin"])

TERMS = st.tuples(COEFS, R_EXPS, FREQS, KINDS)
SERIES = st.lists(TERMS, min_size=0, max_size=6).map(
    lambda terms: PolarSeries(tuple(terms)))

POINTS = st.tuples(st.floats(min_value=0.25, max_value=3.0),
                   st.floats(min_value=-3.0, max_value=3.0))


def _scale(*series_list) -> float:
    return max([s.max_abs_coef() for s in series_list] + [1.0])


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------

def test_duplicate_keys_combine():
    s = (PolarSeries.single(2.0, 1.5, 0.5, "cos")
         + PolarSeries.single(3.0, 1.5, 0.5, "cos"))
    assert len(s.terms) == 1
    assert s.terms[0].coef == pytest.approx(5.0, abs=0.0)


def test_cancellation_yields_zero():
    s = (PolarSeries.single(2.0, 1.5, 0.5, "sin")
         + PolarSeries.single(-2.0, 1.5, 0.5, "sin"))
    assert s.is_zero


def test_negative_frequency_normalization():
    assert (PolarSeries.single(1.0, 1.0, -2.0, "cos").terms
            == PolarSeries.single(1.0, 1.0, 2.0, "cos").terms)
    assert (PolarSeries.single(1.0, 1.0, -2.0, "sin").terms
            == PolarSeries.single(-1.0, 1.0, 2.0, "sin").terms)


def test_zero_frequency_sine_vanishes():
    assert PolarSeries.single(7.0, 2.0, 0.0, "sin").is_zero


@pytest.mark.parametrize("raw", [
    ((math.inf, 1.0, 1.0, "cos"), (1.0, 2.0, 1.0, "cos")),
    ((1.0, 2.0, 1.0, "cos"), (-math.inf, 1.0, 0.5, "sin")),
    ((math.nan, 1.0, 1.0, "cos"),),
    # finite terms whose merge overflows
    ((1e308, 1.0, 1.0, "cos"), (1e308, 1.0, 1.0, "cos")),
])
def test_non_finite_coefficient_is_refused(raw):
    # the relative prune would otherwise drop every term and leave zero
    with pytest.raises(OverflowError):
        PolarSeries(raw)
    finite = PolarSeries(((1e308, 1.0, 1.0, "cos"),))
    with pytest.raises(OverflowError):
        finite.scaled(10.0)
    with pytest.raises(OverflowError):
        finite * finite


# keys that are equal (after the snap to zero and the freq sign fold) or
# at least 2 KEY_TOL apart, so that no merge depends on the sort order
_NEAR = 2.5 * KEY_TOL
MERGE_TERMS = st.tuples(
    st.sampled_from([1.0, -1.0, 3.0, 0.5, 1e-15, -2.0e-15, 7.25, -7.25]),
    st.sampled_from([-1.0, 0.0, 0.5 * KEY_TOL, -0.5 * KEY_TOL, 0.5,
                     0.5 + _NEAR, 1.5, 2.0]),
    st.sampled_from([0.0, 0.5 * KEY_TOL, -0.5 * KEY_TOL, 0.5, -0.5,
                     0.5 + _NEAR, -0.5 - _NEAR, 1.0, 2.5]),
    KINDS)


@given(st.lists(MERGE_TERMS, max_size=24))
@settings(max_examples=300)
def test_one_sort_canonical_form_matches_two_sorts(raw):
    # equal keys merge in their input order in both, so the sums agree to
    # the last bit
    def bits(terms):
        return [(t.coef.hex(), t.r_exp.hex(), t.freq.hex(), t.kind)
                for t in terms]

    assert (bits(PolarSeries(tuple(raw)).terms)
            == bits(oracles.canonical_two_sorts(raw)))


@given(SERIES)
@settings(max_examples=60)
def test_canonicalization_idempotent(s):
    assert PolarSeries(s.terms).terms == s.terms


# ----------------------------------------------------------------------
# vector-space operations
# ----------------------------------------------------------------------

@given(SERIES, SERIES, COEFS, POINTS)
@settings(max_examples=60)
def test_linearity_of_eval(s1, s2, k, point):
    r, theta = point
    combined = s1 + s2.scaled(k)
    expected = s1.eval(r, theta) + k * s2.eval(r, theta)
    tol = 1e-12 * max(_scale(s1, s2) * (1.0 + abs(k)), 1.0) * max(r, 1 / r)**3
    assert combined.eval(r, theta) == pytest.approx(expected, abs=tol)


@given(SERIES, SERIES, POINTS)
@settings(max_examples=60)
def test_product_matches_pointwise(s1, s2, point):
    r, theta = point
    product = s1 * s2
    expected = s1.eval(r, theta) * s2.eval(r, theta)
    tol = 1e-11 * max(_scale(s1) * _scale(s2), 1.0) * max(r, 1 / r)**6
    assert product.eval(r, theta) == pytest.approx(expected, abs=tol)


@given(SERIES, st.lists(POINTS, min_size=1, max_size=4),
       st.lists(POINTS, min_size=1, max_size=9))
@settings(max_examples=60)
def test_mesh_eval_matches_flattened_columns_bit_for_bit(s, r_pts, t_pts):
    # a mesh evaluation takes r**e once per radius and trig once per
    # theta; the values must be the bits of the repeated/tiled columns
    radii = np.array([r for r, _ in r_pts])
    thetas = np.array([theta for _, theta in t_pts])
    mesh = s.eval(radii[:, None], thetas[None, :])
    flat = s.eval(np.repeat(radii, len(thetas)),
                  np.tile(thetas, len(radii)))
    assert mesh.shape == (len(radii), len(thetas))
    assert np.array_equal(mesh.ravel(), flat)


# ----------------------------------------------------------------------
# calculus
# ----------------------------------------------------------------------

@given(SERIES, POINTS)
@settings(max_examples=40)
def test_radial_derivative_matches_finite_difference(s, point):
    r, theta = point
    exact = s.dr().eval(r, theta)
    h = 1e-5 * r
    approx = oracles.fd1(lambda x: s.eval(x, theta), r, h)
    tol = 1e-7 * max(_scale(s), abs(exact)) * max(r, 1 / r)**4
    assert approx == pytest.approx(exact, abs=tol)


@given(SERIES, POINTS)
@settings(max_examples=40)
def test_angular_derivative_matches_finite_difference(s, point):
    r, theta = point
    exact = s.dtheta().eval(r, theta)
    approx = oracles.fd1(lambda t: s.eval(r, t), theta, 1e-5)
    tol = 1e-7 * max(_scale(s), abs(exact)) * max(r, 1 / r)**4
    assert approx == pytest.approx(exact, abs=tol)


def test_derivative_convergence_is_second_order():
    s = (PolarSeries.single(1.3, 1.5, 2.5, "cos")
         + PolarSeries.single(-0.7, 0.5, 1.0, "sin"))
    r, theta = 1.3, 0.7
    exact = s.dr().eval(r, theta)
    err = [abs(oracles.fd1(lambda x: s.eval(x, theta), r, h) - exact)
           for h in (1e-2, 5e-3)]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.15)


@given(SERIES, POINTS)
@settings(max_examples=40)
def test_divide_by_radius_inverts_multiplication(s, point):
    r, theta = point
    assert s.div_r().times_r_power(1.0).terms == s.terms
    expected = s.eval(r, theta) / r
    tol = 1e-12 * _scale(s) * max(r, 1 / r)**4
    assert s.div_r().eval(r, theta) == pytest.approx(expected, abs=tol)


@given(SERIES)
@settings(max_examples=40)
def test_exact_angular_integration_matches_quadrature(s):
    a = 2.2
    r = 1.4
    integrated = s.integrate_theta(a)
    numeric = oracles.quad_arc(lambda t: s.eval(r, t), a)
    tol = 1e-10 * max(_scale(s), 1.0) * max(r, 1.0)**3
    assert integrated.eval(r, 0.0) == pytest.approx(numeric, abs=tol)


def test_homogeneous_series_scales_by_degree():
    s = (PolarSeries.single(1.1, 1.5, 0.5, "cos")
         + PolarSeries.single(-2.0, 1.5, 2.5, "sin"))
    assert s.degree() == pytest.approx(1.5, abs=0.0)
    v1, v2 = s.eval(1.0, 0.8), s.eval(2.0, 0.8)
    assert v2 == pytest.approx(2.0**1.5 * v1, rel=1e-14)


def test_mixed_degrees_report_none():
    s = (PolarSeries.single(1.0, 1.0, 1.0, "cos")
         + PolarSeries.single(1.0, 2.0, 1.0, "cos"))
    assert s.degree() is None
