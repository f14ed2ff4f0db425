"""Algebraic properties of the exact trigonometric series carrier."""

from __future__ import annotations

import contextlib
import io
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gradnotch import model
from gradnotch.cli import main
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
MERGE_COEFS = st.sampled_from([1.0, -1.0, 3.0, 0.5, 1e-15, -2.0e-15, 7.25,
                               -7.25])
MERGE_R_EXPS = st.sampled_from([-1.0, 0.0, 0.5 * KEY_TOL, -0.5 * KEY_TOL,
                                0.5, 0.5 + _NEAR, 1.5, 2.0])
MERGE_TERMS = st.tuples(
    MERGE_COEFS, MERGE_R_EXPS,
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


# ----------------------------------------------------------------------
# operations that keep canonical form: the bits of _canonical on the terms
# each one built before it kept that form
# ----------------------------------------------------------------------

def _bits(build):
    """Every field of build()'s terms, or OverflowError if it raises."""
    try:
        series = build()
    except OverflowError:
        return OverflowError
    assert type(series.terms) is tuple
    return [(t.coef.hex(), t.r_exp.hex(), t.freq.hex(), t.kind)
            for t in series.terms]


def _raw(s, coef, r_exp=lambda t: t.r_exp, kind=lambda t: t.kind):
    return PolarSeries(tuple((coef(t), r_exp(t), t.freq, kind(t))
                             for t in s.terms))


def _flip(t):
    return "sin" if t.kind == "cos" else "cos"


# r exponents one above those of MERGE_TERMS, so that d/dr lands within
# KEY_TOL of zero, and shifts that do the same from MERGE_TERMS' exponents
SHIFTED_TERMS = st.tuples(
    MERGE_COEFS, MERGE_R_EXPS.map(lambda e: e + 1.0),
    st.sampled_from([0.0, 0.5, 0.5 + _NEAR, 1.0, 2.5]), KINDS)
# keys within KEY_TOL of each other but not equal: a canonical series keeps
# two of them where a term of the other kind sorts between them or was
# pruned from between them, and the merge of a sum keeps the first key
WITHIN_TERMS = st.tuples(
    MERGE_COEFS, st.sampled_from([0.5, 0.5 + 0.4 * KEY_TOL,
                                  0.5 + 0.8 * KEY_TOL]),
    st.sampled_from([1.0, 1.0 + 0.6 * KEY_TOL]), KINDS)
CANONICAL = st.lists(st.one_of(MERGE_TERMS, SHIFTED_TERMS, WITHIN_TERMS),
                     max_size=12).map(lambda raw: PolarSeries(tuple(raw)))
# a cos and a sin term at each drawn key, whose order d/dtheta reverses
PAIRED = st.lists(st.tuples(MERGE_TERMS, MERGE_COEFS), max_size=8).map(
    lambda pairs: PolarSeries(tuple(
        term for (c, e, f, k), c2 in pairs
        for term in ((c, e, f, k), (c2, e, f, "sin" if k == "cos" else "cos")))))
SCALES = st.sampled_from([1.0, -1.0, 2.5, -0.3, 1e-15, 1e-300, -1e-300,
                          5e-324, 1e300, -1e300, 1e308, 0.0, -0.0,
                          math.inf, -math.inf, math.nan])
SHIFTS = st.sampled_from([1.0, -1.0, 0.5, -0.5, -0.5 - 0.4 * KEY_TOL,
                          -0.5 + 0.6 * KEY_TOL, -1.5 + 0.8 * KEY_TOL,
                          -2.0 - KEY_TOL, 0.4 * KEY_TOL, -_NEAR, 1e-20,
                          -1.0 + 1e-16, 1e16])


@given(CANONICAL, SCALES)
@settings(max_examples=300)
def test_scaling_keeps_the_bits_of_the_full_canonical_form(s, k):
    # underflow to zero or under the prune cut, overflow to OverflowError
    assert _bits(lambda: s.scaled(k)) == _bits(
        lambda: _raw(s, lambda t: t.coef * k))
    assert _bits(lambda: -s) == _bits(lambda: _raw(s, lambda t: -t.coef))


@given(CANONICAL, CANONICAL, st.sampled_from([1.0, -1.0, 1e-15, 1e15]))
@settings(max_examples=300)
def test_addition_keeps_the_bits_of_the_full_canonical_form(s1, s2, k):
    # equal keys merge with s1's term first, near keys within KEY_TOL, and
    # a sum at another scale prunes the smaller operand's terms
    s2 = s2.scaled(k)
    assert _bits(lambda: s1 + s2) == _bits(
        lambda: PolarSeries(s1.terms + s2.terms))
    assert _bits(lambda: s1 - s2) == _bits(
        lambda: PolarSeries(s1.terms + _raw(s2, lambda t: -t.coef).terms))


@given(CANONICAL, SHIFTS)
@settings(max_examples=300)
def test_shifts_keep_the_bits_of_the_full_canonical_form(s, k):
    # shifted exponents within KEY_TOL of zero snap to it, and exponents
    # a shift brings within KEY_TOL of each other merge
    assert _bits(lambda: s.times_r_power(k)) == _bits(
        lambda: _raw(s, lambda t: t.coef, lambda t: t.r_exp + k))
    assert _bits(s.div_r) == _bits(
        lambda: _raw(s, lambda t: t.coef, lambda t: t.r_exp - 1.0))
    assert _bits(s.dr) == _bits(
        lambda: _raw(s, lambda t: t.coef * t.r_exp, lambda t: t.r_exp - 1.0))


@given(st.one_of(CANONICAL, PAIRED))
@settings(max_examples=300)
def test_angular_derivative_keeps_the_bits_of_the_full_canonical_form(s):
    # cos and sin swap, so pairs sharing (r_exp, freq) swap places too
    assert _bits(s.dtheta) == _bits(lambda: _raw(
        s, lambda t: (-t.coef if t.kind == "cos" else t.coef) * t.freq,
        kind=_flip))


def test_merge_within_key_tol_keeps_the_first_key():
    s = (PolarSeries.single(2.0, 1.5, 0.5, "cos")
         + PolarSeries.single(3.0, 1.5 + 0.5 * KEY_TOL, 0.5, "cos"))
    assert s.terms == ((5.0, 1.5, 0.5, "cos"),)


def test_a_coefficient_that_becomes_zero_drops_before_the_merge():
    # the middle term keeps its neighbours, cos terms at keys within
    # KEY_TOL, apart; once it becomes zero they merge, as in the full
    # canonical form
    def around(middle, c=1.0):
        return PolarSeries(((c, 0.5, 1.0, "cos"), middle,
                            (3.0 * c, 0.5 + 0.8 * KEY_TOL, 1.0, "cos")))

    # scaling underflows it
    scaled = around((0.5, 0.5, 1.0, "sin")).scaled(5e-324)
    assert scaled.terms == ((2e-323, 0.5, 1.0, "cos"),)
    # d/dtheta zeroes a cos term of zero frequency, or underflows a sin
    # term of subnormal coefficient
    e = 0.5 + 0.4 * KEY_TOL
    for middle, c in [((2.0, e, 0.0, "cos"), 1.0),
                      ((1e-323, e, 0.1, "sin"), 1e-310)]:
        s = around(middle, c)
        assert len(s.terms) == 3
        assert s.dtheta().terms == ((-(c + 3.0 * c), 0.5, 1.0, "sin"),)


def test_sum_merges_self_first_on_equal_keys():
    # each operand holds two cos terms within KEY_TOL, adjacent once the
    # sin term between them is pruned; the four terms of the sum merge in
    # one group, self's term first at each key, and the order shows in the
    # last bit of the sum
    def operand(near, far):
        return PolarSeries(((near, 0.5, 1.0, "cos"), (1e-15, 0.5, 1.0, "sin"),
                            (far, 0.5 + 0.5 * KEY_TOL, 1.0, "cos")))

    s1, s2 = operand(3.3, 0.3), operand(1.1, 7.7)
    assert len(s1.terms) == len(s2.terms) == 2
    assert (s1 + s2).terms == PolarSeries(s1.terms + s2.terms).terms
    assert (s1 + s2).terms[0].coef == ((3.3 + 1.1) + 0.3) + 7.7
    assert (s2 + s1).terms[0].coef == ((1.1 + 3.3) + 7.7) + 0.3
    assert (s1 + s2).terms != (s2 + s1).terms


def test_huge_derivative_coefficient_is_refused():
    s = PolarSeries.single(1e300, 0.5, 1e10, "cos")
    with pytest.raises(OverflowError):
        s.dtheta()
    with pytest.raises(OverflowError):
        PolarSeries.single(1e300, 1e10, 0.5, "cos").dr()


def test_equilibrium_request_canonicalizes_only_raw_terms(monkeypatch):
    # the operations that keep canonical form never run the full routine;
    # only raw construction (single, assemble_field), series products and
    # integrate_theta do
    callers = Counter()
    kept = Counter()
    canonical = model._canonical
    from_normalized = model._from_normalized

    def name(frame):
        while frame.f_code.co_name.startswith("<"):   # a comprehension
            frame = frame.f_back
        return frame.f_code.co_name

    def full(raw_terms):
        # the caller of PolarSeries, past __post_init__ and __init__
        callers[name(sys._getframe(3))] += 1
        return canonical(raw_terms)

    def fast(terms):
        kept[name(sys._getframe(1))] += 1
        return from_normalized(terms)

    monkeypatch.setattr(model, "_canonical", full)
    monkeypatch.setattr(model, "_from_normalized", fast)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["equilibrium", "--mode", "notch-anti", "--angle-deg",
                     "135", "--nu", "-0.5", "--amps", "1,-0.7"]) == 0
    assert set(callers) == {"single", "assemble_field", "_series_product",
                            "integrate_theta"}
    assert set(kept) == {"scaled", "__add__", "times_r_power", "dr",
                         "dtheta"}
    assert sum(kept.values()) > 4 * sum(callers.values())


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
