"""Characteristic bracket functions: limits, symmetry, oracle agreement."""

from __future__ import annotations

import cmath
import hashlib
import math

import mpmath
import numpy as np
import pytest

import oracles
from gradnotch.charfn import char_bracket
from gradnotch.model import Mode, WedgeCase

P_GRID = np.linspace(1.05, 3.95, 13)
NU_GRID = (0.0, 0.2, 0.3, 0.49)
A_GRID = (math.pi / 2, 1.9, 2.4, 2.9, math.pi)
SYM, ANTI, AP = Mode.PLANE_SYM, Mode.PLANE_ANTI, Mode.ANTIPLANE_ODD


def _bracket(mode, p, a, nu=None):
    """char_bracket of mode at p on the wedge of half-angle a."""
    return char_bracket(p, WedgeCase(half_angle_a=a, mode=mode), nu)


def test_plane_sym_crack_limit_reduces_to_single_cosine():
    for p in P_GRID:
        for nu in NU_GRID:
            expected = 2.0 * (5.0 - 4.0 * nu) * (1.0 - math.cos(4 * math.pi * p))
            assert _bracket(SYM, p, math.pi, nu) == pytest.approx(
                expected, rel=1e-12, abs=1e-10)


def test_plane_anti_crack_limit_has_opposite_sign():
    for p in P_GRID:
        for nu in NU_GRID:
            expected = -2.0 * (5.0 - 4.0 * nu) * (1.0 - math.cos(4 * math.pi * p))
            assert _bracket(ANTI, p, math.pi, nu) == pytest.approx(
                expected, rel=1e-12, abs=1e-10)


def test_plane_half_space_limits():
    a = math.pi / 2
    for p in P_GRID:
        for nu in NU_GRID:
            expected = 2.0 * (5.0 - 4.0 * nu) * (1.0 - math.cos(2 * math.pi * p))
            assert _bracket(SYM, p, a, nu) == pytest.approx(
                expected, rel=1e-12, abs=1e-10)
            assert _bracket(ANTI, p, a, nu) == pytest.approx(
                -expected, rel=1e-12, abs=1e-10)


def test_antiplane_limits():
    for p in P_GRID:
        assert _bracket(AP, p, math.pi) == pytest.approx(
            3.0 * math.sin(2 * math.pi * p), rel=1e-12, abs=1e-12)
        assert _bracket(AP, p, math.pi / 2) == pytest.approx(
            -3.0 * math.sin(math.pi * p), rel=1e-12, abs=1e-12)


def test_plane_brackets_match_independent_transcription():
    for p in P_GRID:
        for a in A_GRID:
            for nu in NU_GRID:
                assert _bracket(SYM, p, a, nu) == pytest.approx(
                    oracles.bracket_plane_sym(p, a, nu), rel=1e-13, abs=1e-11)
                assert _bracket(ANTI, p, a, nu) == pytest.approx(
                    oracles.bracket_plane_anti(p, a, nu), rel=1e-13, abs=1e-11)


def test_antiplane_bracket_matches_independent_transcription():
    for p in P_GRID:
        for a in A_GRID:
            assert _bracket(AP, p, a) == pytest.approx(
                oracles.bracket_antiplane(p, a), rel=1e-13, abs=1e-12)


def test_complex_step_gives_the_exact_derivative():
    # Im f(p + ih) / h against the 30-digit derivative of the oracle
    # transcription, and real input still gives a real float
    h = 1e-30
    for mode, nu in [(Mode.PLANE_SYM, 0.3), (Mode.PLANE_ANTI, 0.2),
                     (Mode.ANTIPLANE_ODD, None)]:
        bracket = oracles.BRACKETS[mode.value]
        for a in A_GRID:
            case = WedgeCase(half_angle_a=a, mode=mode)
            for p in P_GRID[::3]:
                value = char_bracket(float(p), case, nu)
                assert type(value) is float
                step = char_bracket(complex(p, h), case, nu)
                assert step.real == pytest.approx(value, rel=1e-15, abs=1e-15)
                with mpmath.workdps(30):
                    ref = float(mpmath.diff(
                        lambda x: bracket(x, mpmath.mpf(a), nu, lib=mpmath),
                        mpmath.mpf(float(p))))
                assert step.imag / h == pytest.approx(ref, rel=1e-12,
                                                      abs=1e-12)


def test_every_bracket_vanishes_at_unit_exponent():
    for a in A_GRID:
        for nu in NU_GRID:
            assert abs(_bracket(SYM, 1.0, a, nu)) < 1e-12
            assert abs(_bracket(ANTI, 1.0, a, nu)) < 1e-12
        assert abs(_bracket(AP, 1.0, a)) < 1e-12


def test_plane_bracket_depends_on_poisson_ratio_off_limits():
    # At interior angles the zero set moves with nu.
    v1 = _bracket(SYM, 1.7, 2.2, 0.0)
    v2 = _bracket(SYM, 1.7, 2.2, 0.45)
    assert abs(v1 - v2) > 1e-3


# the scalar path: a at both limits, just inside them and at 135 degrees;
# nu across its range; p through (1, 4] with p = 1, 2, the 135-degree touch
# roots and the pole p = 7 - 8 nu
SCALAR_A = (math.pi / 2, math.radians(90.0001), 3.0 * math.pi / 4.0,
            math.radians(179.9999), math.pi)
SCALAR_NU = (-0.9, 0.0, 0.3, 0.4999)


def _scalar_points(nu):
    return np.concatenate([np.linspace(1.0, 4.0, 61),
                           [1.0, 2.0, 5.0 / 3.0, 7.0 / 3.0, 11.0 / 3.0,
                            7.0 - 8.0 * nu]])


def test_bracket_bits_are_pinned():
    # the sha256 of the bytes of the numpy real and complex-step values and
    # of the scalar math and cmath values, over every mode, the interval
    # ends and just inside them, nu across its range (None for the
    # anti-plane class), and p on the scan grid plus p = 1, 2, the
    # 135-degree touch roots and the pole p = 7 - 8 nu
    h = 1e-30
    grid = 1.0 + 1e-6 + 1e-3 * np.arange(3002)
    digest = hashlib.sha256()
    for mode in Mode:
        for angle in (90.0, 90.0001, 135.0, 179.9999, 180.0):
            case = WedgeCase(half_angle_a=math.radians(angle), mode=mode)
            for nu in SCALAR_NU if mode.is_plane else (None,):
                ps = np.concatenate([grid, _scalar_points(nu or 0.0)[61:]])
                digest.update(char_bracket(ps, case, nu).tobytes())
                digest.update(char_bracket(ps + 1j * h, case, nu).tobytes())
                digest.update(np.array([char_bracket(p, case, nu, math)
                                        for p in ps.tolist()]).tobytes())
                digest.update(np.array([
                    char_bracket(complex(p, h), case, nu, cmath)
                    for p in ps.tolist()]).tobytes())
    assert digest.hexdigest() == (
        "212fef6373e7bafe5f7bbbb7f83f460e122f2feca7c9eac762b19aef1d4bd3b7")


@pytest.mark.parametrize("mode", list(Mode))
def test_scalar_path_matches_the_array_path(mode):
    # lib=math against the numpy grid to 4 ulps of max(1, |f|) (another
    # libm may round a cosine differently, so the two paths are not held
    # to the same bits), and the lib=cmath complex step against numpy's
    # and the 30-digit derivative
    h = 1e-30
    bracket = oracles.BRACKETS[mode.value]
    for a in SCALAR_A:
        case = WedgeCase(half_angle_a=a, mode=mode)
        for nu in SCALAR_NU:
            ps = _scalar_points(nu)
            values = char_bracket(ps, case, nu)
            steps = char_bracket(ps + 1j * h, case, nu)
            for p, value, step in zip(ps.tolist(), values, steps):
                scalar = char_bracket(p, case, nu, math)
                assert type(scalar) is float
                assert abs(scalar - value) <= 4 * math.ulp(max(1.0, abs(value)))
                scalar_step = char_bracket(complex(p, h), case, nu, cmath)
                assert type(scalar_step) is complex
                assert scalar_step.imag / h == pytest.approx(
                    step.imag / h, rel=1e-12, abs=1e-12)
                with mpmath.workdps(30):
                    ref = float(mpmath.diff(
                        lambda x: bracket(x, mpmath.mpf(a), nu, lib=mpmath),
                        mpmath.mpf(p)))
                assert scalar_step.imag / h == pytest.approx(
                    ref, rel=1e-12, abs=1e-12)
