"""Characteristic bracket functions: limits, symmetry, oracle agreement."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import oracles
from gradnotch.charfn import (char_antiplane, char_bracket,
                              char_plane_anti, char_plane_sym)
from gradnotch.model import Mode, WedgeCase

P_GRID = np.linspace(1.05, 3.95, 13)
NU_GRID = (0.0, 0.2, 0.3, 0.49)
A_GRID = (math.pi / 2, 1.9, 2.4, 2.9, math.pi)


def test_plane_sym_crack_limit_reduces_to_single_cosine():
    for p in P_GRID:
        for nu in NU_GRID:
            expected = 2.0 * (5.0 - 4.0 * nu) * (1.0 - math.cos(4 * math.pi * p))
            assert char_plane_sym(p, math.pi, nu) == pytest.approx(
                expected, rel=1e-12, abs=1e-10)


def test_plane_anti_crack_limit_has_opposite_sign():
    for p in P_GRID:
        for nu in NU_GRID:
            expected = -2.0 * (5.0 - 4.0 * nu) * (1.0 - math.cos(4 * math.pi * p))
            assert char_plane_anti(p, math.pi, nu) == pytest.approx(
                expected, rel=1e-12, abs=1e-10)


def test_plane_half_space_limits():
    a = math.pi / 2
    for p in P_GRID:
        for nu in NU_GRID:
            expected = 2.0 * (5.0 - 4.0 * nu) * (1.0 - math.cos(2 * math.pi * p))
            assert char_plane_sym(p, a, nu) == pytest.approx(
                expected, rel=1e-12, abs=1e-10)
            assert char_plane_anti(p, a, nu) == pytest.approx(
                -expected, rel=1e-12, abs=1e-10)


def test_antiplane_limits():
    for p in P_GRID:
        assert char_antiplane(p, math.pi) == pytest.approx(
            3.0 * math.sin(2 * math.pi * p), rel=1e-12, abs=1e-12)
        assert char_antiplane(p, math.pi / 2) == pytest.approx(
            -3.0 * math.sin(math.pi * p), rel=1e-12, abs=1e-12)


def test_plane_brackets_match_independent_transcription():
    for p in P_GRID:
        for a in A_GRID:
            for nu in NU_GRID:
                assert char_plane_sym(p, a, nu) == pytest.approx(
                    oracles.bracket_plane_sym(p, a, nu), rel=1e-13, abs=1e-11)
                assert char_plane_anti(p, a, nu) == pytest.approx(
                    oracles.bracket_plane_anti(p, a, nu), rel=1e-13, abs=1e-11)


def test_antiplane_bracket_matches_independent_transcription():
    for p in P_GRID:
        for a in A_GRID:
            assert char_antiplane(p, a) == pytest.approx(
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
            assert abs(char_plane_sym(1.0, a, nu)) < 1e-12
            assert abs(char_plane_anti(1.0, a, nu)) < 1e-12
        assert abs(char_antiplane(1.0, a)) < 1e-12


def test_plane_bracket_depends_on_poisson_ratio_off_limits():
    # At interior angles the zero set moves with nu.
    v1 = char_plane_sym(1.7, 2.2, 0.0)
    v2 = char_plane_sym(1.7, 2.2, 0.45)
    assert abs(v1 - v2) > 1e-3


def test_bracket_dispatch_matches_direct_functions():
    for a in A_GRID:
        sym = WedgeCase(half_angle_a=a, mode=Mode.PLANE_SYM)
        anti = WedgeCase(half_angle_a=a, mode=Mode.PLANE_ANTI)
        ap = WedgeCase(half_angle_a=a, mode=Mode.ANTIPLANE_ODD)
        for p in (1.3, 2.6):
            assert char_bracket(p, sym, 0.3) == char_plane_sym(p, a, 0.3)
            assert char_bracket(p, anti, 0.3) == char_plane_anti(p, a, 0.3)
            assert char_bracket(p, ap) == char_antiplane(p, a)

