"""Self-verification machinery: residuals, determinant zeros, energy, suites."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import oracles
from gradnotch import verify
from gradnotch.basis import (basis_fields, eigenfield,
                             solution_from_amplitudes, special_p1_solution)
from gradnotch.model import MaterialParams, Mode, WedgeCase
from gradnotch.verify import (SUITES, DivergentEnergy, bc_residual,
                              det_vs_charfn, energy_scaling, pde_residual,
                              run_suite)

MAT = MaterialParams(nu=0.3)


def _case(angle, mode):
    return WedgeCase(half_angle_a=angle, mode=mode)


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode,nu", [
    (Mode.PLANE_SYM, 0.3), (Mode.PLANE_SYM, 0.05),
    (Mode.PLANE_ANTI, 0.42), (Mode.ANTIPLANE_ODD, 0.3),
])
@pytest.mark.parametrize("p", [1.37, 2.6, 3.85])
def test_every_basis_member_solves_leading_equations(mode, nu, p):
    members, _ = basis_fields(_case(2.3, mode), p, nu)
    fulls = []
    for member in members:
        residual = pde_residual(member, nu)
        assert residual.leading < 1e-12
        assert residual.full >= 0.0
        fulls.append(residual.full)
    # the harmonic member of each family solves the complete operator too
    # (full residual exactly zero); the rest keep a lower-order remainder,
    # so the family as a whole is not a complete-equation solution set
    assert max(fulls) > 1e-6
    assert min(fulls) < 1e-12


def test_eigenfields_have_tiny_face_residuals():
    for mode, nu in [(Mode.PLANE_SYM, 0.3), (Mode.PLANE_ANTI, 0.2),
                     (Mode.ANTIPLANE_ODD, 0.3)]:
        case = _case(2.4, mode)
        mat = MaterialParams(nu=nu)
        from gradnotch.eigensolver import smallest_exponents
        p = smallest_exponents(case, nu).p
        sol = eigenfield(case, mat, p)
        assert bc_residual(sol) < 1e-8


def test_arbitrary_combination_violates_face_conditions():
    sol = solution_from_amplitudes(_case(math.pi, Mode.PLANE_SYM), MAT,
                                   1.7, [(1.0, 0.0, 0.0, 0.0)])
    assert bc_residual(sol) > 1e-3


# ----------------------------------------------------------------------
# determinant vs. characteristic bracket
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode,nu", [
    (Mode.PLANE_SYM, 0.3), (Mode.PLANE_ANTI, 0.2),
    (Mode.ANTIPLANE_ODD, None),
])
def test_determinant_zero_set_matches_bracket(mode, nu):
    report = det_vs_charfn(_case(2.1, mode), nu)
    assert report.passed
    assert report.max_root_ratio < 1e-6
    assert report.min_off_ratio > 1e-6


def _det_cases():
    for mode in Mode:
        for angle_deg in (90.0, 90.0001, 120.0, 135.0, 160.0, 179.9999, 180.0):
            for nu in ((-0.9, 0.0, 0.3, 0.4999) if mode.is_plane else (None,)):
                yield mode, angle_deg, nu


@pytest.mark.parametrize("mode,angle_deg,nu", list(_det_cases()))
def test_determinant_check_equals_the_pointwise_loop(mode, angle_deg, nu):
    # the windowed maxima and the exclusion mask, taken as array
    # operations, give the loop's report bit for bit
    case = _case(math.radians(angle_deg), mode)
    report = det_vs_charfn(case, nu)
    assert (report.roots, report.max_root_ratio, report.min_off_ratio,
            report.passed) == oracles.det_vs_charfn_loop(case, nu)
    assert type(report.passed) is bool


# ----------------------------------------------------------------------
# energy scaling
# ----------------------------------------------------------------------

def test_energy_exponent_matches_growth_rate():
    for mode, nu, expected_p in [(Mode.PLANE_SYM, 0.3, 1.5),
                                 (Mode.ANTIPLANE_ODD, 0.3, 1.5)]:
        sol = eigenfield(_case(math.pi, mode), MaterialParams(nu=nu),
                         expected_p)
        scaling = energy_scaling(sol)
        assert scaling.exponent_exact == pytest.approx(
            2 * expected_p - 2, abs=1e-12)
        assert scaling.exponent_estimate == pytest.approx(
            2 * expected_p - 2, abs=1e-6)


def test_subunit_exponent_raises_divergent_energy():
    sol = solution_from_amplitudes(_case(math.pi, Mode.ANTIPLANE_ODD), MAT,
                                   0.5, [(1.0, 0.5)])
    with pytest.raises(DivergentEnergy):
        energy_scaling(sol)


def test_constant_strain_family_has_no_scaling_exponent():
    sol = special_p1_solution(_case(2.0, Mode.PLANE_SYM), MAT)
    with pytest.raises(ValueError):
        energy_scaling(sol)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_crack_suite_passes():
    report = run_suite("crack", seed=3)
    assert report.passed
    assert report.suite == "crack"
    assert all(check.passed for check in report.checks)


def test_suite_runs_are_deterministic():
    first = run_suite("equilibrium", seed=11)
    second = run_suite("equilibrium", seed=11)
    assert first.checks == second.checks


def test_suite_names_are_exported():
    assert set(SUITES) == {"all", "crack", "halfspace", "sweep",
                           "equilibrium"}


# ----------------------------------------------------------------------
# one verdict rule
# ----------------------------------------------------------------------

def _hand_written_verdicts(tree: ast.Module) -> list:
    """Lines of the calls outside the row constructor `_row` that build a
    CheckResult or pass a `passed=` keyword: each decides a verdict of its
    own."""
    row = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_row")
    inside = {id(node) for node in ast.walk(row)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and ((isinstance(node.func, ast.Name)
                        and node.func.id == "CheckResult")
                       or any(k.arg == "passed" for k in node.keywords)))


def test_guard_flags_a_hand_written_verdict():
    tree = ast.parse(
        "def _row(name, value, tol):\n"
        "    return CheckResult(name, passed=value < tol, value=value,\n"
        "                       tol=tol)\n"
        "def suite():\n"
        "    yield _row('a', 1.0, 2.0)\n"
        "    yield CheckResult('b', True, 1.0, 2.0)\n"
        "    yield Report(passed=True)\n")
    assert _hand_written_verdicts(tree) == [6, 7]


def test_every_check_row_is_built_by_the_one_constructor():
    tree = ast.parse(Path(verify.__file__).read_text())
    assert _hand_written_verdicts(tree) == []
