"""Self-verification machinery: residuals, determinant zeros, energy, suites."""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil

import pytest

import gradnotch
import oracles
from gradnotch.basis import (basis_fields, eigenfield,
                             solution_from_amplitudes, special_p1_solution)
from gradnotch.equilibrium import (EQUILIBRIUM_TOL, ArcResultants,
                                   CornerForces, EquilibriumReport)
from gradnotch.model import MaterialParams, Mode, WedgeCase
from gradnotch.verify import (SUITES, CheckResult, DetCharReport,
                              DivergentEnergy, SuiteReport, bc_residual,
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
# plain result records
# ----------------------------------------------------------------------

@pytest.mark.parametrize("record", [CheckResult, SuiteReport, DetCharReport,
                                    EquilibriumReport])
def test_a_report_stores_no_verdict(record):
    # each verdict is read from the values the record holds, so no record
    # can carry one that contradicts them; a tol that is the same for
    # every report is a constant, not a field (a check row's tol is its
    # own)
    assert "passed" not in record._fields
    assert ("tol" in record._fields) == (record is CheckResult)


def test_a_check_row_passes_iff_its_value_is_below_its_tol():
    assert CheckResult("x", 1.0, 1.0).passed is False
    assert CheckResult("x", math.nextafter(1.0, 0.0), 1.0).passed is True
    assert CheckResult("x", math.nan, 1.0).passed is False
    assert CheckResult("x", -math.inf, -1e-9).passed is True
    rows = (CheckResult("a", 0.0, 1.0), CheckResult("b", 1.0, 1.0))
    assert SuiteReport("s", 0, rows[:1]).passed is True
    assert SuiteReport("s", 0, rows).passed is False


def test_an_equilibrium_residual_at_its_bound_passes():
    scale = 3.0
    bound = EQUILIBRIUM_TOL * scale

    def report(residual):
        return EquilibriumReport(ArcResultants(0.0, 0.0, 0.0),
                                 CornerForces(*[0.0] * 8), 0.0, 0.0, 0.0,
                                 scale, (0.0, residual, 0.0))

    assert report(bound).passed is True
    assert report(math.nextafter(bound, math.inf)).passed is False
    assert report(math.nan).passed is False
    assert report(bound).tol == EQUILIBRIUM_TOL


def test_only_records_that_use_a_dataclass_feature_are_dataclasses():
    # validation in __post_init__ (MaterialParams, WedgeCase,
    # RootScanOptions, PolarSeries), a cached_property and replace
    # (EigenSolution), and __add__ (DisplacementField, which as a tuple
    # would repeat under * and have a len); every other record is a
    # NamedTuple
    modules = [importlib.import_module(f"gradnotch.{info.name}")
               for info in pkgutil.iter_modules(gradnotch.__path__)]
    classes = {name: obj for module in modules
               for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__}
    assert sorted(name for name, obj in classes.items()
                  if dataclasses.is_dataclass(obj)) == [
        "DisplacementField", "EigenSolution", "MaterialParams",
        "PolarSeries", "RootScanOptions", "WedgeCase"]
    for name in ("PolarPoint", "AdmissibleRoot", "ExponentSummary",
                 "CornerForces", "ArcResultants", "EquilibriumReport",
                 "ResidualVector", "DetCharReport", "EnergyScaling",
                 "CheckResult", "SuiteReport"):
        assert issubclass(classes[name], tuple) and classes[name]._fields
