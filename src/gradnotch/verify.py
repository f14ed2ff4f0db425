"""Self-checks: residuals, determinant consistency, energy scaling.

Everything here re-derives a property of a computed solution through an
independent route — substituting fields into the governing equations,
evaluating face operators away from the assembly radius, comparing the
face-system determinant against the closed-form characteristic function,
or integrating the energy density — and reports quantified residuals.
Each report is a NamedTuple of what was measured; a verdict is a property
read from those values, never a stored field.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .model import (
    DisplacementField,
    EigenSolution,
    MaterialParams,
    Mode,
    PolarSeries,
    WedgeCase,
)
from .eigensolver import (RootScanOptions, find_roots, smallest_exponents,
                          sweep_exponents)
from . import basis as _basis
from . import fields as _fields
from . import equilibrium as _equilibrium

__all__ = [
    "DivergentEnergy",
    "ResidualVector",
    "DetCharReport",
    "EnergyScaling",
    "CheckResult",
    "SuiteReport",
    "pde_residual",
    "bc_residual",
    "det_vs_charfn",
    "energy_scaling",
    "run_suite",
    "SUITES",
]

_TINY = 1e-300
# det_vs_charfn's bound on a root's ratio, and on 1 / an off-root ratio
_DET_TOL = 1e-6
_DET_P_LO, _DET_P_HI, _DET_N_GRID = 1.001, 4.0, 601  # det_vs_charfn's grid
_ENERGY_R_HI = 1e-4  # energy_scaling's outer radius


class DivergentEnergy(Exception):
    """The sector strain energy integral diverges at the tip."""


class ResidualVector(NamedTuple):
    """Relative residuals of a field in the governing equations.

    `leading` is the residual in the leading (most singular) equations,
    which eigenfields must satisfy exactly; `full` is the residual in the
    full equations, reported for context — a single-exponent field does
    not satisfy them except in special cases (the constant-strain family,
    harmonic anti-plane parts)."""

    leading: float
    full: float


def _laplacian(s: PolarSeries) -> PolarSeries:
    return (s.dr().dr() + s.dr().div_r()
            + s.dtheta().dtheta().div_r().div_r())


def _rel(series: PolarSeries, denom: float) -> float:
    return series.max_abs_coef() / max(denom, _TINY)


def pde_residual(field: DisplacementField, nu: float) -> ResidualVector:
    """Residuals of a displacement field in the governing equations.

    Plane modes reduce to two coupled equations in the gradient-potential
    pair built from the dilatation and rotation; the anti-plane mode to
    the biharmonic/Helmholtz pair in the out-of-plane displacement.
    Residuals are series coefficients relative to the field's own
    magnitude, so zero means exact cancellation."""
    if field.mode.is_plane:
        u_r, u_t = field.u_r, field.u_theta
        dil = u_r.dr() + u_t.dtheta().div_r() + u_r.div_r()
        rot = u_t.dr() - u_r.dtheta().div_r() + u_t.div_r()
        s_r = dil.dr().scaled(2.0 * (1.0 - nu)) \
            - rot.dtheta().div_r().scaled(1.0 - 2.0 * nu)
        s_t = dil.dtheta().div_r().scaled(2.0 * (1.0 - nu)) \
            + rot.dr().scaled(1.0 - 2.0 * nu)
        u_scale = max(u_r.max_abs_coef(), u_t.max_abs_coef(), _TINY)
        if (s_r.max_abs_coef() + s_t.max_abs_coef()) <= 1e-13 * u_scale:
            # the classical combination cancels to roundoff: the field is
            # an exact solution of the complete equations, and residuals
            # measured against the crumbs would be meaningless
            return ResidualVector(leading=0.0, full=0.0)
        lead_r = (_laplacian(s_r) - s_r.div_r().div_r()
                  - s_t.dtheta().div_r().div_r().scaled(2.0))
        lead_t = (_laplacian(s_t) - s_t.div_r().div_r()
                  + s_r.dtheta().div_r().div_r().scaled(2.0))
        denom = s_r.max_abs_coef() + s_t.max_abs_coef()
        leading = max(_rel(lead_r, denom), _rel(lead_t, denom))
        full_r = s_r - lead_r
        full_t = s_t - lead_t
        full = max(_rel(full_r, denom), _rel(full_t, denom))
        return ResidualVector(leading=leading, full=full)
    w = field.w
    lap = _laplacian(w)
    bilap = _laplacian(lap)
    denom = max(w.max_abs_coef(), lap.max_abs_coef())
    leading = _rel(bilap, denom)
    full = _rel(bilap - lap, denom)
    return ResidualVector(leading=leading, full=full)


def bc_residual(sol: EigenSolution, radii=(0.5, 1.0, 2.0)) -> float:
    """Worst normalized face-operator value of the eigenfields of sol,
    sampled on both faces at several radii. Zero means traction-free and
    double-traction-free faces."""
    a = sol.case.half_angle_a
    nu = sol.material.nu
    worst = 0.0
    for field in sol.fields:
        ops = _fields.apply_bc_operators(field, nu)
        common = max(op.max_abs_coef() for op in ops)
        # normalize each operator by the largest magnitude among the
        # operators of the same homogeneity degree (its condition class:
        # total tractions and double tractions scale differently). An
        # operator's own magnitude is no good as a yardstick, since a
        # combination can legitimately cancel a whole series down to
        # roundoff debris, and debris-relative ratios are meaningless.
        class_scale = {}
        for op in ops:
            deg = op.degree()
            class_scale[deg] = max(class_scale.get(deg, 0.0),
                                   op.max_abs_coef())
        for op in ops:
            deg = op.degree()
            scale = class_scale[deg]
            # a class whose every series is roundoff relative to the
            # dominant one is identically satisfied, not a residual
            if scale <= 1e-12 * common:
                continue
            power = 0.0 if deg is None else deg
            for r in radii:
                for theta in (a, -a):
                    val = abs(op.eval(r, theta))
                    worst = max(worst, val / (scale * r ** power))
    return worst


class DetCharReport(NamedTuple):
    """Zero-set agreement between the face-system determinant and the
    closed-form characteristic function."""

    roots: tuple
    max_root_ratio: float
    min_off_ratio: float

    @property
    def passed(self) -> bool:
        return (self.max_root_ratio < _DET_TOL
                and self.min_off_ratio > _DET_TOL)


def det_vs_charfn(case: WedgeCase, nu: float | None = None) -> DetCharReport:
    """Check that the face-system determinant vanishes exactly where the
    characteristic function does, and nowhere else.

    The determinant is compared in locally normalized form (against its
    own magnitude over a sliding window) so the polynomial growth of its
    smooth prefactor across the exponent range cannot mask or fake zeros.
    The plane third-member pole p = 7 - 8 nu is excluded, since the
    rescaled member intentionally zeroes the determinant there.
    """
    grid = np.linspace(_DET_P_LO, _DET_P_HI, _DET_N_GRID)
    abs_det = np.abs(_basis.bc_det(case, grid, nu))

    roots = sorted([1.0, 2.0, *find_roots(
        case, nu=nu, options=RootScanOptions(p_max=_DET_P_HI))])

    exclude = list(roots)
    if case.mode.is_plane:
        pole = 7.0 - 8.0 * nu
        if _DET_P_LO - 0.2 < pole < _DET_P_HI + 0.2:
            exclude.append(pole)

    def window_max(ps) -> np.ndarray:
        """max |det| over the grid within 0.15 of each p (0 if none), in
        blocks of at most 16 p, so no (p, grid) array outgrows a block."""
        return np.concatenate([
            np.where(np.abs(block[:, None] - grid) <= 0.15, abs_det,
                     0.0).max(axis=1)
            for block in np.array_split(ps, len(ps) // 16 + 1)])

    in_range = np.array([p for p in roots if _DET_P_LO <= p <= _DET_P_HI])
    root_det = np.abs(_basis.bc_det(case, in_range, nu))
    max_root_ratio = float(np.max(
        root_det / np.maximum(window_max(in_range), _TINY), initial=0.0))

    off = np.all(np.abs(grid[:, None] - np.array(exclude)) > 0.1, axis=1)
    min_off_ratio = float(np.min(
        abs_det[off] / np.maximum(window_max(grid[off]), _TINY),
        initial=math.inf))

    return DetCharReport(roots=tuple(roots), max_root_ratio=max_root_ratio,
                         min_off_ratio=min_off_ratio)


class EnergyScaling(NamedTuple):
    """Sector strain-energy scaling U(r) ~ r^exponent near the tip."""

    exponent_exact: float
    exponent_estimate: float


def energy_scaling(sol: EigenSolution) -> EnergyScaling:
    """Scaling exponent of the sector strain energy of the first
    eigenfield of sol (its attached p = 1 part left out).

    The exact exponent comes from the dominant term of the integrated
    density; the estimate from evaluating the energy at _ENERGY_R_HI and
    half of it. A degree-p eigenfield scales as r^(2p-2) (the gradient
    term dominates).
    Raises DivergentEnergy when the tip integral does not exist, and
    ValueError for the constant-strain family, whose density has no
    gradient part."""
    if sol.kind == "special_p1":
        raise ValueError(
            "the constant-strain family has constant density; its sector "
            "energy scales as the sector area, not as a gradient-dominated "
            "power")
    density = _fields.energy_density_series(sol.fields[0], sol.material)
    if density.is_zero:
        raise ValueError("zero field has no energy scaling")
    min_deg = min(t.r_exp for t in density.terms)
    if min_deg <= -2.0:
        raise DivergentEnergy(
            f"energy density grows like r^{min_deg:g} at the tip; the "
            f"sector integral diverges")
    angular = density.integrate_theta(sol.case.half_angle_a)

    def u_of(r: float) -> float:
        total = 0.0
        for term in angular.terms:
            total += term.coef * r ** (term.r_exp + 2.0) / (term.r_exp + 2.0)
        return total

    exact = min(t.r_exp for t in angular.terms) + 2.0
    u_hi, u_lo = u_of(_ENERGY_R_HI), u_of(_ENERGY_R_HI / 2.0)
    estimate = math.log(u_hi / u_lo) / math.log(2.0)
    return EnergyScaling(exponent_exact=exact, exponent_estimate=estimate)


# ----------------------------------------------------------------------
# named check suites
# ----------------------------------------------------------------------

class CheckResult(NamedTuple):
    """A suite row; it passes iff value < tol, the two numbers it prints."""

    name: str
    value: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.value < self.tol)


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _crack_corner_force_radial(a1, a2, nu, mu, c, r0):
    # closed-form radial corner force of the opening-mode crack field
    return (-12.0 * c * mu / ((41.0 - 32.0 * nu) * math.sqrt(r0))
            * (a1 * (27.0 - 24.0 * nu) + a2 * (14.0 - 8.0 * nu)))


def _dual_construction_worst(mode: Mode, rng: random.Random,
                             material: MaterialParams) -> float:
    """Crack fields two ways: constitutive pipeline on basis amplitudes
    versus the literal closed forms. Returns the worst relative error."""
    nu = material.nu
    case = WedgeCase(half_angle_a=math.pi, mode=mode)
    if mode is Mode.PLANE_SYM:
        label, amps, p1 = "I", (rng.uniform(-2, 2), rng.uniform(-2, 2)), \
            (rng.uniform(-1, 1), rng.uniform(-1, 1))
    elif mode is Mode.PLANE_ANTI:
        label, amps, p1 = "II", (rng.uniform(-2, 2), rng.uniform(-2, 2)), \
            (rng.uniform(-1, 1),)
    else:
        label, amps, p1 = "III", (rng.uniform(-2, 2),), (rng.uniform(-1, 1),)
    std = _fields.crack_mode_std_amplitudes(label, amps, nu)
    sol = _basis.attach_p1(
        _basis.solution_from_amplitudes(case, material, 1.5, [std]), p1)
    combined = sol.combined_field(0)
    series = _fields.field_series_map(combined, material)
    ref_amps = p1 + amps
    worst = 0.0
    for _ in range(8):
        r = rng.uniform(0.2, 2.0)
        th = rng.uniform(-math.pi, math.pi)
        ref = _fields.crack_reference_fields(
            label, ref_amps, material, _fields.PolarPoint(r, th))
        scale = max(abs(v) for v in ref.values())
        for key, ref_val in ref.items():
            got = series[key].eval(r, th)
            worst = max(worst, abs(got - ref_val) / max(scale, 1e-12))
    return worst


def _checks_crack(rng: random.Random):
    material = MaterialParams(nu=0.3)
    a = math.pi

    for mode in Mode:
        case = WedgeCase(half_angle_a=a, mode=mode)
        summary = smallest_exponents(case, nu=material.nu)
        yield CheckResult(f"crack-smallest-exponent-{mode.value}",
                          abs(summary.p - 1.5), 1e-9, f"p = {summary.p!r}")

        sol = _basis.eigenfield(case, material, summary.p)
        yield CheckResult(f"crack-face-residual-{mode.value}",
                          bc_residual(sol), 1e-8)
        yield CheckResult(f"crack-leading-equations-{mode.value}",
                          max(pde_residual(f, material.nu).leading
                              for f in sol.fields), 1e-12)
        yield CheckResult(f"crack-closed-form-match-{mode.value}",
                          _dual_construction_worst(mode, rng, material),
                          1e-10)

        report = det_vs_charfn(case, nu=material.nu)
        yield CheckResult(f"crack-determinant-zeros-{mode.value}",
                          report.max_root_ratio, _DET_TOL)
        yield CheckResult(f"crack-determinant-off-root-{mode.value}",
                          1.0 / max(report.min_off_ratio, _TINY),
                          1.0 / _DET_TOL)

        if mode is not Mode.ANTIPLANE_ODD:
            energy = energy_scaling(sol)
            yield CheckResult(
                f"crack-energy-scaling-{mode.value}",
                abs(energy.exponent_estimate - (2 * summary.p - 2)), 1e-6)
            yield CheckResult(
                f"crack-energy-exponent-{mode.value}",
                abs(energy.exponent_exact - (2 * summary.p - 2)), 1e-12)

    # corner force of the opening mode against its closed form
    a1, a2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
    std = _fields.crack_mode_std_amplitudes("I", (a1, a2), material.nu)
    case = WedgeCase(half_angle_a=a, mode=Mode.PLANE_SYM)
    sol = _basis.solution_from_amplitudes(case, material, 1.5, [std])
    for r0 in (0.1, 1.0):
        corners = _equilibrium.edge_forces(
            sol.fields[0], material, r0, a)
        ref = _crack_corner_force_radial(a1, a2, material.nu,
                                         material.mu, material.c, r0)
        yield CheckResult(f"crack-corner-force-r0={r0:g}",
                          abs(corners.e_r_a - ref) / max(abs(ref), 1e-12),
                          1e-10)


def _checks_halfspace(rng: random.Random):
    material = MaterialParams(nu=0.25)
    a = math.pi / 2.0
    for mode in Mode:
        case = WedgeCase(half_angle_a=a, mode=mode)
        roots = find_roots(case, nu=material.nu)
        yield CheckResult(f"halfspace-smallest-exponent-{mode.value}",
                          abs(roots[0] - 2.0) if roots else math.inf, 1e-9)
        if mode.is_plane:
            yield CheckResult(f"halfspace-next-exponent-{mode.value}",
                              min((abs(r - 3.0) for r in roots[1:]),
                                  default=math.inf), 1e-9)

        sol = _basis.eigenfield(case, material, 2.0)
        yield CheckResult(f"halfspace-face-residual-{mode.value}",
                          bc_residual(sol), 1e-8)

        # at p = 2 the leading total traction vanishes identically
        worst = 0.0
        for field in sol.fields:
            m = _fields.dipolar_series(field, material)
            t = _fields._total_theta(m)
            m_scale = max(s.max_abs_coef() for s in m.values())
            for s in t.values():
                worst = max(worst, s.max_abs_coef() / max(m_scale, _TINY))
        yield CheckResult(f"halfspace-traction-free-interior-{mode.value}",
                          worst, 1e-14)


def _checks_sweep(rng: random.Random):
    nu = 0.3
    degrees = np.arange(90.0, 180.5, 1.0)
    for mode in Mode:
        cases = [WedgeCase(half_angle_a=math.radians(float(deg)), mode=mode)
                 for deg in degrees]
        ps = [summary.p for summary in sweep_exponents(cases, nu=nu)]
        # every step must drop p by more than 1e-9
        yield CheckResult(f"sweep-monotone-{mode.value}",
                          max(ps[i + 1] - ps[i] for i in range(len(ps) - 1)),
                          -1e-9, "p decreasing from half-space to crack")
        yield CheckResult(f"sweep-endpoints-{mode.value}",
                          max(abs(ps[0] - 2.0), abs(ps[-1] - 1.5)), 1e-6)


def _checks_equilibrium(rng: random.Random):
    for mode in (Mode.PLANE_SYM, Mode.PLANE_ANTI):
        for _ in range(2):
            a = rng.uniform(math.pi / 2.0, math.pi)
            nu = rng.uniform(0.0, 0.45)
            material = MaterialParams(nu=nu)
            case = WedgeCase(half_angle_a=a, mode=mode)
            summary = smallest_exponents(case, nu=nu)
            sol = _basis.eigenfield(case, material, summary.p)
            coeffs = [rng.uniform(-1, 1) for _ in sol.fields]
            field = sol.combined_field(coeffs)
            worst = 0.0
            for r0 in (0.1, 1.0):
                report = _equilibrium.check_equilibrium(
                    field, material, r0, a)
                worst = max(worst, max(report.residuals) / report.scale)
            yield CheckResult(f"equilibrium-{mode.value}"
                              f"-a={math.degrees(a):.1f}deg-nu={nu:.3f}",
                              worst, _equilibrium.EQUILIBRIUM_TOL)


# the suites in the order `all` runs them
_SUITE_ROWS = {
    "crack": _checks_crack,
    "halfspace": _checks_halfspace,
    "sweep": _checks_sweep,
    "equilibrium": _checks_equilibrium,
}
SUITES = ("all", *_SUITE_ROWS)


def run_suite(suite: str = "all", seed: int = 0) -> SuiteReport:
    """Run a named check suite; deterministic for a given seed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    rng = random.Random(seed)
    checks = []
    for name, rows in _SUITE_ROWS.items():
        if suite in ("all", name):
            checks += rows(rng)
    return SuiteReport(suite=suite, seed=seed, checks=tuple(checks))
