"""Sector equilibrium of singular eigenfields.

A near-tip eigenfield must keep every sector r <= r0 in equilibrium under
its leading tractions: the total-traction resultants transmitted across
the arc r = r0 plus the concentrated corner forces that the dipolar
stress produces where the arc meets the faces. The corner force at a
boundary corner is the jump of n_j k_p m_jpq across it, with n the
outward normal and k the corner-pointing tangent of each meeting surface;
for the arc-face corners of the sector this evaluates to

    E_q(A) = + (m_rtq + m_trq) at (r0, +a)
    E_q(B) = - (m_rtq + m_trq) at (r0, -a).

Both routes to the arc resultants are computed: exact angular integration
of the series, and nested Clenshaw-Curtis quadrature with weights from one
FFT (Waldvogel 2006, BIT 46:195); they must agree to near machine
precision or the check aborts rather than report a fortuitous balance.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .model import DisplacementField, MaterialParams, PolarSeries
from .fields import _total_r, dipolar_series

__all__ = [
    "QuadratureDisagreement",
    "CornerForces",
    "ArcResultants",
    "EquilibriumReport",
    "edge_forces",
    "resultant_on_arc",
    "check_equilibrium",
]

_QUAD_START = 64
_QUAD_MAX = 4096
_QUAD_RTOL = 1e-12
_AGREE_TOL = 1e-8
EQUILIBRIUM_TOL = 1e-8


class QuadratureDisagreement(Exception):
    """Exact and quadrature arc resultants disagree beyond tolerance."""


class CornerForces(NamedTuple):
    """Concentrated corner forces at the arc-face corners, in the local
    polar components of each corner and in Cartesian components."""

    e_r_a: float
    e_t_a: float
    e_r_b: float
    e_t_b: float
    e_x_a: float
    e_y_a: float
    e_x_b: float
    e_y_b: float


class ArcResultants(NamedTuple):
    """Force and moment resultants transmitted across the arc r = r0 by
    the leading total tractions (moment about the tip, with the couple
    carried by the normal double traction included)."""

    h: float
    v: float
    t: float


class EquilibriumReport(NamedTuple):
    arc: ArcResultants
    corners: CornerForces
    sum_fx: float
    sum_fy: float
    sum_moment: float
    scale: float
    residuals: tuple

    @property
    def tol(self) -> float:
        return EQUILIBRIUM_TOL

    @property
    def passed(self) -> bool:
        return all(res <= EQUILIBRIUM_TOL * self.scale
                   for res in self.residuals)


def _require_plane(field: DisplacementField) -> None:
    if not field.mode.is_plane:
        raise ValueError(
            "sector equilibrium is implemented for plane modes; the "
            "anti-plane arc resultant involves the radial-face total "
            "traction component that the leading face conditions do not "
            "control")


def edge_forces(field: DisplacementField, material: MaterialParams,
                r0: float, half_angle_a: float) -> CornerForces:
    """Corner forces of the sector r <= r0 at theta = +/- a."""
    _require_plane(field)
    return _corners(dipolar_series(field, material), r0, half_angle_a)


def _corners(m: dict, r0: float, a: float) -> CornerForces:
    """Corner forces at theta = +/- a from the dipolar stress m."""
    jump_r = m["m_rrt"] + m["m_trr"]
    jump_t = m["m_rtt"] + m["m_ttr"]
    e_r_a = jump_r.eval(r0, a)
    e_t_a = jump_t.eval(r0, a)
    e_r_b = -jump_r.eval(r0, -a)
    e_t_b = -jump_t.eval(r0, -a)
    ca, sa = math.cos(a), math.sin(a)
    return CornerForces(
        e_r_a=e_r_a, e_t_a=e_t_a, e_r_b=e_r_b, e_t_b=e_t_b,
        e_x_a=e_r_a * ca - e_t_a * sa,
        e_y_a=e_r_a * sa + e_t_a * ca,
        e_x_b=e_r_b * ca + e_t_b * sa,
        e_y_b=-e_r_b * sa + e_t_b * ca,
    )


@functools.cache
def _clenshaw_curtis(n: int) -> tuple:
    """Clenshaw-Curtis rule on [-1, 1]: nodes cos(k pi / n), k = 0..n, and
    their weights from one inverse FFT (Waldvogel 2006, BIT 46:195).

    The rule depends on n only, so each is built once, on first use, and
    shared: both arrays are read-only. The n-rule nodes are the even-index
    nodes of the 2n rule, bit for bit.
    """
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    odd = np.arange(1.0, n, 2.0)
    v = np.concatenate(
        [2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(n - odd.size)])
    g = -np.ones(n)
    g[odd.size] += n
    g[n - odd.size] += n
    w = np.fft.ifft(-v[:-1] - v[:0:-1] + g / (n * n - 1 + n % 2)).real
    weights = np.append(w, w[0])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quad_arc(series_list, r0: float, a: float) -> tuple:
    """Nested Clenshaw-Curtis integrals of series over theta in [-a, a].

    Each doubling keeps the values at the n-rule nodes and evaluates the
    series only at the 2n rule's new, odd-index nodes.
    """
    n = _QUAD_START
    nodes, weights = _clenshaw_curtis(n)
    values = [s.eval(r0, a * nodes) for s in series_list]
    prev = None
    while True:
        vals = tuple(float(a * np.dot(weights, f)) for f in values)
        if prev is not None:
            err = max(abs(x - y) for x, y in zip(vals, prev))
            if err <= _QUAD_RTOL * max(1.0, max(abs(x) for x in vals)):
                return vals
        if n >= _QUAD_MAX:
            return vals
        prev = vals
        n *= 2
        nodes, weights = _clenshaw_curtis(n)
        grown = []
        for s, f in zip(series_list, values):
            g = np.empty(n + 1)
            g[0::2] = f
            g[1::2] = s.eval(r0, a * nodes[1::2])
            grown.append(g)
        values = grown


def resultant_on_arc(field: DisplacementField, material: MaterialParams,
                     r0: float, half_angle_a: float) -> ArcResultants:
    """Leading-traction resultants across the arc r = r0.

    H and V are the Cartesian force components, T the moment about the
    tip (traction lever arm plus the in-plane couple of the normal double
    traction). Computed by exact angular integration and cross-checked by
    quadrature; QuadratureDisagreement on mismatch.
    """
    _require_plane(field)
    return _arc(dipolar_series(field, material), r0, half_angle_a)


def _arc(m: dict, r0: float, a: float) -> ArcResultants:
    """Arc resultants over theta in [-a, a] from the dipolar stress m."""
    t_arc = _total_r(m)
    cos1 = PolarSeries.single(1.0, 0.0, 1.0, "cos")
    sin1 = PolarSeries.single(1.0, 0.0, 1.0, "sin")
    t_x = t_arc["t_rr"] * cos1 - t_arc["t_rt"] * sin1
    t_y = t_arc["t_rr"] * sin1 + t_arc["t_rt"] * cos1

    h = r0 * t_x.integrate_theta(a).eval(r0, 0.0)
    v = r0 * t_y.integrate_theta(a).eval(r0, 0.0)
    t_mom = (r0 * r0 * t_arc["t_rt"].integrate_theta(a).eval(r0, 0.0)
             + r0 * m["m_rrt"].integrate_theta(a).eval(r0, 0.0))

    qx, qy, qt, qc = _quad_arc(
        (t_x, t_y, t_arc["t_rt"], m["m_rrt"]), r0, a)
    quad = (r0 * qx, r0 * qy, r0 * r0 * qt + r0 * qc)
    exact = (h, v, t_mom)
    scale = max(1.0, *(abs(x) for x in exact))
    worst = max(abs(x - y) for x, y in zip(exact, quad))
    if worst > _AGREE_TOL * scale:
        raise QuadratureDisagreement(
            f"exact and quadrature arc resultants differ by {worst:.3e} "
            f"(scale {scale:.3e})")
    return ArcResultants(h=h, v=v, t=t_mom)


def check_equilibrium(field: DisplacementField, material: MaterialParams,
                      r0: float, half_angle_a: float) -> EquilibriumReport:
    """Force and moment balance of the sector r <= r0.

    The faces carry no leading tractions for an eigenfield, so balance
    requires the arc resultants to cancel against the corner forces:

        sum Fx = H + Ex(A) + Ex(B)
        sum Fy = V + Ey(A) + Ey(B)
        sum M  = T + r0 (Et(A) + Et(B))

    Residuals are measured against the natural magnitude of the
    participating resultants; the moment residual carries a 1/r0 factor
    so all three are commensurate. The report's `passed` reads whether
    each lies within EQUILIBRIUM_TOL of that scale.
    """
    _require_plane(field)
    m = dipolar_series(field, material)
    arc = _arc(m, r0, half_angle_a)
    corners = _corners(m, r0, half_angle_a)
    sum_fx = arc.h + corners.e_x_a + corners.e_x_b
    sum_fy = arc.v + corners.e_y_a + corners.e_y_b
    sum_moment = arc.t + r0 * (corners.e_t_a + corners.e_t_b)
    scale = (abs(arc.h) + abs(arc.v) + abs(arc.t) / r0
             + math.hypot(corners.e_r_a, corners.e_t_a)
             + math.hypot(corners.e_r_b, corners.e_t_b))
    scale = max(scale, 1e-300)
    return EquilibriumReport(
        arc=arc, corners=corners, sum_fx=sum_fx, sum_fy=sum_fy,
        sum_moment=sum_moment, scale=scale,
        residuals=(abs(sum_fx), abs(sum_fy), abs(sum_moment) / r0))
