"""Field quantities derived from a displacement field.

The constitutive pipeline runs on exact series as one chain, each stage
a function of the one before: strains eps (strain_series), monopolar
stresses tau from the isotropic law (_monopolar), dipolar stresses
m = c grad(tau) (_dipolar), leading total tractions on faces and arcs
from the divergence of m (_total_theta, _total_r), and the energy
density W = (tau:eps + m:grad(eps)) / 2 from the stages themselves
(_energy_density), so the material constants enter only tau and m;
_polar_gradient is the one polar gradient both m and W use. A public
(field, material) function runs the chain up to its own stage;
field_series_map runs it once, building each stage once.

The exposed total tractions are the leading (gradient) part — the dominant
near-tip contribution, two powers of r more singular than the monopolar
term, and the part that enters the face conditions and sector equilibrium
for homogeneous eigenfields.

The module also carries a literal closed-form transcription of the
crack-tip fields (crack_reference_fields), written directly from the
closed forms, independent of the pipeline, so it serves as an oracle for
it. apply_bc_operators runs the pipeline up to a field's face operators,
the independent route that checks the closed-form face conditions of
basis; the module imports neither basis nor numpy.
"""

from __future__ import annotations

import math

from .model import (
    DisplacementField,
    MaterialParams,
    PolarPoint,
    PolarSeries,
)

__all__ = [
    "strain_series",
    "monopolar_series",
    "dipolar_series",
    "total_theta_series",
    "apply_bc_operators",
    "total_r_series",
    "energy_density_series",
    "field_series_map",
    "crack_reference_fields",
    "crack_mode_std_amplitudes",
]


# ----------------------------------------------------------------------
# constitutive pipeline on series
# ----------------------------------------------------------------------

def strain_series(field: DisplacementField) -> dict:
    """Strain components as exact series."""
    if field.mode.is_plane:
        u_r, u_t = field.u_r, field.u_theta
        eps_rr = u_r.dr()
        eps_tt = (u_r + u_t.dtheta()).div_r()
        eps_rt = (u_r.dtheta().div_r() + u_t.dr() - u_t.div_r()).scaled(0.5)
        return {"eps_rr": eps_rr, "eps_tt": eps_tt, "eps_rt": eps_rt}
    w = field.w
    return {"eps_rz": w.dr().scaled(0.5),
            "eps_tz": w.dtheta().div_r().scaled(0.5)}


def _polar_gradient(*comps) -> tuple:
    """Polar components g_kij (k the derivative direction) of the gradient
    of a symmetric tensor a: (a_rr, a_tt, a_rt) gives (g_rrr, g_rrt,
    g_rtt, g_trr, g_ttr, g_ttt), (a_rz, a_tz) gives (g_rrz, g_rtz, g_trz,
    g_ttz)."""
    if len(comps) == 3:
        a_rr, a_tt, a_rt = comps
        return (a_rr.dr(), a_rt.dr(), a_tt.dr(),
                (a_rr.dtheta() - a_rt.scaled(2.0)).div_r(),
                (a_rt.dtheta() + a_rr - a_tt).div_r(),
                (a_tt.dtheta() + a_rt.scaled(2.0)).div_r())
    a_rz, a_tz = comps
    return (a_rz.dr(), a_tz.dr(), (a_rz.dtheta() - a_tz).div_r(),
            (a_tz.dtheta() + a_rz).div_r())


def _monopolar(eps: dict, material: MaterialParams) -> dict:
    """tau = lam tr(eps) I + 2 mu eps."""
    mu, lam = material.mu, material.lam
    if "eps_rr" in eps:
        trace = eps["eps_rr"] + eps["eps_tt"]
        return {
            "tau_rr": trace.scaled(lam) + eps["eps_rr"].scaled(2.0 * mu),
            "tau_tt": trace.scaled(lam) + eps["eps_tt"].scaled(2.0 * mu),
            "tau_rt": eps["eps_rt"].scaled(2.0 * mu),
            "tau_zz": trace.scaled(lam),
        }
    return {"tau_rz": eps["eps_rz"].scaled(2.0 * mu),
            "tau_tz": eps["eps_tz"].scaled(2.0 * mu)}


def _dipolar(tau: dict, c: float) -> dict:
    """m = c grad(tau)."""
    if "tau_rr" in tau:
        keys = ("m_rrr", "m_rrt", "m_rtt", "m_trr", "m_ttr", "m_ttt")
        grad = _polar_gradient(tau["tau_rr"], tau["tau_tt"], tau["tau_rt"])
    else:
        keys = ("m_rrz", "m_rtz", "m_trz", "m_ttz")
        grad = _polar_gradient(tau["tau_rz"], tau["tau_tz"])
    return {key: g.scaled(c) for key, g in zip(keys, grad)}


def _total_theta(m: dict) -> dict:
    """Leading total tractions on theta = const faces, from m."""
    if "m_rrr" in m:
        mix = m["m_trr"] + m["m_rrt"]
        t_tr = -(mix.dr() + m["m_ttr"].dtheta().div_r() + mix.div_r()
                 - m["m_ttt"].div_r())
        t_tt = -((m["m_ttr"] + m["m_rtt"]).dr() + m["m_ttt"].dtheta().div_r()
                 + m["m_rtt"].div_r() + m["m_ttr"].div_r().scaled(2.0))
        return {"t_tr": t_tr, "t_tt": t_tt}
    mix = m["m_rtz"] + m["m_trz"]
    t_tz = -(mix.dr() + m["m_ttz"].dtheta().div_r() + mix.div_r())
    return {"t_tz": t_tz}


def _total_r(m: dict) -> dict:
    """Leading total tractions on r = const arcs, from plane m."""
    mix = m["m_trr"] + m["m_rrt"]
    t_rr = -(m["m_rrr"].dr() + mix.dtheta().div_r() + m["m_rrr"].div_r()
             - m["m_ttr"].div_r().scaled(2.0) - m["m_rtt"].div_r())
    t_rt = -(m["m_rrt"].dr() + (m["m_rtt"] + m["m_ttr"]).dtheta().div_r()
             + m["m_trr"].div_r() + m["m_rrt"].div_r().scaled(2.0)
             - m["m_ttt"].div_r())
    return {"t_rr": t_rr, "t_rt": t_rt}


def _energy_density(eps: dict, tau: dict, m: dict) -> PolarSeries:
    """W = (tau:eps + m:grad(eps)) / 2, the quadratic energy by Euler's
    theorem. A shear component stands for a symmetric pair and counts
    twice: eps_rt, m_rrt and m_ttr in plane, every anti-plane component
    (tau_zz meets eps_zz = 0 and drops out). m's keys run in the order of
    _polar_gradient's components."""
    if "eps_rr" in eps:
        strain = (eps["eps_rr"], eps["eps_tt"], eps["eps_rt"])
        stress = (tau["tau_rr"], tau["tau_tt"], tau["tau_rt"], *m.values())
        weights = (0.5, 0.5, 1.0, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5)
    else:
        strain = (eps["eps_rz"], eps["eps_tz"])
        stress = (tau["tau_rz"], tau["tau_tz"], *m.values())
        weights = (1.0,) * 6
    pairs = zip(stress, strain + _polar_gradient(*strain), weights)
    return PolarSeries(tuple((t.coef * w, t.r_exp, t.freq, t.kind)
                             for s, k, w in pairs for t in (s * k).terms))


def monopolar_series(field: DisplacementField, material: MaterialParams) -> dict:
    """Monopolar (Cauchy-like) stresses from the isotropic law."""
    return _monopolar(strain_series(field), material)


def dipolar_series(field: DisplacementField, material: MaterialParams) -> dict:
    """Dipolar stresses m = c * grad(tau) in polar components."""
    return _dipolar(monopolar_series(field, material), material.c)


def total_theta_series(field: DisplacementField, material: MaterialParams) -> dict:
    """Leading total tractions on theta = const faces."""
    return _total_theta(dipolar_series(field, material))


def apply_bc_operators(field: DisplacementField, nu: float) -> tuple:
    """Face-condition operators of a field, as series in (r, theta).

    Plane modes: (r^3 t_tr, r^3 t_tt, m_ttr, m_ttt); anti-plane:
    (r^3 t_tz, r^2 m_ttz). Evaluated with unit stiffness and unit gradient
    coefficient: the face conditions are homogeneous, so material scaling
    drops out and only nu enters. This runs the constitutive pipeline, an
    independent route to the closed forms that basis.bc_matrix assembles.
    """
    material = MaterialParams(nu=nu, mu=1.0, c=1.0)
    m = dipolar_series(field, material)
    t = _total_theta(m)
    if field.mode.is_plane:
        return (t["t_tr"].times_r_power(3), t["t_tt"].times_r_power(3),
                m["m_ttr"], m["m_ttt"])
    return (t["t_tz"].times_r_power(3), m["m_ttz"].times_r_power(2))


def total_r_series(field: DisplacementField, material: MaterialParams) -> dict:
    """Leading total tractions on r = const arcs (plane modes only)."""
    if not field.mode.is_plane:
        raise ValueError("arc total tractions are provided for plane modes only")
    return _total_r(dipolar_series(field, material))


def energy_density_series(field: DisplacementField,
                          material: MaterialParams) -> PolarSeries:
    """Strain-energy density as an exact series (positive definite)."""
    eps = strain_series(field)
    tau = _monopolar(eps, material)
    return _energy_density(eps, tau, _dipolar(tau, material.c))


# CSV ordering of derived components per mode
PLANE_FIELD_KEYS = (
    "u_r", "u_t",
    "eps_rr", "eps_tt", "eps_rt",
    "tau_rr", "tau_tt", "tau_rt", "tau_zz",
    "m_rrr", "m_rrt", "m_rtt", "m_trr", "m_ttr", "m_ttt",
    "t_tr", "t_tt", "t_rr", "t_rt",
    "W",
)
ANTIPLANE_FIELD_KEYS = (
    "w",
    "eps_rz", "eps_tz",
    "tau_rz", "tau_tz",
    "m_rrz", "m_rtz", "m_trz", "m_ttz",
    "t_tz",
    "W",
)


def field_series_map(field: DisplacementField, material: MaterialParams) -> dict:
    """Every derived component (plus displacement and energy) as series,
    each stage built once."""
    eps = strain_series(field)
    tau = _monopolar(eps, material)
    m = _dipolar(tau, material.c)
    if field.mode.is_plane:
        out = {"u_r": field.u_r, "u_t": field.u_theta,
               **eps, **tau, **m, **_total_theta(m), **_total_r(m)}
    else:
        out = {"w": field.w, **eps, **tau, **m, **_total_theta(m)}
    out["W"] = _energy_density(eps, tau, m)
    return out


# ----------------------------------------------------------------------
# crack-tip closed forms (literal transcriptions; oracles for the pipeline)
# ----------------------------------------------------------------------

def crack_reference_fields(mode_label: str, amplitudes, material: MaterialParams,
                           point: PolarPoint) -> dict:
    """Closed-form crack-tip fields, independent of the pipeline.

    mode_label "I" takes amplitudes (C1, C3, A1, A2); "II" takes
    (C2, B1, B2); "III" takes (E, D). Returns a dict of pointwise values
    keyed like the pipeline components (total tractions are the leading
    part throughout).
    """
    mu, c, nu = material.mu, material.c, material.nu
    r, th = point.r, point.theta
    h1, h2, h3, h5 = th / 2.0, 2.0 * th, 3.0 * th / 2.0, 5.0 * th / 2.0
    s = math.sqrt(r)
    cos, sin = math.cos, math.sin

    if mode_label == "I":
        c1, c3, a1, a2 = (float(x) for x in amplitudes)
        q = 41.0 - 32.0 * nu
        out = {}
        out["u_r"] = (r * (c1 + c3 * cos(h2))
                      + a1 * r * s * ((3 - 8 * nu) * cos(h1)
                                      + 3 * (11 - 16 * nu) / q * cos(h3))
                      - a2 * r * s * (3 * (11 - 16 * nu) / q * cos(h3) - cos(h5)))
        out["u_t"] = (-c3 * r * sin(h2)
                      + a1 * r * s * ((9 - 8 * nu) * sin(h1)
                                      - 3 * (13 - 16 * nu) / q * sin(h3))
                      + a2 * r * s * (3 * (13 - 16 * nu) / q * sin(h3) - sin(h5)))
        out["eps_rr"] = (c1 + c3 * cos(h2)
                         + 1.5 * a1 * s * ((33 - 48 * nu) / q * cos(h3)
                                           + (3 - 8 * nu) * cos(h1))
                         - 1.5 * a2 * s * ((33 - 48 * nu) / q * cos(h3) - cos(h5)))
        out["eps_tt"] = (c1 - c3 * cos(h2)
                         - 1.5 * a1 * s * ((17 - 16 * nu) / q * cos(h3)
                                           - (5 - 8 * nu) * cos(h1))
                         + 1.5 * a2 * s * ((17 - 16 * nu) / q * cos(h3) - cos(h5)))
        out["eps_rt"] = (-c3 * sin(h2)
                         - 1.5 * a1 * s * ((23 - 32 * nu) / q * sin(h3) - sin(h1))
                         + 1.5 * a2 * s * ((23 - 32 * nu) / q * sin(h3) - sin(h5)))
        out["tau_rr"] = (2 * mu * c1 / (1 - 2 * nu) + 2 * mu * c3 * cos(h2)
                         + 3 * mu * a1 * s * (3 * cos(h1)
                                              + (33 - 32 * nu) / q * cos(h3))
                         - 3 * mu * a2 * s * ((33 - 32 * nu) / q * cos(h3)
                                              - cos(h5)))
        out["tau_tt"] = (2 * mu * c1 / (1 - 2 * nu) - 2 * mu * c3 * cos(h2)
                         + 3 * mu * a1 * s * (5 * cos(h1)
                                              - (17 - 32 * nu) / q * cos(h3))
                         - 3 * mu * a2 * s * (-(17 - 32 * nu) / q * cos(h3)
                                              + cos(h5)))
        out["tau_rt"] = (-2 * mu * c3 * sin(h2)
                         + 3 * mu * a1 * s * (sin(h1)
                                              - (23 - 32 * nu) / q * sin(h3))
                         - 3 * mu * a2 * s * (-(23 - 32 * nu) / q * sin(h3)
                                              + sin(h5)))
        f = 1.5 * mu * c / s
        out["m_ttr"] = (f * a1 * (-3 * cos(h1) + (31 - 32 * nu) / q * cos(h3))
                        - f * a2 * ((31 - 32 * nu) / q * cos(h3) + cos(h5)))
        out["m_ttt"] = (-f * a1 * (sin(h1) + sin(h3))
                        + f * a2 * (sin(h3) + sin(h5)))
        out["m_rrr"] = (f * a1 * (3 * cos(h1) + (33 - 32 * nu) / q * cos(h3))
                        - f * a2 * ((33 - 32 * nu) / q * cos(h3) - cos(h5)))
        out["m_rrt"] = (f * a1 * (sin(h1) - (23 - 32 * nu) / q * sin(h3))
                        + f * a2 * ((23 - 32 * nu) / q * sin(h3) - sin(h5)))
        out["m_trr"] = (-f * a1 * (7 * sin(h1) + (7 + 32 * nu) / q * sin(h3))
                        + f * a2 * ((7 + 32 * nu) / q * sin(h3) - sin(h5)))
        out["m_rtt"] = (f * a1 * (5 * cos(h1) - (17 - 32 * nu) / q * cos(h3))
                        + f * a2 * ((17 - 32 * nu) / q * cos(h3) - cos(h5)))
        g = 0.75 * mu * c / (r * s)
        out["t_tr"] = (g * a1 * (sin(h1) + sin(h3))
                       - g * a2 * (sin(h3) + sin(h5)))
        out["t_tt"] = (g * a1 * ((47 - 32 * nu) / q * cos(h3) + 5 * cos(h1))
                       - g * a2 * ((47 - 32 * nu) / q * cos(h3) + cos(h5)))
        gq = 3 * c * mu / (4 * q * r * s)
        out["t_rr"] = (gq * a1 * ((147 - 32 * nu) * cos(h3) + q * cos(h1))
                       + gq * a2 * ((123 - 96 * nu) * cos(h5)
                                    - (147 - 32 * nu) * cos(h3)))
        out["t_rt"] = (gq * a1 * ((43 + 32 * nu) * sin(h3)
                                  + (451 - 352 * nu) * sin(h1))
                       - gq * a2 * ((123 - 96 * nu) * sin(h5)
                                    + (43 + 32 * nu) * sin(h3)))
        return out

    if mode_label == "II":
        c2, b1, b2 = (float(x) for x in amplitudes)
        d = 37.0 - 32.0 * nu
        w12 = 1.0 - 2.0 * nu
        out = {}
        out["u_r"] = (c2 * r * sin(h2) + b1 * r * s * sin(h1)
                      + b2 * r * s * (-3 * (11 - 16 * nu) / d * sin(h3)
                                      + sin(h5)))
        out["u_t"] = (c2 * r * cos(h2) - b1 * r * s * cos(h1)
                      + b2 * r * s * (cos(h5) - 3 * (13 - 16 * nu) / d * cos(h3)
                                      + 12 / d * cos(h1)))
        out["eps_rr"] = (c2 * sin(h2) + 1.5 * b1 * s * sin(h1)
                         - 1.5 * b2 * s * ((33 - 48 * nu) / d * sin(h3)
                                           - sin(h5)))
        out["eps_tt"] = (-c2 * sin(h2) + 1.5 * b1 * s * sin(h1)
                         - 1.5 * b2 * s * (4 / d * sin(h1)
                                           - (17 - 16 * nu) / d * sin(h3)
                                           + sin(h5)))
        out["eps_rt"] = (c2 * cos(h2)
                         + 1.5 * b2 * s * (2 / d * cos(h1)
                                           - (23 - 32 * nu) / d * cos(h3)
                                           + cos(h5)))
        out["tau_rr"] = (2 * mu * c2 * sin(h2)
                         - 3 * mu * b2 * s * (4 * nu / (w12 * d) * sin(h1)
                                              + (33 - 32 * nu) / d * sin(h3)
                                              - sin(h5))
                         + 3 * mu / w12 * b1 * s * sin(h1))
        out["tau_tt"] = (-2 * mu * c2 * sin(h2)
                         - 3 * mu * b2 * s * (4 * (1 - nu) / (w12 * d) * sin(h1)
                                              - (17 - 32 * nu) / d * sin(h3)
                                              + sin(h5))
                         + 3 * mu / w12 * b1 * s * sin(h1))
        out["tau_rt"] = (2 * mu * c2 * cos(h2)
                         + 3 * mu * b2 * s * (2 / d * cos(h1)
                                              - (23 - 32 * nu) / d * cos(h3)
                                              + cos(h5)))
        f = 1.5 * mu * c / s
        out["m_ttt"] = (-f * b2 * (-4 * (1 - 3 * nu) / (w12 * d) * cos(h1)
                                   + (41 - 32 * nu) / d * cos(h3) + cos(h5))
                        + f / w12 * b1 * cos(h1))
        out["m_ttr"] = -f * b2 * (-6 / d * sin(h1)
                                  + (31 - 32 * nu) / d * sin(h3) + sin(h5))
        out["m_rrr"] = (-f * b2 * (-sin(h5) + (33 - 32 * nu) / d * sin(h3)
                                   + 4 * nu / (d * w12) * sin(h1))
                        + f / w12 * b1 * sin(h1))
        out["m_trr"] = (-f * b2 * (4 * (2 - 3 * nu) / (w12 * d) * cos(h1)
                                   + (7 + 32 * nu) / d * cos(h3) - cos(h5))
                        + f / w12 * b1 * cos(h1))
        out["m_rrt"] = -f * b2 * (-2 / d * cos(h1)
                                  + (23 - 32 * nu) / d * cos(h3) - cos(h5))
        out["m_rtt"] = (-f * b2 * (4 * (1 - nu) / (d * w12) * sin(h1)
                                   - (17 - 32 * nu) / d * sin(h3) + sin(h5))
                        + f / w12 * b1 * sin(h1))
        g = 0.75 * mu * c / (r * s)
        out["t_tr"] = (g * b2 * (4 * (2 - 5 * nu) / (w12 * d) * cos(h1)
                                 + (41 - 32 * nu) / d * cos(h3) + cos(h5))
                       + g / w12 * b1 * cos(h1))
        out["t_tt"] = -g * b2 * (10 / d * sin(h1)
                                 + (47 - 32 * nu) / d * sin(h3) + sin(h5))
        gd = 3 * mu * c / (4 * d * r * s)
        out["t_rr"] = (gd * b2 * ((10 - 28 * nu) / w12 * sin(h1)
                                  + 3 * d * sin(h5)
                                  - (147 - 32 * nu) * sin(h3))
                       + 3 * c * mu / (2 * w12 * r * s) * b1 * sin(h1))
        out["t_rt"] = (gd * b2 * ((16 - 28 * nu) / w12 * cos(h1)
                                  + 3 * d * cos(h5)
                                  + (43 + 32 * nu) * cos(h3))
                       - 3 * c * mu / (4 * w12 * r * s) * b1 * cos(h1))
        return out

    if mode_label == "III":
        e_amp, d_amp = (float(x) for x in amplitudes)
        out = {}
        out["w"] = (e_amp * r * sin(th)
                    + d_amp / 3.0 * r * s * (5 * sin(h3) - 3 * sin(h1)))
        out["tau_rz"] = (mu * e_amp * sin(th)
                         + 0.5 * mu * d_amp * s * (5 * sin(h3) - 3 * sin(h1)))
        out["tau_tz"] = (mu * e_amp * cos(th)
                         + 0.5 * mu * d_amp * s * (5 * cos(h3) - cos(h1)))
        out["eps_rz"] = out["tau_rz"] / (2 * mu)
        out["eps_tz"] = out["tau_tz"] / (2 * mu)
        f = 0.25 * mu * c * d_amp / s
        out["m_trz"] = f * (5 * cos(h3) - cos(h1))
        out["m_rtz"] = out["m_trz"]
        out["m_ttz"] = -5 * f * (sin(h3) + sin(h1))
        out["m_rrz"] = f * (5 * sin(h3) - 3 * sin(h1))
        out["t_tz"] = (mu * c * d_amp / (8 * r * s)
                       * (5 * cos(h3) + 7 * cos(h1)))
        return out

    raise ValueError(f"unknown crack mode {mode_label!r}")


def crack_mode_std_amplitudes(mode_label: str, amps, nu: float) -> tuple:
    """Standard basis-member coordinates of the crack closed-form fields.

    Maps the crack amplitude pairs (A1, A2) / (B1, B2) / (D,) onto the
    standard column amplitudes at p = 3/2 (the degree-p part only; the
    constant-strain amplitudes are the p = 1 constants themselves).
    """
    if mode_label == "I":
        a1, a2 = (float(x) for x in amps)
        q = 41.0 - 32.0 * nu
        return ((3.0 - 8.0 * nu) * a1,
                a2,
                3.0 * (11.0 - 16.0 * nu) / q * (a1 - a2),
                (9.0 - 8.0 * nu) * a1)
    if mode_label == "II":
        b1, b2 = (float(x) for x in amps)
        d = 37.0 - 32.0 * nu
        return (b1,
                b2,
                3.0 * (11.0 - 16.0 * nu) / d * b2,
                -b1 + 12.0 / d * b2)
    if mode_label == "III":
        (d_amp,) = (float(x) for x in amps)
        return (5.0 * d_amp / 3.0, d_amp)
    raise ValueError(f"unknown crack mode {mode_label!r}")
