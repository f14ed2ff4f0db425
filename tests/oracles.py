"""Independent oracles used by the test suite.

Everything in this module is written directly from closed-form expressions
and elementary numerics, so that test comparisons are made against a
genuinely independent code path. Only the general-exponent closed forms
and the per-root eigenfield route import the package: the closed forms
build its PolarSeries and read its face-operator table (fields.face_rows),
since what they check is the constitutive pipeline, not those. The
oracles are:

- a plain bisection root finder and second transcriptions of the three
  characteristic bracket functions, with their roots at 30 digits
  (mpmath);
- closed-form crack-tip corner forces and arc tractions for the symmetric
  and anti-symmetric in-plane crack modes;
- the u_theta/u_r coupling ratio of the third plane basis member;
- centered finite-difference derivative helpers;
- the zero-field filter by sampling displacement fields at 13 angles;
- the per-root eigenfield route: the basis members written out as
  series, one SVD per face system, and fields combined from the members'
  series (it reads the package's one-exponent face stack and reduced
  echelon form, since what it checks is the batched pass, not those);
- the p = 1 constants of the crack modes and literal transcriptions of
  the general-exponent fields (reference_general_series);
- adaptive quadrature (scipy.integrate.quad) for arc resultants.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from gradnotch import basis
from gradnotch.fields import face_rows
from gradnotch.model import (KEY_TOL, DisplacementField, EigenSolution, Mode,
                             PolarSeries, combine_fields)


# ----------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------

def bisect(f, lo, hi, tol=1e-14, maxit=200):
    """Plain bisection for a sign-changing root of f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on [%g, %g]" % (lo, hi))
    for _ in range(maxit):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def min_of_abs(f, lo, hi, n=20001):
    """Coarse grid minimizer of |f| on [lo, hi] followed by golden-section."""
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    vals = [abs(f(x)) for x in xs]
    i = vals.index(min(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = abs(f(c)), abs(f(d))
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = abs(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = abs(f(d))
        if b - a < 1e-13:
            break
    return 0.5 * (a + b)


# ----------------------------------------------------------------------
# characteristic brackets (independent transcription)
# ----------------------------------------------------------------------

# each bracket evaluates with the cos/sin of `lib`: math for doubles,
# mpmath for high precision

def bracket_plane_sym(p, a, nu, lib=math):
    q = p - 1.0
    part = 2.0 * q * (lib.cos(2.0 * q * a) + lib.cos(4.0 * a) - 1.0)
    part -= (p - 2.0) * lib.cos(2.0 * (p + 1.0) * a)
    part -= p * lib.cos(2.0 * (p - 3.0) * a)
    return q * part + 2.0 * (5.0 - 4.0 * nu) * (1.0 - lib.cos(4.0 * q * a))


def bracket_plane_anti(p, a, nu, lib=math):
    q = p - 1.0
    part = 2.0 * q * (lib.cos(2.0 * q * a) - lib.cos(4.0 * a) + 1.0)
    part -= (p - 2.0) * lib.cos(2.0 * (p + 1.0) * a)
    part -= p * lib.cos(2.0 * (p - 3.0) * a)
    return q * part - 2.0 * (5.0 - 4.0 * nu) * (1.0 - lib.cos(4.0 * q * a))


def bracket_antiplane(p, a, nu=None, lib=math):
    return (p - 1.0) * lib.sin(2.0 * a) + 3.0 * lib.sin(2.0 * (p - 1.0) * a)


BRACKETS = {"plane-sym": bracket_plane_sym, "plane-anti": bracket_plane_anti,
             "antiplane-odd": bracket_antiplane}


def mp_root(mode_label, angle_deg, nu, lo, hi, touch=False):
    """Bracket root in [lo, hi] at 30 digits, with the half-angle taken as
    the exact decimal `angle_deg`; f (or f' with touch=True, which locates
    an even-multiplicity root) must change sign over [lo, hi].

    Returns (root, |f(root)|), the root rounded to the nearest double.
    """
    bracket = BRACKETS[mode_label]
    with mpmath.workdps(30):
        a = mpmath.mpf(str(angle_deg)) * mpmath.pi / 180
        nu_mp = None if nu is None else mpmath.mpf(nu)

        def f(p):
            return bracket(p, a, nu_mp, lib=mpmath)

        def g(p):
            return mpmath.diff(f, p) if touch else f(p)

        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        if g(lo) * g(hi) >= 0:
            raise ValueError(f"no sign change on [{lo}, {hi}]")
        root = mpmath.findroot(g, (lo, hi), solver="anderson")
        return float(root), float(abs(f(root)))


def antiplane_root(a, lo=1.0 + 1e-6, hi=2.5):
    """Smallest sign-changing zero of the anti-plane bracket above p = 1."""
    n = 4000
    prev_x, prev_f = lo, bracket_antiplane(lo, a)
    for i in range(1, n + 1):
        x = lo + (hi - lo) * i / n
        fx = bracket_antiplane(x, a)
        if prev_f * fx <= 0.0:
            return bisect(lambda p: bracket_antiplane(p, a), prev_x, x)
        prev_x, prev_f = x, fx
    raise ValueError("no root found")


# ----------------------------------------------------------------------
# crack-tip closed forms (symmetric mode I / anti-symmetric mode II)
# ----------------------------------------------------------------------

def corner_force_mode1_radial(a1, a2, nu, mu=1.0, c=1.0, r0=1.0):
    """Radial corner force at the upper crack face for the symmetric mode."""
    return (-12.0 * c * mu / ((41.0 - 32.0 * nu) * math.sqrt(r0))
            * (a1 * (27.0 - 24.0 * nu) + a2 * (14.0 - 8.0 * nu)))


def corner_force_mode2_tangential(b1, b2, nu, mu=1.0, c=1.0, r0=1.0):
    """Tangential corner force at the upper crack face, anti-symmetric mode."""
    return (3.0 * c * mu / (2.0 * (1.0 - 2.0 * nu) * math.sqrt(r0))
            * (b1 - b2 * 2.0 * (64.0 * nu**2 - 88.0 * nu + 29.0)
               / (37.0 - 32.0 * nu)))


def mode1_arc_tractions(theta, a1, a2, nu, mu=1.0, c=1.0, r0=1.0):
    """(t_rr, t_rt) on the arc r = r0 for the symmetric crack mode."""
    d = 41.0 - 32.0 * nu
    f = 3.0 * c * mu * r0**-1.5 / (4.0 * d)
    h1, h3, h5 = theta / 2.0, 3.0 * theta / 2.0, 5.0 * theta / 2.0
    t_rr = f * a1 * ((147.0 - 32.0 * nu) * math.cos(h3) + d * math.cos(h1))
    t_rr += f * a2 * ((123.0 - 96.0 * nu) * math.cos(h5)
                      - (147.0 - 32.0 * nu) * math.cos(h3))
    t_rt = f * a1 * ((43.0 + 32.0 * nu) * math.sin(h3)
                     + (451.0 - 352.0 * nu) * math.sin(h1))
    t_rt -= f * a2 * ((123.0 - 96.0 * nu) * math.sin(h5)
                      + (43.0 + 32.0 * nu) * math.sin(h3))
    return t_rr, t_rt


def mode2_arc_tractions(theta, b1, b2, nu, mu=1.0, c=1.0, r0=1.0):
    """(t_rr, t_rt) on the arc r = r0 for the anti-symmetric crack mode."""
    d = 37.0 - 32.0 * nu
    f = 3.0 * mu * c * r0**-1.5 / (4.0 * d)
    g = 3.0 * c * mu * r0**-1.5 / (1.0 - 2.0 * nu)
    h1, h3, h5 = theta / 2.0, 3.0 * theta / 2.0, 5.0 * theta / 2.0
    t_rr = f * b2 * ((10.0 - 28.0 * nu) / (1.0 - 2.0 * nu) * math.sin(h1)
                     + 3.0 * d * math.sin(h5)
                     - (147.0 - 32.0 * nu) * math.sin(h3))
    t_rr += 0.5 * g * b1 * math.sin(h1)
    t_rt = f * b2 * ((16.0 - 28.0 * nu) / (1.0 - 2.0 * nu) * math.cos(h1)
                     + 3.0 * d * math.cos(h5)
                     + (43.0 + 32.0 * nu) * math.cos(h3))
    t_rt -= 0.25 * g * b1 * math.cos(h1)
    return t_rr, t_rt


def mode3_crack_total_traction(theta, d_amp, mu=1.0, c=1.0, r0=1.0):
    """t_tz on the arc r = r0 for the anti-plane crack mode."""
    return (mu * c * d_amp / 8.0 * r0**-1.5
            * (5.0 * math.cos(1.5 * theta) + 7.0 * math.cos(0.5 * theta)))


def utheta_ratio(p, nu):
    """u_theta/u_r coupling factor K of the third plane basis member."""
    return (p + 5.0 - 8.0 * nu) / (p - 7.0 + 8.0 * nu)


# ----------------------------------------------------------------------
# numerics
# ----------------------------------------------------------------------

def fd1(f, x, h):
    """Centered first derivative, O(h^2)."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd2(f, x, h):
    """Centered second derivative, O(h^2)."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def quad_arc(f, a, tol=1e-12):
    """Adaptive quadrature of f(theta) over [-a, a]."""
    val, _err = quad(f, -a, a, epsabs=tol, epsrel=tol, limit=400)
    return val



# ----------------------------------------------------------------------
# zero-field filter by sampling
# ----------------------------------------------------------------------

def member_samples(members, a, n_angles=13):
    """Displacement samples of each member (anything with components()
    whose items have eval(r, theta)): its components at r = 1 and
    n_angles angles across [-a, a], one column per member."""
    angles = np.linspace(-a, a, n_angles)
    return np.array([[comp.eval(1.0, t) for comp in member.components()
                      for t in angles] for member in members]).T


def sampled_zero_field_filter(members, vectors, a):
    """Null directions whose combined field is not identically zero,
    decided by sampling: with B the member samples and V the vectors as
    columns, the directions kept are the right singular vectors of B @ V
    above 1e-6 of B's top singular value. Returns them as unit amplitude
    vectors; an empty list if none survives."""
    if not vectors:
        return []
    b_mat = member_samples(members, a)
    v_mat = np.column_stack(vectors)
    sigma_b = np.linalg.svd(b_mat, compute_uv=False)
    _, sigma_g, wh = np.linalg.svd(b_mat @ v_mat)
    sigma_g = np.concatenate([sigma_g,
                              np.zeros(v_mat.shape[1] - len(sigma_g))])
    kept = []
    for i in range(v_mat.shape[1]):
        if sigma_g[i] > 1e-6 * sigma_b[0]:
            v = v_mat @ wh[i, :]
            kept.append(v / np.linalg.norm(v))
    return kept


def largest_principal_angle(x, y):
    """Largest principal angle (radians) between the column spans of x
    and y, which must have full column rank and equal dimension."""
    qx, _ = np.linalg.qr(np.asarray(x, dtype=float))
    qy, _ = np.linalg.qr(np.asarray(y, dtype=float))
    assert qx.shape == qy.shape
    sine = np.linalg.norm(qy - qx @ (qx.T @ qy), 2)
    return float(np.arcsin(min(1.0, sine)))


# ----------------------------------------------------------------------
# per-root eigenfield route (one system, one SVD and one series set per
# exponent; the batched eigenfield must give its bits)
# ----------------------------------------------------------------------

def _lone(coef, r_exp, freq, kind):
    return PolarSeries(((coef, r_exp, freq, kind),))


def basis_members(mode, p, nu, keep_zero=False):
    """The standard degree-p basis members, each written out as series,
    and the indices of those kept: a member that is the zero field, and
    the plane third member where its frequency p - 3 lies within KEY_TOL
    of -(p - 1) or -(p + 1), are dropped unless keep_zero is set."""
    if mode is Mode.ANTIPLANE_ODD:
        members = [DisplacementField.antiplane(_lone(1.0, p, p, "sin")),
                   DisplacementField.antiplane(
                       _lone(1.0, p, p - 2.0, "sin"))]
    else:
        pole = p - 7.0 + 8.0 * nu
        if abs(pole) < 1e-6:
            c_r3, c_t3 = pole, p + 5.0 - 8.0 * nu
        else:
            c_r3, c_t3 = 1.0, utheta_ratio(p, nu)
        zero = PolarSeries(())
        if mode is Mode.PLANE_SYM:
            comps = [(_lone(1.0, p, p - 1.0, "cos"), zero),
                     (_lone(1.0, p, p + 1.0, "cos"),
                      _lone(-1.0, p, p + 1.0, "sin")),
                     (_lone(c_r3, p, p - 3.0, "cos"),
                      _lone(-c_t3, p, p - 3.0, "sin")),
                     (zero, _lone(1.0, p, p - 1.0, "sin"))]
        else:
            comps = [(_lone(1.0, p, p - 1.0, "sin"), zero),
                     (_lone(1.0, p, p + 1.0, "sin"),
                      _lone(1.0, p, p + 1.0, "cos")),
                     (_lone(c_r3, p, p - 3.0, "sin"),
                      _lone(c_t3, p, p - 3.0, "cos")),
                     (zero, _lone(1.0, p, p - 1.0, "cos"))]
        members = [DisplacementField.plane(mode, u_r, u_t)
                   for u_r, u_t in comps]
    coincides = mode.is_plane and min(abs(2.0 * p - 4.0),
                                      abs(2.0 * p - 2.0)) <= KEY_TOL
    kept = tuple(j for j, member in enumerate(members)
                 if keep_zero or not (member.is_zero
                                      or (j == 2 and coincides)))
    return tuple(members[j] for j in kept), kept


def null_vectors_one_system(matrix, col_scales):
    """Null vectors of one face-condition system by its own SVD: columns
    normalized by their scales, singular values below 1e-6 of
    max(top singular value, 1) null; unit norm, largest entry positive."""
    scales = np.maximum(col_scales, 1e-300)
    _, sigma, vh = np.linalg.svd(matrix / scales[np.newaxis, :])
    cutoff = 1e-6 * max(float(sigma[0]), 1.0)
    vectors = []
    for i in range(matrix.shape[1]):
        if sigma[i] < cutoff:
            v = vh[i, :] / scales
            v = v / np.linalg.norm(v)
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            vectors.append(v)
    return vectors


def eigenfield_per_root(case, material, p):
    """Eigenfields at one exponent the per-root way: the kept members'
    columns of a one-exponent face stack, one SVD, the reduced echelon
    basis for nullity two or more, and each field combined from the
    members' series. None where there is no null vector."""
    if abs(p - 1.0) <= 1e-12:
        return basis.special_p1_solution(case, material)
    members, kept = basis_members(case.mode, p, material.nu)
    matrices, scales = basis.bc_matrix(case, np.array([p]), material.nu)
    cols = list(kept)
    vectors = null_vectors_one_system(matrices[0][:, cols], scales[0][cols])
    if not vectors:
        return None
    if len(vectors) == 1:
        rows = [vectors[0] / np.linalg.norm(vectors[0])]
    else:
        rows = basis._echelon(np.column_stack(vectors))
    amps = tuple(tuple(float(x) for x in v) for v in rows)
    return EigenSolution(case=case, material=material, p=p,
                         kind="bracket_root", nullity=len(amps),
                         amplitudes=amps,
                         fields=tuple(combine_fields(v, members)
                                      for v in amps))


# ----------------------------------------------------------------------
# crack-mode constants and general-exponent closed forms (literal
# transcriptions; second route for the dual-construction checks)
# ----------------------------------------------------------------------

def crack_mode_p1_constants(mode_label, amps):
    """Constant-strain coefficients for each crack mode's p = 1 part."""
    if mode_label == "I":
        c1, c3 = (float(x) for x in amps)
        return (c1, c3)
    if mode_label == "II":
        (c2,) = (float(x) for x in amps)
        return (c2,)
    if mode_label == "III":
        (e_amp,) = (float(x) for x in amps)
        return (e_amp,)
    raise ValueError(f"unknown crack mode {mode_label!r}")


def _face_series(mode, p, nu, amps, material):
    """Face operators of a degree-p field with standard amplitudes amps."""
    rows = face_rows(mode, np.array([p]), nu)
    weights = [material.mu * material.c * float(x) for x in amps]
    if mode.is_plane:
        # the standard third member is the pole-scaled one over the pole
        weights[2] /= p + 8.0 * nu - 7.0
    return {key: PolarSeries(tuple(
                (float(rows.coef[0, i, j]) * w, p + rows.r_shift[i],
                 float(rows.freq[0, j]), rows.kinds[i])
                for j, w in enumerate(weights)))
            for i, key in enumerate(rows.keys)}


def reference_general_series(mode, p, nu, amps, material):
    """Closed-form series for a general degree-p field, given standard
    basis amplitudes (4 for plane modes, 2 for the anti-plane mode).

    Transcribed directly from the general closed forms, independent of the
    constitutive pipeline. Covers strains, monopolar stresses (without the
    out-of-plane component), dipolar stresses, and the theta-face total
    tractions; the face operators come from face_rows.
    """
    mu, c = material.mu, material.c
    if mode is Mode.ANTIPLANE_ODD:
        d1, d2 = (float(x) for x in amps)
        fp, fm = p, p - 2.0

        def ser(r_exp, pref, c1, c2, kind):
            return PolarSeries(((pref * c1 * d1, r_exp, fp, kind),
                                (pref * c2 * d2, r_exp, fm, kind)))

        out = {
            "eps_rz": ser(p - 1, 0.5 * p, 1.0, 1.0, "sin"),
            "eps_tz": ser(p - 1, 0.5, p, p - 2.0, "cos"),
            "tau_rz": ser(p - 1, mu * p, 1.0, 1.0, "sin"),
            "tau_tz": ser(p - 1, mu, p, p - 2.0, "cos"),
            "m_trz": ser(p - 2, mu * c * (p - 1), p, p - 2.0, "cos"),
            "m_rrz": ser(p - 2, mu * c * p * (p - 1), 1.0, 1.0, "sin"),
        }
        out["m_rtz"] = out["m_trz"]
        out.update(_face_series(mode, p, nu, (d1, d2), material))
        return out

    if len(tuple(amps)) != 4:
        raise ValueError("plane modes take 4 standard amplitudes")
    a = [float(x) for x in amps]
    sym = mode is Mode.PLANE_SYM
    f1, f2, f3 = p - 1.0, p + 1.0, p - 3.0
    pole = p + 8.0 * nu - 7.0
    w12 = 1.0 - 2.0 * nu

    def build(r_exp, pref, rows):
        # rows: (amp_index, sym_coef, anti_coef, freq, sym_kind)
        terms = []
        for i, cs, ca, freq, kind in rows:
            if sym:
                terms.append((pref * cs * a[i], r_exp, freq, kind))
            else:
                flip = "sin" if kind == "cos" else "cos"
                terms.append((pref * ca * a[i], r_exp, freq, flip))
        return PolarSeries(tuple(terms))

    q2 = (p * p + p - 8.0 * p * nu + 16.0 * nu - 8.0) / pole
    q3 = (p * p - 3.0 * p - 8.0 * nu + 8.0) / pole
    k1 = (p + nu - p * nu) / w12
    k3 = (p * p - 7.0 * p + 8.0 * nu) / pole
    k1b = (1.0 - nu + p * nu) / w12
    k3b = (p * p + p + 8.0 * nu - 8.0) / pole
    h1 = (1.0 - 3.0 * nu - p + p * nu) / w12
    h3 = (p * p - 11.0 * p + 8.0 * nu + 16.0) / pole
    h4 = (1.0 - 3.0 * nu + p * nu) / w12

    rows_tau_rr = [(0, k1, k1, f1, "cos"), (1, p, p, f2, "cos"),
                   (2, k3, k3, f3, "cos"),
                   (3, nu * f1 / w12, -nu * f1 / w12, f1, "cos")]
    rows_tau_tt = [(0, k1b, k1b, f1, "cos"), (1, -p, -p, f2, "cos"),
                   (2, -k3b, -k3b, f3, "cos"),
                   (3, (1.0 - nu) * f1 / w12, -(1.0 - nu) * f1 / w12,
                    f1, "cos")]
    rows_tau_rt = [(0, -f1, f1, f1, "sin"), (1, -2.0 * p, 2.0 * p, f2, "sin"),
                   (2, -2.0 * q3, 2.0 * q3, f3, "sin"),
                   (3, f1, f1, f1, "sin")]

    out = {
        "eps_rr": build(p - 1, 1.0, [(0, p, p, f1, "cos"),
                                     (1, p, p, f2, "cos"),
                                     (2, p, p, f3, "cos")]),
        "eps_tt": build(p - 1, 1.0, [(0, 1.0, 1.0, f1, "cos"),
                                     (1, -p, -p, f2, "cos"),
                                     (2, -q2, -q2, f3, "cos"),
                                     (3, f1, -f1, f1, "cos")]),
        "eps_rt": build(p - 1, 1.0, [(0, -0.5 * f1, 0.5 * f1, f1, "sin"),
                                     (1, -p, p, f2, "sin"),
                                     (2, -q3, q3, f3, "sin"),
                                     (3, 0.5 * f1, 0.5 * f1, f1, "sin")]),
        "tau_rr": build(p - 1, 2.0 * mu, rows_tau_rr),
        "tau_tt": build(p - 1, 2.0 * mu, rows_tau_tt),
        "tau_rt": build(p - 1, mu, rows_tau_rt),
        "m_rrr": build(p - 2, 2.0 * c * mu * f1, rows_tau_rr),
        "m_rrt": build(p - 2, c * mu * f1, rows_tau_rt),
        "m_trr": build(p - 2, 2.0 * c * mu * f1,
                       [(0, h1, -h1, f1, "sin"), (1, -p, p, f2, "sin"),
                        (2, -h3, h3, f3, "sin"), (3, -h4, -h4, f1, "sin")]),
        "m_rtt": build(p - 2, 2.0 * c * mu * f1, rows_tau_tt),
    }
    out.update(_face_series(mode, p, nu, a, material))
    return out
