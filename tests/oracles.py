"""Independent oracles used by the test suite.

Everything in this module is written directly from closed-form expressions
and elementary numerics, so that test comparisons are made against a
genuinely independent code path. Only the general-exponent closed forms
and the per-root eigenfield route import the package: the closed forms
build its PolarSeries and read its face-operator table (basis.face_rows),
since what they check is the constitutive pipeline, not those. The
oracles are:

- a plain bisection root finder and second transcriptions of the three
  characteristic bracket functions, with their roots at 30 digits
  (mpmath);
- the root scanner's triggers and scale from one numpy evaluation of
  its whole grid (scan_triggers_one_shot), and its roots from those
  triggers refined all at once, sorted and merged (scan_roots_one_shot);
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
- adaptive quadrature (scipy.integrate.quad) for arc resultants;
- the strain-energy density as the quadratic form in the strain and its
  gradient with the material constants (energy_density_from_strain),
  on series or, through MpJet, at one point in mpmath;
- the determinant-zero check as a loop over its grid
  (det_vs_charfn_loop);
- the series canonical form that merges in (kind, freq, r_exp) order and
  sorts again to store (canonical_two_sorts);
- the CLI's JSON writer as it was written first, one recursive call and
  one json.dumps per value (to_json_per_value);
- the CLI's field CSV writer as it was before the '%.17g' kernel, one
  `%` of a row template per row (field_csv_per_row).
"""

import json
import math

import mpmath
import numpy as np
from scipy.integrate import quad

from gradnotch import basis
from gradnotch.basis import face_rows
from gradnotch.model import (KEY_TOL, PRUNE_REL, DisplacementField, Mode,
                             PolarSeries, Term, assemble_field)


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


def scan_triggers_one_shot(case, nu, p_max=4.0):
    """The root scanner's (triggers, scale) with its whole grid evaluated
    in one numpy call: the grid p_k = 1 + 1e-6 + 1e-3 k runs two cells
    past p_max, the scale is max(1, max|f|) over p <= p_max + 1e-9, and
    a trigger is a sign change across a cell or a dip, a local minimum
    of |f| with no sign change below 1e-3 of the scale."""
    from gradnotch.charfn import char_bracket

    n = max(int(round((p_max - (1.0 + 1e-6)) / 1e-3)), 2)
    grid = (1.0 + 1e-6) + 1e-3 * np.arange(n + 3)
    vals = np.asarray(char_bracket(grid, case, nu), dtype=float)
    scale = max(1.0, float(np.max(np.abs(vals[grid <= p_max + 1e-9]))))
    sign, absv = np.sign(vals), np.abs(vals)
    triggers = []
    for i in range(len(grid) - 1):
        if sign[i] != sign[i + 1]:
            triggers.append((float(grid[i]), float(grid[i + 1]), False))
        elif (i + 2 < len(grid) and sign[i + 1] == sign[i + 2]
              and absv[i + 1] <= absv[i] and absv[i + 1] <= absv[i + 2]
              and absv[i + 1] < 1e-3 * scale):
            triggers.append((float(grid[i]), float(grid[i + 2]), True))
    return triggers, scale


def scan_roots_one_shot(case, nu, p_max=4.0):
    """The root scanner's roots from scan_triggers_one_shot: every trigger
    refined by the scanner's own refinement, all the roots sorted, and
    each run of roots less than 1e-9 apart merged into its root of least
    |f|. It checks the order of the scanner's root stream, not its
    refinement."""
    from gradnotch import eigensolver

    scan = eigensolver._Scan(case, nu,
                             eigensolver.RootScanOptions(p_max=p_max))
    triggers, _ = scan_triggers_one_shot(case, nu, p_max)
    roots = sorted(p for trigger in triggers for p in scan._refine(*trigger))
    groups = []
    for p in roots:
        if groups and p - groups[-1][-1] <= 1e-9:
            groups[-1].append(p)
        else:
            groups.append([p])
    return [min(group, key=lambda x: abs(scan.f(x))) for group in groups]


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
    """Eigenfields at one exponent the per-root way, as (amplitudes,
    fields): the kept members' columns of a one-exponent face stack, one
    SVD, the reduced echelon basis for nullity two or more, and each field
    combined from the members' literal series. None where there is no
    null vector."""
    if abs(p - 1.0) <= 1e-12:
        sol = basis.special_p1_solution(case, material)
        return sol.amplitudes, sol.fields
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
    terms = [[comp.terms for comp in f.components()] for f in members]
    return amps, tuple(assemble_field(case.mode, terms, v) for v in amps)


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


# ----------------------------------------------------------------------
# strain-energy density from the material constants
# ----------------------------------------------------------------------

def polar_gradient(*comps):
    """Polar components of the gradient of a symmetric tensor: (a_rr,
    a_tt, a_rt) gives (g_rrr, g_rrt, g_rtt, g_trr, g_ttr, g_ttt) and
    (a_rz, a_tz) gives (g_rrz, g_rtz, g_trz, g_ttz), g_kij with k the
    derivative direction."""
    if len(comps) == 3:
        a_rr, a_tt, a_rt = comps
        return (a_rr.dr(), a_rt.dr(), a_tt.dr(),
                (a_rr.dtheta() - a_rt.scaled(2.0)).div_r(),
                (a_rt.dtheta() + a_rr - a_tt).div_r(),
                (a_tt.dtheta() + a_rt.scaled(2.0)).div_r())
    a_rz, a_tz = comps
    return (a_rz.dr(), a_tz.dr(), (a_rz.dtheta() - a_tz).div_r(),
            (a_tz.dtheta() + a_rz).div_r())


def energy_density_from_strain(eps, material):
    """W = lam/2 tr(eps)^2 + mu eps:eps + lam c/2 |grad tr(eps)|^2
    + mu c grad(eps):grad(eps), the quadratic form in the strain and its
    gradient written out with lam, mu and c.

    eps maps the strain keys to PolarSeries, or to MpJet values at one
    point for a high-precision evaluation.
    """
    mu, lam, c = material.mu, material.lam, material.c
    if "eps_rr" in eps:
        e_rr, e_tt, e_rt = eps["eps_rr"], eps["eps_tt"], eps["eps_rt"]
        trace = e_rr + e_tt
        w = (trace * trace).scaled(0.5 * lam)
        w = w + (e_rr * e_rr + e_tt * e_tt
                 + (e_rt * e_rt).scaled(2.0)).scaled(mu)
        tr_r = trace.dr()
        tr_t = trace.dtheta().div_r()
        w = w + (tr_r * tr_r + tr_t * tr_t).scaled(0.5 * lam * c)
        g_rrr, g_rrt, g_rtt, g_trr, g_trt, g_ttt = polar_gradient(
            e_rr, e_tt, e_rt)
        grad2 = (g_rrr * g_rrr + g_rtt * g_rtt + (g_rrt * g_rrt).scaled(2.0)
                 + g_trr * g_trr + g_ttt * g_ttt + (g_trt * g_trt).scaled(2.0))
        return w + grad2.scaled(mu * c)
    e_rz, e_tz = eps["eps_rz"], eps["eps_tz"]
    w = (e_rz * e_rz + e_tz * e_tz).scaled(2.0 * mu)
    g_rrz, g_rtz, g_trz, g_ttz = polar_gradient(e_rz, e_tz)
    grad2 = g_rrz * g_rrz + g_rtz * g_rtz + g_trz * g_trz + g_ttz * g_ttz
    return w + grad2.scaled(2.0 * mu * c)


class MpJet:
    """A series' value at one point (r, theta) with its r and theta
    partials, in mpmath: the calculus energy_density_from_strain asks of
    a strain component (one derivative, then products). A partial that
    an operation cannot supply is None."""

    def __init__(self, r, v, v_r=None, v_t=None):
        self.r, self.v, self.v_r, self.v_t = r, v, v_r, v_t

    @classmethod
    def of_series(cls, series, r, theta):
        r, theta = mpmath.mpf(r), mpmath.mpf(theta)
        v = v_r = v_t = mpmath.mpf(0)
        for t in series.terms:
            coef, e, f = (mpmath.mpf(x) for x in (t.coef, t.r_exp, t.freq))
            if t.kind == "cos":
                trig, d_trig = mpmath.cos(f * theta), -f * mpmath.sin(f * theta)
            else:
                trig, d_trig = mpmath.sin(f * theta), f * mpmath.cos(f * theta)
            v += coef * r**e * trig
            v_r += coef * e * r**(e - 1) * trig
            v_t += coef * r**e * d_trig
        return cls(r, v, v_r, v_t)

    @staticmethod
    def _both(a, b, op):
        return None if a is None or b is None else op(a, b)

    def __add__(self, other):
        return MpJet(self.r, self.v + other.v,
                     self._both(self.v_r, other.v_r, mpmath.fadd),
                     self._both(self.v_t, other.v_t, mpmath.fadd))

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def __mul__(self, other):
        return MpJet(self.r, self.v * other.v)

    def scaled(self, k):
        k = mpmath.mpf(k)
        return MpJet(self.r, k * self.v,
                     None if self.v_r is None else k * self.v_r,
                     None if self.v_t is None else k * self.v_t)

    def dr(self):
        return MpJet(self.r, self.v_r)

    def dtheta(self):
        return MpJet(self.r, self.v_t)

    def div_r(self):
        return MpJet(self.r, self.v / self.r)


# ----------------------------------------------------------------------
# determinant-zero check, one grid point at a time
# ----------------------------------------------------------------------

def det_vs_charfn_loop(case, nu=None):
    """verify.det_vs_charfn as a loop over its grid: each point builds
    its own window mask and exclusion distance. Returns (roots,
    max_root_ratio, min_off_ratio, passed)."""
    from gradnotch import verify
    from gradnotch.eigensolver import RootScanOptions, find_roots

    lo, hi, n_grid = verify._DET_P_LO, verify._DET_P_HI, verify._DET_N_GRID
    nu_det = 0.0 if nu is None else nu
    grid = np.linspace(lo, hi, n_grid)
    det = basis.bc_det(case, grid, nu_det)
    roots = sorted([1.0, 2.0] + list(find_roots(
        case, nu=nu, options=RootScanOptions(p_max=hi))))
    exclude = list(roots)
    if case.mode.is_plane:
        pole = 7.0 - 8.0 * nu
        if lo - 0.2 < pole < hi + 0.2:
            exclude.append(pole)

    def window_max(p, half=0.15):
        mask = np.abs(grid - p) <= half
        return float(np.max(np.abs(det[mask]))) if mask.any() else 0.0

    max_root_ratio = 0.0
    in_range = [root for root in roots if lo <= root <= hi]
    root_det = basis.bc_det(case, np.array(in_range), nu_det)
    for root, val in zip(in_range, np.abs(root_det)):
        ref = max(window_max(root), verify._TINY)
        max_root_ratio = max(max_root_ratio, float(val) / ref)

    min_off_ratio = math.inf
    for i, p in enumerate(grid):
        if min(abs(p - x) for x in exclude) <= 0.1:
            continue
        ref = max(window_max(float(p)), verify._TINY)
        min_off_ratio = min(min_off_ratio, abs(det[i]) / ref)

    passed = max_root_ratio < 1e-6 and min_off_ratio > 1e-6
    return tuple(roots), max_root_ratio, min_off_ratio, passed


# ----------------------------------------------------------------------
# series canonical form, sorted twice
# ----------------------------------------------------------------------

def canonical_two_sorts(raw_terms) -> tuple:
    """model._canonical as it merged before: sort by (kind, freq, r_exp)
    to merge neighbours within KEY_TOL, prune, then sort the kept terms
    by (r_exp, freq, kind) to store them."""
    norm = []
    for coef, r_exp, freq, kind in raw_terms:
        coef = float(coef)
        if coef == 0.0:
            continue
        r_exp = float(r_exp)
        freq = float(freq)
        if abs(freq) <= KEY_TOL:
            if kind == "sin":
                continue
            freq = 0.0
        elif freq < 0.0:
            freq = -freq
            if kind == "sin":
                coef = -coef
        if abs(r_exp) <= KEY_TOL:
            r_exp = 0.0
        norm.append((kind, freq, r_exp, coef))

    norm.sort(key=lambda t: (t[0], t[1], t[2]))
    merged = []
    for kind, freq, r_exp, coef in norm:
        if merged:
            k0, f0, e0, c0 = merged[-1]
            if (kind == k0 and abs(freq - f0) <= KEY_TOL
                    and abs(r_exp - e0) <= KEY_TOL):
                merged[-1] = (k0, f0, e0, c0 + coef)
                continue
        merged.append((kind, freq, r_exp, coef))

    big = max((abs(c) for _, _, _, c in merged), default=0.0)
    cut = PRUNE_REL * big
    kept = [Term(c, e, f, k) for k, f, e, c in merged if abs(c) > cut]
    kept.sort(key=lambda t: (t.r_exp, t.freq, t.kind))
    return tuple(kept)


# ----------------------------------------------------------------------
# JSON writer, one call per value
# ----------------------------------------------------------------------

def to_json_per_value(obj) -> str:
    """cli._to_json as it was written first: compact JSON with sorted
    keys and 17-digit floats, json.dumps for every key and string, and a
    non-finite float refused with ValueError."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"{obj!r} is not a JSON number")
        return "%.17g" % float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json_per_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + to_json_per_value(v)
            for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ----------------------------------------------------------------------
# field CSV writer, one row at a time
# ----------------------------------------------------------------------

def field_csv_per_row(keys, radii, thetas, grid) -> str:
    """The field CSV as cli._field_csv wrote it before its numpy kernel:
    the header, then per radius one `%` of a row template per theta step.
    The template holds the r text, and the theta text is formatted once
    per step; grid is radii x steps x keys."""
    lines = ["r,theta," + ",".join(keys) + "\n"]
    theta_text = ["%.17g" % theta for theta in thetas.tolist()]
    values_fmt = ",".join(["%.17g"] * len(keys)) + "\n"
    for r, values in zip(radii, grid):
        row_fmt = "%.17g" % r + ",%s," + values_fmt
        lines += [row_fmt % (text, *row)
                  for text, row in zip(theta_text, values.tolist())]
    return "".join(lines)
