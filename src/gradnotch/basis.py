"""Separable solution basis and the traction-free face conditions.

For a wedge occupying |theta| <= a, each symmetry class admits a finite
basis of degree-p displacement fields solving the leading field equations.
Traction-free faces impose the vanishing of the total tractions and the
dipolar (double) tractions on theta = +/-a; by symmetry it suffices to
enforce them on theta = +a, giving a square linear system in the basis
amplitudes. Eigenvalues p are where that system is singular; eigenfields
are its null vectors.

The basis members are written down once, as a term table of
(coef, r_exp, freq, kind) per member and displacement component
(_member_terms; the p = 1 constant-strain members likewise), and their
face operators once, in closed form (face_rows, one coefficient per
row and member); the two share the member frequencies, each class's
trig kinds, the class sign s (model.Mode.sign: +1 symmetric, -1
anti-symmetric, the one thing besides the trig kinds that tells the two
plane classes apart) and the third member's pole factor. Each refuses
a plane nu outside (-1, 1/2) with model.OutOfRange. A solution keeps
its amplitudes and the table they run over; model.assemble_field builds
a bracket root's fields from the two on first read, so eigenfield
builds no series but the p = 1 entry's few.
The face-condition system has two stages, each over a whole array of
exponents: bc_matrix assembles face_rows as one stack of matrices over
every member, and null_space takes the null vectors of a stack of
systems over the same kept columns with one stacked SVD. bc_det,
singular_ratio and eigenfield are built on them; eigenfield takes a
scalar p or a 1-D array of p, like bc_det, and solves an array in one
pass. The series pipeline, which this module does not import, builds
the same matrix by an independent route (fields.apply_bc_operators).

Degeneracies handled here:

* at p = 2 the anti-plane second member vanishes identically (its angular
  frequency is zero), so it is dropped and the system loses a column;
* at p = 2 the plane third member coincides with a combination of the
  first and fourth (its frequency p - 3 meets their -(p - 1)), and at
  p = 1 with plus or minus the second (p - 3 meets -(p + 1)), so it is
  dropped where canonical form would merge those frequencies; the null
  space then holds no direction with identically zero field;
* the third-member coupling ratio has a pole at p = 7 - 8 nu, where the
  member is rescaled by the pole factor to stay finite;
* a sin(0 theta) face term is identically zero, so it adds nothing to
  its column's scale (as in the canonical series).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .model import (
    KEY_TOL,
    DisplacementField,
    EigenSolution,
    MaterialParams,
    Mode,
    WedgeCase,
    assemble_field,
    check_poisson_ratio,
)

__all__ = [
    "EmptyNullSpace",
    "third_member_ratio",
    "FaceRows",
    "face_rows",
    "basis_fields",
    "bc_matrix",
    "bc_det",
    "null_space",
    "singular_ratio",
    "eigenfield",
    "special_p1_field",
    "special_p1_solution",
    "solution_from_amplitudes",
    "attach_p1",
]

_POLE_TOL = 1e-6
NULL_TOL = 1e-6
# per plane symmetry class: the trig kinds of (u_r, u_theta)
_PLANE_KINDS = {Mode.PLANE_SYM: ("cos", "sin"),
                Mode.PLANE_ANTI: ("sin", "cos")}


class EmptyNullSpace(Exception):
    """The face-condition system has no null vector at this exponent."""


def third_member_ratio(p: float, nu: float) -> float:
    """Tangential/radial coupling ratio of the third plane basis member.

    Has a simple pole at p = 7 - 8 nu; callers near the pole should use the
    rescaled member produced by basis_fields instead.
    """
    return (p + 5.0 - 8.0 * nu) / _pole_factor(p, nu)[0]


def _pole_factor(p, nu) -> tuple:
    """(p - 7 + 8 nu, near): the third plane member's pole factor at p (a
    float or an array), and whether p is within _POLE_TOL of its zero."""
    pole = p - 7.0 + 8.0 * nu
    return pole, abs(pole) < _POLE_TOL


def _member_freqs(mode: Mode, p) -> tuple:
    """Angular frequencies of the standard members (p a float or an array)."""
    if mode is Mode.ANTIPLANE_ODD:
        return p, p - 2.0
    return p - 1.0, p + 1.0, p - 3.0, p - 1.0


def _member_terms(mode: Mode, p: float, nu: float | None) -> tuple:
    """The standard degree-p basis members as one term table.

    One entry per member; an entry holds, per displacement component
    ((u_r, u_theta) for plane modes, (w,) for anti-plane), the terms
    (coef, r_exp, freq, kind) of that component. This is the one
    transcription of the basis: every basis field is built from it (by
    model.assemble_field). A plane mode's nu outside (-1, 1/2), None
    included, raises OutOfRange; u_theta's sign is minus the class sign.
    """
    f = _member_freqs(mode, p)
    if mode is Mode.ANTIPLANE_ODD:
        return tuple((((1.0, p, freq, "sin"),),) for freq in f)
    check_poisson_ratio(nu)
    pole, near = _pole_factor(p, nu)
    if near:
        c_r3, c_t3 = pole, p + 5.0 - 8.0 * nu
    else:
        c_r3, c_t3 = 1.0, third_member_ratio(p, nu)
    r_kind, t_kind = _PLANE_KINDS[mode]
    sign = -mode.sign
    return (
        (((1.0, p, f[0], r_kind),), ()),
        (((1.0, p, f[1], r_kind),), ((sign, p, f[1], t_kind),)),
        (((c_r3, p, f[2], r_kind),), ((sign * c_t3, p, f[2], t_kind),)),
        ((), ((1.0, p, f[3], t_kind),)),
    )


class FaceRows(NamedTuple):
    """Face operators of the standard degree-p basis members, closed form.

    Operator keys[i] of member j is the single term
    coef[k, i, j] * r**(p[k] + r_shift[i]) * kinds[i](freq[k, j] * theta)
    at exponent p[k], with unit mu and c (every face operator is
    proportional to mu * c). The plane third member enters multiplied
    through by its pole factor p - 7 + 8 nu, which keeps every
    coefficient finite.
    """

    keys: tuple
    kinds: tuple
    r_shift: tuple
    coef: np.ndarray
    freq: np.ndarray


def face_rows(mode: Mode, p, nu: float | None) -> FaceRows:
    """Closed-form face operators of the standard basis members at every
    exponent of the 1-D array p: the plane rows (t_tr, t_tt, m_ttr, m_ttt)
    and the anti-plane rows (t_tz, m_ttz), one column per member.

    This is the one transcription of the face conditions; bc_matrix reads
    it. A plane mode's nu outside (-1, 1/2), None included, raises
    OutOfRange. Plain arithmetic only, so p and nu may also be mpmath
    numbers (p an object array) for a high-precision reference.
    """
    p = np.asarray(p)
    f1 = p - 1.0
    # (key, prefactor, member coefficients, kind, r shift)
    if mode is Mode.ANTIPLANE_ODD:
        table = (("t_tz", -f1 * (p - 2.0), (p, p + 2.0), "cos", -3.0),
                 ("m_ttz", -f1, (p, p - 4.0), "sin", -2.0))
    else:
        check_poisson_ratio(nu)
        w12 = 1.0 - 2.0 * nu
        e1 = (1.0 + p) * (1.0 - nu) / w12
        e4 = (nu - 1.0 + p * nu) / w12
        g1 = (3.0 * nu - 2.0 - p * nu) / w12
        g3 = p * p - 3.0 * p + 8.0 * nu - 8.0
        g4 = (2.0 - p - 3.0 * nu + p * nu) / w12
        t3 = 2.0 * (p * p + p - 8.0 * nu + 8.0)
        m3 = 2.0 * (p * p - 7.0 * p - 8.0 * nu + 16.0)
        r_kind, t_kind = _PLANE_KINDS[mode]
        s = mode.sign
        # t_tr and m_ttt take u_theta's trig kind, and the class sign s on
        # members 0-2; t_tt and m_ttr take u_r's, and s on member 3
        table = (
            ("t_tr", 2.0 * f1 * (p - 2.0), (s * e1, s * p, s * g3, e4),
             t_kind, -3.0),
            ("t_tt", f1 * (p - 2.0), (p + 1.0, 2.0 * p, t3, -s * (p + 1.0)),
             r_kind, -3.0),
            ("m_ttr", -f1, (p - 3.0, 2.0 * p, m3, -s * (p - 3.0)), r_kind,
             -2.0),
            ("m_ttt", 2.0 * f1, (s * g1, s * p, s * g3, g4), t_kind, -2.0),
        )
    coef = np.stack([np.stack([pref * c for c in coefs], axis=-1)
                     for _, pref, coefs, _, _ in table], axis=-2)
    return FaceRows(keys=tuple(row[0] for row in table),
                    kinds=tuple(row[3] for row in table),
                    r_shift=tuple(row[4] for row in table),
                    coef=coef, freq=np.stack(_member_freqs(mode, p), axis=-1))


# the constant-strain (p = 1) members of each class as a term table (one
# member per free constant), with the message for a wrong constant count
_P1_MEMBERS = {
    Mode.PLANE_SYM: ("the symmetric plane class takes 2 constants "
                     "(C1, C3)", (
        (((1.0, 1.0, 0.0, "cos"),), ()),
        (((1.0, 1.0, 2.0, "cos"),), ((-1.0, 1.0, 2.0, "sin"),)))),
    Mode.PLANE_ANTI: ("the antisymmetric plane class takes 1 constant "
                      "(C2)", (
        (((1.0, 1.0, 2.0, "sin"),), ((1.0, 1.0, 2.0, "cos"),)),)),
    Mode.ANTIPLANE_ODD: ("the anti-plane class takes 1 constant (E)", (
        (((1.0, 1.0, 1.0, "sin"),),),)),
}


def _survives(term) -> bool:
    """Whether canonical form keeps a lone term: its coefficient is finite
    and nonzero, and it is not a sin of zero frequency."""
    coef, _, freq, kind = term
    return 0.0 < abs(coef) < math.inf and not (
        kind == "sin" and abs(freq) <= KEY_TOL)


def _kept_terms(mode: Mode, p: float, nu: float | None) -> tuple:
    """(kept, members): the indices of the degree-p basis members that are
    kept, and their term-table entries, decided in closed form (no series
    is built). A member whose every term canonical form drops is the zero
    field, and the plane third member coincides with a combination of the
    others where its frequency p - 3 lies within KEY_TOL of -(p - 1) or
    -(p + 1), the keys canonical form merges; both are dropped."""
    table = _member_terms(mode, p, nu)
    coincides = mode.is_plane and min(abs(2.0 * p - 4.0),
                                      abs(2.0 * p - 2.0)) <= KEY_TOL
    kept = tuple(j for j, member in enumerate(table)
                 if not (j == 2 and coincides)
                 and any(_survives(t) for comp in member for t in comp))
    return kept, tuple(table[j] for j in kept)


def basis_fields(case: WedgeCase, p: float,
                 nu: float | None = None) -> tuple[tuple, tuple]:
    """Standard degree-p basis members for the given symmetry class.

    Returns (fields, kept_indices). Degenerate members are dropped and
    kept_indices records the survivors: a member that is the zero field,
    and the plane third member where it coincides with a combination of
    the others (p within KEY_TOL / 2 of 2 or of 1). A plane mode's nu
    outside (-1, 1/2), None included, raises OutOfRange.
    """
    kept, members = _kept_terms(case.mode, p, nu)
    return tuple(assemble_field(case.mode, (member,), (1.0,))
                 for member in members), kept


def bc_matrix(case: WedgeCase, p: np.ndarray, nu: float | None):
    """Face-condition matrices and column scales of every basis member
    (degenerate ones kept) at each exponent of the 1-D array p.

    Returns (matrices, col_scales) of shapes (n_p, rows, members) and
    (n_p, members), the members in standard order. The entries are the
    closed-form face operators at (r, theta) = (1, a); a column's scale is
    its largest coefficient, as in the canonical series the pipeline would
    build. A solve over the kept members takes their columns of both.
    """
    rows = face_rows(case.mode, p, nu)
    coef = rows.coef
    if case.mode.is_plane:
        # the third member is divided by its pole factor except near the
        # pole, exactly as the member term table writes it
        pole, near = _pole_factor(p, nu)
        coef[:, :, 2] /= np.where(near, 1.0, pole)[:, np.newaxis]
    freq = rows.freq[:, np.newaxis, :]
    is_sin = np.array([kind == "sin" for kind in rows.kinds])[:, np.newaxis]
    # canonical form drops sin terms of zero frequency
    coef = np.where(is_sin & (np.abs(freq) <= KEY_TOL), 0.0, coef)
    angle = freq * case.half_angle_a
    matrix = coef * np.where(is_sin, np.sin(angle), np.cos(angle))
    return matrix, np.max(np.abs(coef), axis=1)


def bc_det(case: WedgeCase, p, nu: float):
    """Determinant of the raw square face-condition matrix (degenerate
    members kept, so the determinant vanishes with them), at a scalar p
    (returns a float) or at each p of a 1-D array (returns an array)."""
    p_arr = np.asarray(p, dtype=float)
    matrix, _ = bc_matrix(case, np.atleast_1d(p_arr), nu)
    det = np.linalg.det(matrix)
    return float(det[0]) if p_arr.ndim == 0 else det


def null_space(matrices: np.ndarray, col_scales: np.ndarray) -> list:
    """Null vectors of each system of a stack, from one stacked SVD.

    matrices (n, rows, cols) and col_scales (n, cols) hold n face-condition
    systems over the same kept columns (rows >= cols, as every face system
    has). Returns one list per system of its null vectors in kept-member
    amplitudes (unit norm, largest component positive). Columns are
    normalized by their coefficient scales first, so "small" is measured
    against the natural size of each member's face operators; a singular
    value counts as null below NULL_TOL relative to the larger of the top
    singular value and the unit column scale.
    """
    scales = np.maximum(col_scales, 1e-300)
    _, sigma, vh = np.linalg.svd(matrices / scales[:, np.newaxis, :])
    null = sigma < NULL_TOL * np.maximum(sigma[:, :1], 1.0)
    found = []
    for is_null, v_h, scale in zip(null, vh, scales):
        vectors = []
        for v in v_h[is_null]:
            v = v / scale
            v = v / np.linalg.norm(v)
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            vectors.append(v)
        found.append(vectors)
    return found


def singular_ratio(case: WedgeCase, p: float, nu: float) -> float:
    """Smallest-to-largest singular value of the normalized system over
    the kept basis members.

    The denominator is floored at the unit column scale so the ratio stays
    meaningful for one-column systems. Near an eigenvalue the ratio drops
    toward zero; away from eigenvalues it is order one.
    """
    kept, _ = _kept_terms(case.mode, p, nu)
    matrices, scales = bc_matrix(case, np.array([float(p)]), nu)
    cols = list(kept)
    sigma = np.linalg.svd(matrices[0][:, cols]
                          / np.maximum(scales[0][cols], 1e-300),
                          compute_uv=False)
    return float(sigma[-1]) / max(float(sigma[0]), 1.0)


# a column joins the pivots when its part outside the earlier pivot
# columns (on an orthonormal basis of the span) exceeds this: at the
# nullity-2 roots over nu in (-1, 1/2) at 90, 135 and 180 degrees and
# just inside both ends, parts are either roundoff (below 1e-13) or
# genuine (above 1e-5)
_PIVOT_TOL = 1e-9


def _echelon(vectors: np.ndarray) -> np.ndarray:
    """Reduced echelon basis of the column span of vectors, as rows:
    pivot columns taken left to right, each row at unit norm with its
    pivot entry positive. It depends on the span only, not on the basis
    given for it."""
    q, _ = np.linalg.qr(vectors)
    span = q.T
    pivots, found = [], np.zeros((span.shape[0], 0))
    for j in range(span.shape[1]):
        part = span[:, j] - found @ (found.T @ span[:, j])
        size = np.linalg.norm(part)
        if size > _PIVOT_TOL:
            pivots.append(j)
            found = np.column_stack([found, part / size])
            if len(pivots) == span.shape[0]:
                break
    rows = np.linalg.solve(span[:, pivots], span)
    rows[:, pivots] = np.eye(len(pivots))
    return rows / np.linalg.norm(rows, axis=1)[:, np.newaxis]


def eigenfield(case: WedgeCase, material: MaterialParams, p):
    """Eigenfields of the wedge at exponent p, a scalar or a 1-D array.

    For p = 1 returns the constant-strain family (valid at every wedge
    angle). Otherwise solves the face conditions over the kept basis
    members (the degenerate ones are dropped, so no null direction has an
    identically zero field). One null vector is reported with unit norm
    and its largest component positive; two or more are reported as the
    reduced echelon basis of their span (see _echelon), which does not
    depend on the rotation roundoff gives the null vectors.

    A scalar p returns an EigenSolution and raises EmptyNullSpace if no
    eigenfield exists at p. An array of p returns a list with one entry
    per p, None where the scalar form would raise; it is solved in one
    pass: one face stack over every exponent and one stacked SVD per
    pattern of kept columns; each solution builds its fields from the kept
    members' term table on first read. Every entry has the bits of the
    scalar form.
    """
    p_arr = np.asarray(p, dtype=float)
    sols = _eigenfields(case, material, np.atleast_1d(p_arr).tolist())
    if p_arr.ndim > 0:
        return sols
    if sols[0] is None:
        raise EmptyNullSpace(
            f"no eigenfield at p = {p} for mode {case.mode.value} with "
            f"half-angle {case.half_angle_a}")
    return sols[0]


def _eigenfields(case: WedgeCase, material: MaterialParams, ps) -> list:
    """eigenfield's batched pass over the exponents ps (Python floats)."""
    mode, nu = case.mode, material.nu
    sols = [None] * len(ps)
    solve = []    # (index, p, kept members' term table entries)
    patterns = {}  # kept indices -> positions in solve
    for k, p in enumerate(ps):
        if abs(p - 1.0) <= 1e-12:
            sols[k] = special_p1_solution(case, material)
            continue
        kept, members = _kept_terms(mode, p, nu)
        patterns.setdefault(kept, []).append(len(solve))
        solve.append((k, p, members))
    if not solve:
        return sols
    matrices, scales = bc_matrix(case, np.array([p for _, p, _ in solve]),
                                 nu)
    for kept, at in patterns.items():
        cols = list(kept)
        found = null_space(matrices[at][:, :, cols], scales[at][:, cols])
        for i, vectors in zip(at, found):
            if not vectors:
                continue
            k, p, members = solve[i]
            if len(vectors) == 1:
                # null_space already put the largest component positive
                rows = [vectors[0] / np.linalg.norm(vectors[0])]
            else:
                rows = _echelon(np.column_stack(vectors))
            amps = tuple(tuple(float(x) for x in v) for v in rows)
            sols[k] = EigenSolution(
                case=case, material=material, p=p, kind="bracket_root",
                amplitudes=amps, members=members)
    return sols


def special_p1_field(mode: Mode, constants) -> DisplacementField:
    """Constant-strain field of a symmetry class, from its constants.

    Takes (C1, C3) for the symmetric plane class, (C2,) for the
    antisymmetric one, and (E,) for the anti-plane class. The field has
    zero dipolar stress, so it satisfies the full equations and the face
    conditions for every wedge angle.
    """
    message, members = _P1_MEMBERS[mode]
    if len(constants) != len(members):
        raise ValueError(message)
    return assemble_field(mode, members, constants)


def special_p1_solution(case: WedgeCase,
                        material: MaterialParams) -> EigenSolution:
    """The p = 1 constant-strain family as an eigensolution.

    Unlike a bracket root's, its fields are built with it: one field per
    free constant, one single-term series per component, the same for
    every wedge. So every eig request builds these few series, the ones
    perfbench's tracing self-test counts.
    """
    members = _P1_MEMBERS[case.mode][1]
    units = tuple(tuple(float(i == j) for j in range(len(members)))
                  for i in range(len(members)))
    sol = EigenSolution(case=case, material=material, p=1.0,
                        kind="special_p1", amplitudes=units, members=members)
    sol.fields  # noqa: B018  (fills the cached property)
    return sol


def solution_from_amplitudes(case: WedgeCase, material: MaterialParams,
                             p: float, amp_vectors) -> EigenSolution:
    """Package given basis amplitudes as an eigensolution without solving
    the face conditions (for injected configurations and direct checks).

    Each amplitude vector spans the kept basis members at exponent p;
    attach_p1 adds a constant-strain part.
    """
    _, members = _kept_terms(case.mode, p, material.nu)
    amps = []
    for vec in amp_vectors:
        v = tuple(float(x) for x in vec)
        if len(v) != len(members):
            raise ValueError(
                f"amplitude vector length {len(v)} != basis size "
                f"{len(members)} at p = {p}")
        amps.append(v)
    return EigenSolution(case=case, material=material, p=p,
                         kind="bracket_root", amplitudes=tuple(amps),
                         members=members)


def attach_p1(sol: EigenSolution, constants) -> EigenSolution:
    """Return a copy of sol carrying a constant-strain part."""
    return replace(sol, p1_field=special_p1_field(sol.case.mode, constants))
