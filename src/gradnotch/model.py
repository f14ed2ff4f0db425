"""Core domain types.

Material constants, wedge geometry, the exact trigonometric series carrier
that every field computation runs on, and the containers for displacement
fields and eigensolutions.

All types are immutable and every operation is pure, so instances can be
shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

__all__ = [
    "Mode",
    "OutOfRange",
    "MaterialParams",
    "WedgeCase",
    "PolarPoint",
    "Term",
    "PolarSeries",
    "DisplacementField",
    "EigenSolution",
    "check_poisson_ratio",
]

# canonical-form thresholds for PolarSeries
PRUNE_REL = 1e-14   # drop coefficients below this fraction of the largest
KEY_TOL = 1e-9      # merge/snap tolerance for exponents and frequencies
ANGLE_SLACK = 1e-12  # admitted past the half-angle ends pi/2 and pi


class Mode(Enum):
    """Loading symmetry class of the wedge problem.

    PLANE_SYM      in-plane, symmetric about theta = 0
    PLANE_ANTI     in-plane, anti-symmetric about theta = 0
    ANTIPLANE_ODD  anti-plane shear, odd about theta = 0

    Each member carries two plain attributes (a read costs a fraction of
    a property's, and the scanner's scalar bracket reads both per point):
    is_plane, False for ANTIPLANE_ODD only, and sign, the plane class
    sign s, +1.0 symmetric and -1.0 otherwise. With the trig kinds of
    (u_r, u_theta), s is all that tells the two plane classes apart in
    the bracket and the basis (read for the plane classes only).
    """

    PLANE_SYM = "plane-sym"
    PLANE_ANTI = "plane-anti"
    ANTIPLANE_ODD = "antiplane-odd"

    def __init__(self, value):
        self.is_plane = value != "antiplane-odd"
        self.sign = 1.0 if value == "plane-sym" else -1.0


class OutOfRange(ValueError):
    """A parameter lies outside its admissible range."""

    def __init__(self, field_name, value, allowed):
        self.field_name = field_name
        self.value = value
        self.allowed = allowed
        super().__init__(f"{field_name} = {value!r} outside {allowed}")


def check_poisson_ratio(nu) -> None:
    """Raise OutOfRange unless -1 < nu < 1/2 (None is refused too)."""
    if nu is None or not -1.0 < nu < 0.5:
        raise OutOfRange("nu", nu, "(-1, 1/2)")


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic gradient-elastic material.

    Parameters
    ----------
    nu : float
        Poisson ratio, -1 < nu < 1/2.
    mu : float
        Shear modulus, 0 < mu < inf, default 1 (nondimensional).
    c : float
        Gradient coefficient (units length**2), 0 < c < inf, default 1.

    A value out of range raises OutOfRange, nu first, then mu and c. The
    Lame constant lambda is always derived from (mu, nu), never stored.
    """

    nu: float
    mu: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        check_poisson_ratio(self.nu)
        for name in ("mu", "c"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise OutOfRange(name, getattr(self, name), "(0, inf)")

    @property
    def lam(self) -> float:
        return 2.0 * self.mu * self.nu / (1.0 - 2.0 * self.nu)


@dataclass(frozen=True)
class WedgeCase:
    """Wedge with faces theta = +/- half_angle_a (radians) under one mode.

    half_angle_a ranges from pi/2 (half space) to pi (crack), each within
    ANGLE_SLACK; outside, or for a mode not a Mode, it raises OutOfRange.
    """

    half_angle_a: float
    mode: Mode

    def __post_init__(self):
        a = self.half_angle_a
        if not math.pi / 2.0 - ANGLE_SLACK <= a <= math.pi + ANGLE_SLACK:
            raise OutOfRange("half_angle_a", a, "[pi/2, pi]")
        if not isinstance(self.mode, Mode):
            raise OutOfRange("mode", self.mode, "Mode")


class PolarPoint(NamedTuple):
    """Field point in polar coordinates, r > 0."""

    r: float
    theta: float


class Term(NamedTuple):
    """One series term: coef * r**r_exp * {cos|sin}(freq * theta)."""

    coef: float
    r_exp: float
    freq: float
    kind: str  # "cos" | "sin"


_KEY = itemgetter(1, 2, 3)  # a Term's storage key (r_exp, freq, kind)


def _snap(r_exp: float) -> float:
    """r_exp as _canonical stores it: zero within KEY_TOL of zero."""
    return 0.0 if abs(r_exp) <= KEY_TOL else r_exp


def _canonical(raw_terms) -> tuple:
    """Normalize, merge, prune, and sort terms into canonical form.

    Normalization maps freq < 0 onto freq > 0 (cos is even, sin is odd),
    snaps |freq| and |r_exp| below KEY_TOL to zero, and drops sin terms of
    zero frequency. Terms are sorted by (r_exp, freq, kind), neighbours
    sharing that key within KEY_TOL are merged by adding coefficients, and
    coefficients smaller than PRUNE_REL of the largest surviving
    coefficient are dropped. A coefficient that is not finite, given or
    merged, raises OverflowError: it would make that cut drop every term.
    """
    norm = []
    for coef, r_exp, freq, kind in raw_terms:
        coef = float(coef)
        if coef == 0.0:
            continue
        r_exp = float(r_exp)
        freq = float(freq)
        if kind not in ("cos", "sin"):
            raise ValueError(f"bad term kind {kind!r}")
        if abs(freq) <= KEY_TOL:
            if kind == "sin":
                continue
            freq = 0.0
        elif freq < 0.0:
            freq = -freq
            if kind == "sin":
                coef = -coef
        norm.append(Term(coef, _snap(r_exp), freq, kind))
    return tuple(_ordered(norm))


def _ordered(norm) -> list:
    """The rest of _canonical, on terms it would not normalize further.

    One stable sort into storage order (equal keys stay in input order),
    the merge of neighbours within KEY_TOL, the refusal of a coefficient
    that is not finite, and the prune below PRUNE_REL of the largest.
    """
    merged = []
    k0 = None
    for term in sorted(norm, key=_KEY):
        c, e, f, k = term
        if k == k0 and abs(f - f0) <= KEY_TOL and abs(e - e0) <= KEY_TOL:
            merged[-1] = Term(merged[-1].coef + c, e0, f0, k0)
        else:
            merged.append(term)
            e0, f0, k0 = e, f, k
    sizes = [abs(t.coef) for t in merged]
    if not all(map(math.isfinite, sizes)):
        raise OverflowError("a series coefficient is not finite")
    cut = PRUNE_REL * max(sizes, default=0.0)
    return [t for t in merged if abs(t.coef) > cut]


class _Canonical(tuple):
    """Terms already in canonical form, which PolarSeries stores as they
    are instead of running _canonical on them."""


@dataclass(frozen=True)
class PolarSeries:
    """Finite sum of coef * r**r_exp * {cos|sin}(freq * theta).

    The carrier for every displacement, strain, and stress component. It is
    exactly closed under addition, scaling, d/dr, d/dtheta, division by r,
    multiplication by a fixed r power, and series-by-series multiplication
    (trig products are rewritten as sums). Instances are immutable and
    always kept in canonical form.

    Scaling, negation, subtraction, addition, d/dr, d/dtheta, division by
    r and multiplication by an r power keep that form without re-running
    _canonical. On canonical operands its normalization changes nothing
    but zero coefficients (dropped) and shifted r exponents within KEY_TOL
    of zero (snapped), which these operations handle themselves; they run
    only its sort, merge and prune (_ordered) and so return the bits that
    _canonical would. Raw construction, series products and
    integrate_theta run the whole routine. Every instance passes through
    __post_init__.
    """

    terms: tuple = ()

    def __post_init__(self):
        terms = self.terms
        object.__setattr__(self, "terms", tuple(terms)
                           if type(terms) is _Canonical else _canonical(terms))

    # -- construction ---------------------------------------------------

    @classmethod
    def single(cls, coef, r_exp, freq, kind) -> "PolarSeries":
        return cls(((coef, r_exp, freq, kind),))

    # -- linear algebra -------------------------------------------------

    def scaled(self, k) -> "PolarSeries":
        k = float(k)
        return _from_normalized([Term(c, e, f, kind)
                             for coef, e, f, kind in self.terms
                             if (c := coef * k)])

    def __add__(self, other: "PolarSeries") -> "PolarSeries":
        return _from_normalized(self.terms + other.terms)

    def __sub__(self, other: "PolarSeries") -> "PolarSeries":
        return self + other.scaled(-1.0)

    def __neg__(self) -> "PolarSeries":
        return self.scaled(-1.0)

    def __mul__(self, other):
        if isinstance(other, PolarSeries):
            return self._series_product(other)
        return self.scaled(other)

    __rmul__ = __mul__

    def _series_product(self, other: "PolarSeries") -> "PolarSeries":
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                c = 0.5 * t1.coef * t2.coef
                e = t1.r_exp + t2.r_exp
                fm = t1.freq - t2.freq
                fp = t1.freq + t2.freq
                if t1.kind == "cos" and t2.kind == "cos":
                    out += [(c, e, fm, "cos"), (c, e, fp, "cos")]
                elif t1.kind == "sin" and t2.kind == "sin":
                    out += [(c, e, fm, "cos"), (-c, e, fp, "cos")]
                elif t1.kind == "sin":          # sin * cos
                    out += [(c, e, fp, "sin"), (c, e, fm, "sin")]
                else:                           # cos * sin
                    out += [(c, e, fp, "sin"), (-c, e, fm, "sin")]
        return PolarSeries(tuple(out))

    # -- calculus -------------------------------------------------------

    def dr(self) -> "PolarSeries":
        """Exact partial derivative with respect to r."""
        return _from_normalized([Term(c, _snap(e - 1.0), f, kind)
                             for coef, e, f, kind in self.terms
                             if (c := coef * e)])

    def dtheta(self) -> "PolarSeries":
        """Exact partial derivative with respect to theta."""
        out = []
        for coef, e, f, kind in self.terms:
            if kind == "cos":
                if c := -coef * f:
                    out.append(Term(c, e, f, "sin"))
            elif c := coef * f:
                out.append(Term(c, e, f, "cos"))
        return _from_normalized(out)

    def div_r(self) -> "PolarSeries":
        """Multiplication by 1/r."""
        return self.times_r_power(-1.0)

    def times_r_power(self, k) -> "PolarSeries":
        """Multiplication by r**k."""
        k = float(k)
        return _from_normalized([Term(coef, _snap(e + k), f, kind)
                             for coef, e, f, kind in self.terms])

    def integrate_theta(self, a) -> "PolarSeries":
        """Exact integral over theta in [-a, a]; result depends on r only."""
        out = []
        for t in self.terms:
            if t.kind == "sin":
                continue  # odd integrand
            if t.freq == 0.0:
                out.append((t.coef * 2.0 * a, t.r_exp, 0.0, "cos"))
            else:
                out.append((t.coef * 2.0 * math.sin(t.freq * a) / t.freq,
                            t.r_exp, 0.0, "cos"))
        return PolarSeries(tuple(out))

    # -- evaluation / inspection ----------------------------------------

    def eval(self, r, theta):
        """Evaluate at (r, theta); accepts scalars or broadcastable arrays."""
        rr = np.asarray(r, dtype=float)
        th = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(rr, th).shape)
        for t in self.terms:
            trig = np.cos if t.kind == "cos" else np.sin
            out += t.coef * rr**t.r_exp * trig(t.freq * th)
        return float(out) if out.ndim == 0 else out

    def degree(self):
        """Common r exponent if homogeneous (zero series -> None)."""
        if not self.terms:
            return None
        exps = [t.r_exp for t in self.terms]
        if max(exps) - min(exps) <= KEY_TOL:
            return exps[0]
        return None

    def max_abs_coef(self) -> float:
        return max((abs(t.coef) for t in self.terms), default=0.0)

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _from_normalized(terms) -> PolarSeries:
    """The series of terms that _canonical's normalization would leave as
    they are: nonzero float coefficients, normalized keys."""
    return PolarSeries(_Canonical(_ordered(terms)))


_ZERO = PolarSeries(())


@dataclass(frozen=True)
class DisplacementField:
    """Displacement components as exact series.

    Plane modes use (u_r, u_theta); the anti-plane mode uses w. Fields form
    a vector space: addition requires matching modes.
    """

    mode: Mode
    u_r: PolarSeries = _ZERO
    u_theta: PolarSeries = _ZERO
    w: PolarSeries = _ZERO

    @classmethod
    def plane(cls, mode: Mode, u_r: PolarSeries, u_theta: PolarSeries):
        return cls(mode=mode, u_r=u_r, u_theta=u_theta)

    @classmethod
    def antiplane(cls, w: PolarSeries):
        return cls(mode=Mode.ANTIPLANE_ODD, w=w)

    def components(self) -> tuple:
        if self.mode.is_plane:
            return (self.u_r, self.u_theta)
        return (self.w,)

    def scaled(self, k) -> "DisplacementField":
        return DisplacementField(self.mode, self.u_r.scaled(k),
                                 self.u_theta.scaled(k), self.w.scaled(k))

    def __add__(self, other: "DisplacementField") -> "DisplacementField":
        if other.mode is not self.mode:
            raise ValueError("cannot add fields of different modes")
        return DisplacementField(self.mode, self.u_r + other.u_r,
                                 self.u_theta + other.u_theta,
                                 self.w + other.w)

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.components())


def assemble_field(mode: Mode, table, amps) -> DisplacementField:
    """The field sum(amps[j] * member j) of a term table: one entry per
    member, holding per displacement component ((u_r, u_theta) or (w,))
    its terms (coef, r_exp, freq, kind); fields' series terms form one
    too. Each component is one series of the scaled terms of every
    member, put in canonical form once, not once per scale and addition.
    """
    series = [PolarSeries(tuple((coef * float(k), r_exp, freq, kind)
                                for k, member in zip(amps, table)
                                for coef, r_exp, freq, kind in member[c]))
              for c in range(2 if mode.is_plane else 1)]
    if mode.is_plane:
        return DisplacementField.plane(mode, *series)
    return DisplacementField.antiplane(*series)


@dataclass(frozen=True)
class EigenSolution:
    """An admissible wedge eigensolution: what the solve produced.

    kind is "bracket_root" for solutions at a zero of the characteristic
    bracket (homogeneous of non-trivial degree p) or "special_p1" for the
    constant-strain p = 1 solution that exists for every wedge angle.

    amplitudes holds one coefficient vector per independent solution
    (nullity == len(amplitudes)), each at unit Euclidean norm. A single
    vector has its largest-magnitude component positive; two or more are
    the reduced echelon basis of their span (a vector's pivot is its first
    entry above roundoff, pivots move right from vector to vector, each
    pivot entry is positive and the other vectors are zero there), which
    depends on the span only. members is the term table (assemble_field)
    the vectors run over: the kept basis members of a bracket root
    (basis.basis_fields; where the plane third member coincides with a
    combination of the others, p within KEY_TOL / 2 of 2 or of 1, it is
    dropped, so plane vectors there have 3 entries, as anti-plane vectors
    have 1 at p = 2), or one constant-strain member per free constant of
    the special field.

    fields, one displacement field per amplitude vector, is built from
    members on first read and kept. p1_field carries an optional
    constant-strain part of a bracket-root solution (basis.attach_p1).
    """

    case: WedgeCase
    material: MaterialParams
    p: float
    kind: str
    amplitudes: tuple
    members: tuple
    p1_field: DisplacementField | None = None

    @property
    def nullity(self) -> int:
        return len(self.amplitudes)

    @cached_property
    def fields(self) -> tuple:
        return tuple(assemble_field(self.case.mode, self.members, v)
                     for v in self.amplitudes)

    def combined_field(self, amp, include_p1: bool = True) -> DisplacementField:
        """Resolve an amplitude selector into a displacement field.

        amp may be an integer index into fields or a sequence of nullity
        coefficients combining the fields' series. The attached p = 1
        part, if any, is added unless include_p1 is False.
        """
        if isinstance(amp, (int, np.integer)):
            out = self.fields[amp]
        else:
            coeffs = list(amp)
            if len(coeffs) != self.nullity:
                raise ValueError(
                    f"expects {self.nullity} coefficient(s) (the nullity at "
                    f"p = {self.p:.12g}), got {len(coeffs)}")
            out = assemble_field(self.case.mode, [
                [c.terms for c in f.components()] for f in self.fields], coeffs)
        if include_p1 and self.p1_field is not None:
            out = out + self.p1_field
        return out
