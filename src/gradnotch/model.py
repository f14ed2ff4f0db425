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
    "validate_case",
]

# canonical-form thresholds for PolarSeries
PRUNE_REL = 1e-14   # drop coefficients below this fraction of the largest
KEY_TOL = 1e-9      # merge/snap tolerance for exponents and frequencies


class Mode(Enum):
    """Loading symmetry class of the wedge problem.

    PLANE_SYM      in-plane, symmetric about theta = 0
    PLANE_ANTI     in-plane, anti-symmetric about theta = 0
    ANTIPLANE_ODD  anti-plane shear, odd about theta = 0
    """

    PLANE_SYM = "plane-sym"
    PLANE_ANTI = "plane-anti"
    ANTIPLANE_ODD = "antiplane-odd"

    @property
    def is_plane(self) -> bool:
        return self is not Mode.ANTIPLANE_ODD


class OutOfRange(ValueError):
    """A parameter lies outside its admissible range."""

    def __init__(self, field_name, value, allowed):
        self.field_name = field_name
        self.value = value
        self.allowed = allowed
        super().__init__(f"{field_name} = {value!r} outside {allowed}")


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic gradient-elastic material.

    Parameters
    ----------
    nu : float
        Poisson ratio, -1 < nu < 1/2.
    mu : float
        Shear modulus, default 1 (nondimensional).
    c : float
        Gradient coefficient (units length**2), default 1 (nondimensional).

    The Lame constant lambda is always derived from (mu, nu), never stored.
    """

    nu: float
    mu: float = 1.0
    c: float = 1.0

    @property
    def lam(self) -> float:
        return 2.0 * self.mu * self.nu / (1.0 - 2.0 * self.nu)


@dataclass(frozen=True)
class WedgeCase:
    """Wedge with faces theta = +/- half_angle_a (radians) under one mode.

    half_angle_a ranges from pi/2 (half space) to pi (crack).
    """

    half_angle_a: float
    mode: Mode


@dataclass(frozen=True)
class PolarPoint:
    """Field point in polar coordinates, r > 0."""

    r: float
    theta: float


def validate_case(material: MaterialParams, case: WedgeCase) -> None:
    """Raise OutOfRange unless material and wedge parameters are admissible."""
    if not 0.0 < material.mu < math.inf:
        raise OutOfRange("mu", material.mu, "(0, inf)")
    if not 0.0 < material.c < math.inf:
        raise OutOfRange("c", material.c, "(0, inf)")
    if not -1.0 < material.nu < 0.5:
        raise OutOfRange("nu", material.nu, "(-1, 1/2)")
    a = case.half_angle_a
    if not (math.pi / 2.0 - 1e-12 <= a <= math.pi + 1e-12):
        raise OutOfRange("half_angle_a", a, "[pi/2, pi]")
    if not isinstance(case.mode, Mode):
        raise OutOfRange("mode", case.mode, "Mode")


class Term(NamedTuple):
    """One series term: coef * r**r_exp * {cos|sin}(freq * theta)."""

    coef: float
    r_exp: float
    freq: float
    kind: str  # "cos" | "sin"


def _canonical(raw_terms) -> tuple:
    """Normalize, merge, prune, and sort terms into canonical form.

    Normalization maps freq < 0 onto freq > 0 (cos is even, sin is odd),
    snaps |freq| and |r_exp| below KEY_TOL to zero, and drops sin terms of
    zero frequency. Terms sharing (kind, freq, r_exp) within KEY_TOL are
    merged by adding coefficients; coefficients smaller than PRUNE_REL of
    the largest surviving coefficient are dropped.
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
        if abs(r_exp) <= KEY_TOL:
            r_exp = 0.0
        norm.append((kind, freq, r_exp, coef))

    norm.sort(key=lambda t: (t[0], t[1], t[2]))
    merged = []
    for kind, freq, r_exp, coef in norm:
        if merged:
            k0, f0, e0, c0 = merged[-1]
            if kind == k0 and abs(freq - f0) <= KEY_TOL and abs(r_exp - e0) <= KEY_TOL:
                merged[-1] = (k0, f0, e0, c0 + coef)
                continue
        merged.append((kind, freq, r_exp, coef))

    big = max((abs(c) for _, _, _, c in merged), default=0.0)
    cut = PRUNE_REL * big
    kept = [Term(c, e, f, k) for k, f, e, c in merged if abs(c) > cut]
    kept.sort(key=lambda t: (t.r_exp, t.freq, t.kind))
    return tuple(kept)


@dataclass(frozen=True)
class PolarSeries:
    """Finite sum of coef * r**r_exp * {cos|sin}(freq * theta).

    The carrier for every displacement, strain, and stress component. It is
    exactly closed under addition, scaling, d/dr, d/dtheta, division by r,
    multiplication by a fixed r power, and series-by-series multiplication
    (trig products are rewritten as sums). Instances are immutable and
    always kept in canonical form.
    """

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls) -> "PolarSeries":
        return cls(())

    @classmethod
    def single(cls, coef, r_exp, freq, kind) -> "PolarSeries":
        return cls(((coef, r_exp, freq, kind),))

    # -- linear algebra -------------------------------------------------

    def scaled(self, k) -> "PolarSeries":
        k = float(k)
        return PolarSeries(tuple((t.coef * k, t.r_exp, t.freq, t.kind)
                                 for t in self.terms))

    def __add__(self, other: "PolarSeries") -> "PolarSeries":
        return PolarSeries(tuple((t.coef, t.r_exp, t.freq, t.kind)
                                 for t in self.terms + other.terms))

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
        return PolarSeries(tuple((t.coef * t.r_exp, t.r_exp - 1.0, t.freq, t.kind)
                                 for t in self.terms))

    def dtheta(self) -> "PolarSeries":
        """Exact partial derivative with respect to theta."""
        out = []
        for t in self.terms:
            if t.kind == "cos":
                out.append((-t.coef * t.freq, t.r_exp, t.freq, "sin"))
            else:
                out.append((t.coef * t.freq, t.r_exp, t.freq, "cos"))
        return PolarSeries(tuple(out))

    def div_r(self) -> "PolarSeries":
        """Multiplication by 1/r."""
        return self.times_r_power(-1.0)

    def times_r_power(self, k) -> "PolarSeries":
        """Multiplication by r**k."""
        k = float(k)
        return PolarSeries(tuple((t.coef, t.r_exp + k, t.freq, t.kind)
                                 for t in self.terms))

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

    def degree(self):
        """Common homogeneity degree across nonzero components, else None."""
        degs = [s.degree() for s in self.components() if not s.is_zero]
        if not degs:
            return None
        if any(d is None for d in degs):
            return None
        if max(degs) - min(degs) <= KEY_TOL:
            return degs[0]
        return None

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.components())

    def max_abs_coef(self) -> float:
        return max((s.max_abs_coef() for s in self.components()), default=0.0)


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
                    f"expected {self.nullity} coefficients, got {len(coeffs)}")
            out = assemble_field(self.case.mode, [
                [c.terms for c in f.components()] for f in self.fields], coeffs)
        if include_p1 and self.p1_field is not None:
            out = out + self.p1_field
        return out
