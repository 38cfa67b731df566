"""Planar curvature profiles and their exact tangent-angle antiderivatives.

A profile prescribes signed curvature kappa(s) on an arc-length interval
[0, S].  Four families are provided: constant, linear and quadratic
polynomials, and the rational-linear family

    kappa(s) = (n1*s + n0) / (r*s + S),   n1 = k1 - k0 + r*k1,  n0 = k0*S,

whose synthesized curve is the Generalized Cornu Spiral (GCS).  The shape
factor is restricted to r > -1 so the denominator stays positive on [0, S].
Every profile exposes kappa(s), kappa_prime(s), kappa_double_prime(s) and
theta(s) with the convention theta(0) = 0; the starting pose is applied by
the synthesis layer.
Each method takes a float or an ndarray of arc lengths and returns the same
kind; array values equal the scalar calls element by element, bit for bit.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from .errors import DomainError, real

__all__ = [
    "ConstantProfile",
    "LinearProfile",
    "QuadraticProfile",
    "GcsProfile",
    "CurvatureProfile",
    "DegenerateClass",
    "classify_degenerate",
    "inflection",
    "to_gcs",
    "profile_to_dict",
    "profile_from_dict",
    "profile_to_json",
    "profile_from_json",
]


# Relative tolerance of the GCS degeneracy tests: curvature-valued
# quantities against _REL_TOL * scale, the shape factor r against it directly.
_REL_TOL = 1e-12


def _clamp_s(s, arc_length: float):
    """Validate s in [0, S] (tiny roundoff slack) and clamp onto the interval.

    An ndarray is checked as a whole and returned as a clamped float array;
    anything else is taken as one number and returned as a float.
    """
    if isinstance(s, np.ndarray):
        slack = 1e-12 * max(1.0, arc_length)
        s = s.astype(float)
        bad = ~((s >= -slack) & (s <= arc_length + slack))
        if bad.any():
            raise DomainError(f"arc length s={float(s[bad][0])!r} outside [0, {arc_length}]")
        return np.clip(s, 0.0, arc_length)
    s = float(s)
    if 0.0 <= s <= arc_length:
        return s
    # Outside [0, S]; the comparison is False for nan and +-inf as well.
    slack = 1e-12 * max(1.0, arc_length)
    if not -slack <= s <= arc_length + slack:
        raise DomainError(f"arc length s={s!r} outside [0, {arc_length}]")
    return 0.0 if s < 0.0 else arc_length


def _like(s, value: float):
    """`value`, shaped like s when s is an array."""
    return np.full_like(s, value) if isinstance(s, np.ndarray) else value


def _log1p_remainder(u):
    """(u - log1p(u)) / u**2, continued by 1/2 at u = 0; float or ndarray.

    The direct expression cancels catastrophically for small |u|; a series
    branch keeps full precision there. log1p is numpy's for floats too, so
    a float and an array element round alike.
    """
    if isinstance(u, np.ndarray):
        small = np.abs(u) < 0.25
        if small.all():
            return _remainder_series(u)
        if not small.any():
            return _remainder_direct(u)
        big = ~small
        out = np.empty_like(u)
        out[small] = _remainder_series(u[small])
        out[big] = _remainder_direct(u[big])
        return out
    if abs(u) < 0.25:
        return _remainder_series(u)
    return _remainder_direct(u)


def _remainder_direct(u):
    # Grouped to avoid overflow of u*u for very large shape factors.
    if isinstance(u, np.ndarray):
        return (1.0 - np.log1p(u) / u) / u
    return (1.0 - float(np.log1p(u)) / u) / u


# Every partial sum of the series lies in [0.41, 0.61] for |u| < 1/4, where
# half an ulp is at least 2**-55; a term below this floor cannot change it.
_TERM_FLOOR = 2.0**-56


def _series_terms(largest: float) -> int:
    """Terms k = 0..K-1 needed once |u| <= largest: max|u|**K / (K+2) < _TERM_FLOOR."""
    terms, power = 1, largest
    while power / (terms + 2) >= _TERM_FLOOR:
        power *= largest
        terms += 1
    return terms


def _remainder_series(u):
    """sum_k (-u)**k / (k+2) for |u| < 1/4, float or ndarray.

    The sum stops once no later term can change it, so the result is the
    converged sum of every term (at most 26 for |u| just below 1/4, one
    for u = 0). An array runs the same recurrence in place, term by term
    in the same order, so each element equals the float call bit for bit.
    """
    neg = -u
    if not isinstance(u, np.ndarray):
        total = 0.0
        power = 1.0
        for k in range(_series_terms(abs(u))):
            total = total + power / (k + 2)
            power = power * neg
        return total
    largest = max(float(u.max()), float(neg.max())) if u.size else 0.0
    # Term k = 0 is 1/2 and term 1's power is 1.0 * -u, both exact.
    total = np.full(u.shape, 0.5)
    power = neg.copy()
    term = np.empty_like(u)
    for k in range(1, _series_terms(largest)):
        np.divide(power, k + 2, out=term)
        np.add(total, term, out=total)
        np.multiply(power, neg, out=power)
    return total


class _RealFields:
    """Stores every init field of a profile as a float: finite, arc_length > 0."""

    def __post_init__(self):
        for f in fields(self):
            if f.init:
                above = 0.0 if f.name == "arc_length" else None
                object.__setattr__(self, f.name, real(f.name, getattr(self, f.name), above))


@dataclass(frozen=True)
class ConstantProfile(_RealFields):
    """Constant curvature: a circular arc (or a straight line when kappa=0)."""

    kappa_value: float
    arc_length: float

    def kappa(self, s):
        return _like(_clamp_s(s, self.arc_length), self.kappa_value)

    def kappa_prime(self, s):
        return _like(_clamp_s(s, self.arc_length), 0.0)

    kappa_double_prime = kappa_prime

    def theta(self, s):
        return self.kappa_value * _clamp_s(s, self.arc_length)


@dataclass(frozen=True)
class LinearProfile(_RealFields):
    """Linear curvature interpolating kappa0 at s=0 and kappa1 at s=S (a clothoid segment)."""

    kappa0: float
    kappa1: float
    arc_length: float

    def kappa(self, s):
        s = _clamp_s(s, self.arc_length)
        w = s / self.arc_length
        return (1.0 - w) * self.kappa0 + w * self.kappa1

    def kappa_prime(self, s):
        s = _clamp_s(s, self.arc_length)
        return _like(s, (self.kappa1 - self.kappa0) / self.arc_length)

    def kappa_double_prime(self, s):
        return _like(_clamp_s(s, self.arc_length), 0.0)

    def theta(self, s):
        s = _clamp_s(s, self.arc_length)
        return self.kappa0 * s + (self.kappa1 - self.kappa0) * s * s / (2.0 * self.arc_length)


@dataclass(frozen=True)
class QuadraticProfile(_RealFields):
    """Quadratic curvature a*s^2 + b*s + kappa0 with b chosen so kappa(S) = kappa1.

    `a` is a free shape parameter; a = 0 reduces to the linear profile.
    """

    a: float
    kappa0: float
    kappa1: float
    arc_length: float

    @property
    def b(self) -> float:
        S = self.arc_length
        return (self.kappa1 - self.kappa0 - self.a * S * S) / S

    def kappa(self, s):
        s = _clamp_s(s, self.arc_length)
        return (self.a * s + self.b) * s + self.kappa0

    def kappa_prime(self, s):
        s = _clamp_s(s, self.arc_length)
        return 2.0 * self.a * s + self.b

    def kappa_double_prime(self, s):
        return _like(_clamp_s(s, self.arc_length), 2.0 * self.a)

    def theta(self, s):
        s = _clamp_s(s, self.arc_length)
        return ((self.a * s / 3.0 + self.b / 2.0) * s + self.kappa0) * s


@dataclass(frozen=True)
class GcsProfile(_RealFields):
    """Rational-linear curvature kappa(s) = (n1*s + n0) / (r*s + S).

    Construction from endpoint data (kappa0, kappa1, S, r) caches the
    numerator coefficients n1 = kappa1 - kappa0 + r*kappa1 and n0 = kappa0*S,
    which interpolate the end curvatures exactly.  Requires S > 0 and r > -1.

    It also caches the constants the LCG closed forms share: `scale`, the
    curvature magnitude max(|kappa0|, |kappa1|, 1/S) that relative
    tolerances are taken against; c = S*(1+r)*(kappa0-kappa1), the
    numerator of rho'; and `circular`, whether |kappa0 - kappa1| is within
    1e-12*scale, where c is treated as zero.
    """

    kappa0: float
    kappa1: float
    arc_length: float
    r: float
    n1: float = field(init=False, repr=False, compare=False)
    n0: float = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)
    circular: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        k0, k1, S, r = self.kappa0, self.kappa1, self.arc_length, self.r
        if not r > -1.0:
            raise DomainError(f"shape factor r must be > -1, got {r!r}")
        n1 = k1 - k0 + r * k1
        n0 = k0 * S
        if not (math.isfinite(n1) and math.isfinite(n0)):
            raise DomainError("profile parameters overflow the curvature coefficients")
        scale = max(abs(k0), abs(k1), 1.0 / S)
        for name, value in (
            ("n1", n1),
            ("n0", n0),
            ("scale", scale),
            ("c", S * (1.0 + r) * (k0 - k1)),
            ("circular", abs(k0 - k1) <= _REL_TOL * scale),
        ):
            object.__setattr__(self, name, value)

    def kappa(self, s):
        s = _clamp_s(s, self.arc_length)
        return (self.n1 * s + self.n0) / (self.r * s + self.arc_length)

    def kappa_prime(self, s):
        s = _clamp_s(s, self.arc_length)
        den = self.r * s + self.arc_length
        return (self.n1 * self.arc_length - self.n0 * self.r) / (den * den)

    def kappa_double_prime(self, s):
        s = _clamp_s(s, self.arc_length)
        den = self.r * s + self.arc_length
        return -2.0 * self.r * (self.n1 * self.arc_length - self.n0 * self.r) / (den * den * den)

    def theta(self, s):
        # kappa0*s + (1+r)(kappa1-kappa0)*(s^2/S)*f(r*s/S) with
        # f(u) = (u - log1p(u))/u^2; equal to the log antiderivative for
        # r != 0 and free of the removable singularity at r = 0.
        s = _clamp_s(s, self.arc_length)
        S = self.arc_length
        u = self.r * s / S
        rem = _log1p_remainder(u)
        return self.kappa0 * s + (1.0 + self.r) * (self.kappa1 - self.kappa0) * (s * s / S) * rem


CurvatureProfile = Union[ConstantProfile, LinearProfile, QuadraticProfile, GcsProfile]


class DegenerateClass(enum.Enum):
    """Subfamily of a GCS profile read off its rational-curvature coefficients."""

    STRAIGHT_LINE = "straight_line"
    CIRCULAR_ARC = "circular_arc"
    LOG_SPIRAL = "log_spiral"
    CLOTHOID = "clothoid"
    GENERAL_GCS = "general_gcs"


def classify_degenerate(profile: GcsProfile) -> DegenerateClass:
    """Classify which subfamily the profile degenerates to.

    Curvature-valued quantities are compared against 1e-12 * profile.scale;
    the dimensionless shape factor r against 1e-12 directly.  Branches are
    checked in order, so the classes are mutually exclusive and exhaustive.
    """
    k_tol = _REL_TOL * profile.scale
    if abs(profile.kappa0) <= k_tol and abs(profile.kappa1) <= k_tol:
        return DegenerateClass.STRAIGHT_LINE
    if abs(profile.r) <= _REL_TOL and profile.circular:
        return DegenerateClass.CIRCULAR_ARC
    if abs(profile.n1) <= k_tol and abs(profile.r) > _REL_TOL:
        return DegenerateClass.LOG_SPIRAL
    if abs(profile.r) <= _REL_TOL:
        return DegenerateClass.CLOTHOID
    return DegenerateClass.GENERAL_GCS


def inflection(profile: GcsProfile) -> float | None:
    """Arc length where curvature crosses zero, or None.

    The numerator n1*s + n0 has at most one root, so a GCS inflects at most
    once, at s = -n0/n1 when that lands inside [0, S].
    """
    if profile.n1 == 0.0:
        return None
    s_star = -profile.n0 / profile.n1
    if 0.0 <= s_star <= profile.arc_length:
        return s_star + 0.0  # normalize -0.0
    return None


def to_gcs(profile: CurvatureProfile) -> GcsProfile | None:
    """Re-express a profile in the rational-linear family, if possible."""
    if isinstance(profile, GcsProfile):
        return profile
    if isinstance(profile, ConstantProfile):
        return GcsProfile(profile.kappa_value, profile.kappa_value, profile.arc_length, 0.0)
    if isinstance(profile, LinearProfile):
        return GcsProfile(profile.kappa0, profile.kappa1, profile.arc_length, 0.0)
    if isinstance(profile, QuadraticProfile) and profile.a == 0.0:
        return GcsProfile(profile.kappa0, profile.kappa1, profile.arc_length, 0.0)
    return None


# -- JSON serialization -------------------------------------------------

def profile_to_dict(profile: CurvatureProfile) -> dict:
    if isinstance(profile, ConstantProfile):
        return {"type": "constant", "kappa": profile.kappa_value, "arc_length": profile.arc_length}
    if isinstance(profile, LinearProfile):
        return {
            "type": "linear",
            "kappa0": profile.kappa0,
            "kappa1": profile.kappa1,
            "arc_length": profile.arc_length,
        }
    if isinstance(profile, QuadraticProfile):
        return {
            "type": "quadratic",
            "a": profile.a,
            "kappa0": profile.kappa0,
            "kappa1": profile.kappa1,
            "arc_length": profile.arc_length,
        }
    if isinstance(profile, GcsProfile):
        return {
            "type": "gcs",
            "kappa0": profile.kappa0,
            "kappa1": profile.kappa1,
            "arc_length": profile.arc_length,
            "r": profile.r,
        }
    raise DomainError(f"not a curvature profile: {profile!r}")


def profile_from_dict(data: dict) -> CurvatureProfile:
    if not isinstance(data, dict):
        raise DomainError(f"profile document must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    try:
        if kind == "constant":
            return ConstantProfile(data["kappa"], data["arc_length"])
        if kind == "linear":
            return LinearProfile(data["kappa0"], data["kappa1"], data["arc_length"])
        if kind == "quadratic":
            return QuadraticProfile(data["a"], data["kappa0"], data["kappa1"], data["arc_length"])
        if kind == "gcs":
            return GcsProfile(data["kappa0"], data["kappa1"], data["arc_length"], data["r"])
    except KeyError as exc:
        raise DomainError(f"profile document missing field {exc.args[0]!r}") from None
    raise DomainError(f"unknown profile type {kind!r}")


def profile_to_json(profile: CurvatureProfile) -> str:
    return json.dumps(profile_to_dict(profile))


def profile_from_json(text: str) -> CurvatureProfile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid profile JSON: {exc}") from None
    return profile_from_dict(data)
