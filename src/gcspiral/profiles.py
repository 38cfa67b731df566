"""Planar curvature profiles and their exact tangent-angle antiderivatives.

A profile prescribes signed curvature kappa(s) on an arc-length interval
[0, S].  Four families are provided: constant, linear and quadratic
polynomials, and the rational-linear family

    kappa(s) = (n1*s + n0) / (r*s + S),   n1 = k1 - k0 + r*k1,  n0 = k0*S,

whose synthesized curve is the Generalized Cornu Spiral (GCS).  The shape
factor is restricted to r > -1 so the denominator stays positive on [0, S].
Every profile exposes kappa(s), kappa_prime(s), kappa_double_prime(s) and
theta(s) with the convention theta(0) = 0; the starting pose is applied by
the synthesis layer. `kappa_pole` is the arc length outside [0, S] where the
curvature has a pole: s = -S/r for a GCS with r != 0, inf otherwise.
Each method takes an arc length in [0, S]: a real number (not a bool),
answered with a float, or a column of numbers (an ndarray, list or tuple),
answered with an array whose values equal the one-number calls bit for bit.
Profile documents and their flags belong to the command line (`cli`).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from .errors import DomainError, numeric, real

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
]


# The one relative zero threshold: a curvature-valued quantity within
# REL_TOL * scale of zero counts as zero (GCS degeneracy tests, circular
# profiles, near-inflection LCG and LDDC samples); the shape factor r is
# compared against it directly.
REL_TOL = 1e-12


def _clamp_s(s, arc_length: float):
    """Read an arc-length argument, check it lies in [0, S] (tiny roundoff slack), clamp it.

    A real number (not a bool) is returned as a float; anything else must
    be a column of numbers (`errors.numeric`) and is returned as a clamped
    float array, which is s itself when s is a float array within [0, S].
    """
    if type(s) is not float:
        if not isinstance(s, numbers.Real) or isinstance(s, bool):
            s = numeric("arc length s", s)
            if s.size and 0.0 <= s.min() and s.max() <= arc_length:
                return s  # np.clip would return an equal copy, -0.0 included
            slack = 1e-12 * max(1.0, arc_length)
            bad = ~((s >= -slack) & (s <= arc_length + slack))
            if bad.any():
                raise DomainError(f"arc length s={float(s[bad][0])!r} outside [0, {arc_length}]")
            return np.clip(s, 0.0, arc_length)
        s = real("arc length s", s)
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


def _log1p_remainder(u: np.ndarray) -> np.ndarray:
    """(u - log1p(u)) / u**2, continued by 1/2 at u = 0, element by element.

    The direct expression cancels catastrophically for small |u|; a series
    branch keeps full precision there.
    """
    small = np.abs(u) < 0.25
    if small.all():
        return _remainder_series(u)
    if not small.any():
        return _remainder_direct(u)
    out = np.empty_like(u)
    out[small] = _remainder_series(u[small])
    out[~small] = _remainder_direct(u[~small])
    return out


def _remainder_direct(u: np.ndarray) -> np.ndarray:
    # Grouped to avoid overflow of u*u for very large shape factors.
    return (1.0 - np.log1p(u) / u) / u


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


# The divisors k + 2 of the series terms, for every |u| < 1/4, as 0-d float64
# arrays: a ufunc takes them without converting a Python float, and on the
# few-node arrays of stiff synthesis that fixed per-call cost dominates theta.
_SERIES_DIVISORS = tuple(np.array(k + 2.0) for k in range(_series_terms(0.25)))


def _remainder_series(u: np.ndarray) -> np.ndarray:
    """sum_k (-u)**k / (k+2) for |u| < 1/4, element by element.

    The sum stops once no later term can change it, so the result is the
    converged sum of every term (at most 26 for |u| just below 1/4, one
    for u = 0). The recurrence runs in place, term by term in order, so
    each element is the sum a one-element array of it would give.
    """
    neg = -u
    largest = max(float(u.max()), float(neg.max())) if u.size else 0.0
    # Term k = 0 is 1/2 and term 1's power is 1.0 * -u, both exact.
    total = np.full(u.shape, 0.5)
    power = neg.copy()
    term = np.empty_like(u)
    for divisor in _SERIES_DIVISORS[1 : _series_terms(largest)]:
        np.divide(power, divisor, term)
        np.add(total, term, total)
        np.multiply(power, neg, power)
    return total


class _RealFields:
    """Stores every init field of a profile as a float: finite, arc_length > 0."""

    kappa_pole = math.inf  # a polynomial curvature has no pole

    def __post_init__(self):
        for f in fields(self):
            if f.init:
                above = 0.0 if f.name == "arc_length" else None
                object.__setattr__(self, f.name, real(f.name, getattr(self, f.name), above))

    @staticmethod
    def _finite_coefficients(*values: float) -> None:
        """Reject fields whose derived coefficients or theta(S) overflow to inf or nan."""
        if not all(math.isfinite(v) for v in values):
            raise DomainError("profile parameters overflow the curvature coefficients")


@dataclass(frozen=True)
class ConstantProfile(_RealFields):
    """Constant curvature: a circular arc (or a straight line when kappa=0)."""

    kappa_value: float
    arc_length: float

    def __post_init__(self):
        super().__post_init__()
        self._finite_coefficients(self.kappa_value * self.arc_length)  # theta(S)

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

    def __post_init__(self):
        super().__post_init__()
        k0, k1, S = self.kappa0, self.kappa1, self.arc_length
        # kappa1 - kappa0 and theta(S), as theta forms it
        self._finite_coefficients(k1 - k0, k0 * S + (k1 - k0) * S * S / (2.0 * S))

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

    def __post_init__(self):
        super().__post_init__()
        # b (inf or nan if a*S*S or kappa1 - kappa0 is), kappa'' = 2a, kappa'(S),
        # and theta(S) as theta forms it
        a, b, S = self.a, self.b, self.arc_length
        theta_end = ((a * S / 3.0 + b / 2.0) * S + self.kappa0) * S
        self._finite_coefficients(b, 2.0 * a, 2.0 * a * S + b, theta_end)

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
        # kappa's denominator r*s + S is linear in s and S > 0 at s = 0: its value at S decides.
        den = r * S + S
        if not den > 0.0:
            raise DomainError(f"r = {r!r} puts kappa's pole on the curve: r*S + S rounds to 0")
        n1 = k1 - k0 + r * k1
        n0 = k0 * S
        c = S * (1.0 + r) * (k0 - k1)
        # 2*n1*(r*s + S) at s = 0 and s = S, as lcg.gradient_gcs forms it, s*s at
        # s = S, as theta forms it, and kappa(S), as kappa forms it
        kappa_end = (n1 * S + n0) / den
        self._finite_coefficients(n1, n0, c, 2.0 * n1 * S, 2.0 * n1 * den, S * S, kappa_end)
        scale = max(abs(k0), abs(k1), 1.0 / S)
        for name, value in (
            ("n1", n1),
            ("n0", n0),
            ("scale", scale),
            ("c", c),
            ("circular", abs(k0 - k1) <= REL_TOL * scale),
        ):
            object.__setattr__(self, name, value)

    @property
    def kappa_pole(self) -> float:
        """The s = -S/r where the curvature's denominator vanishes, or inf for r = 0."""
        return -self.arc_length / self.r if self.r != 0.0 else math.inf

    def kappa(self, s):
        s = _clamp_s(s, self.arc_length)
        return (self.n1 * s + self.n0) / (self.r * s + self.arc_length)

    # kappa' = -c/den**2 and kappa'' = -2r*kappa'/den, a den at a time; past the float range
    # near a pole they are +-inf (nan for r = 0), which the numeric LCG skips or rejects.
    def kappa_prime(self, s):
        s = _clamp_s(s, self.arc_length)
        den = self.r * s + self.arc_length
        with np.errstate(over="ignore"):
            return -self.c / den / den

    def kappa_double_prime(self, s):
        s = _clamp_s(s, self.arc_length)
        den = self.r * s + self.arc_length
        with np.errstate(over="ignore", invalid="ignore"):
            return -2.0 * self.r / den * (-self.c / den / den)

    def theta(self, s):
        # kappa0*s + (1+r)(kappa1-kappa0)*(s^2/S)*f(r*s/S) with
        # f(u) = (u - log1p(u))/u^2; equal to the log antiderivative for
        # r != 0 and free of the removable singularity at r = 0. For
        # r >= 1 with |kappa0| > |kappa1| that form cancels its kappa0*s
        # term, by about |kappa0|*s*eps once r*s/S >> 1, so there theta is
        # the log antiderivative kappa1*s + dk*(s/r - (S/r)((1+r)/r)log1p(u)),
        # whose bracket loses at most two bits for r >= 1. A float is
        # evaluated as a one-element array.
        s = _clamp_s(s, self.arc_length)
        t = s if isinstance(s, np.ndarray) else np.array([s])
        S, r = self.arc_length, self.r
        k0, dk = self.kappa0, self.kappa1 - self.kappa0
        if r >= 1.0 and abs(k0) > abs(self.kappa1):
            log_term = (S / r) * ((1.0 + r) / r) * np.log1p(r * t / S)
            theta = self.kappa1 * t + dk * (t / r - log_term)
        elif math.isfinite((1.0 + r) * dk):
            theta = k0 * t + (1.0 + r) * dk * (t * t / S) * _log1p_remainder(r * t / S)
        else:  # so r > 0, where the remainder is <= 1/2 and (1 + r) times it is finite
            theta = k0 * t + (1.0 + r) * _log1p_remainder(r * t / S) * (t * t / S) * dk
        return theta if t is s else float(theta[0])


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
    k_tol = REL_TOL * profile.scale
    if abs(profile.kappa0) <= k_tol and abs(profile.kappa1) <= k_tol:
        return DegenerateClass.STRAIGHT_LINE
    if abs(profile.r) <= REL_TOL and profile.circular:
        return DegenerateClass.CIRCULAR_ARC
    if abs(profile.n1) <= k_tol and abs(profile.r) > REL_TOL:
        return DegenerateClass.LOG_SPIRAL
    if abs(profile.r) <= REL_TOL:
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
