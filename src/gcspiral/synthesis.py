"""Curve synthesis: positions from curvature via tangent-angle integration.

A planar curve is recovered from its curvature profile by integrating the
unit tangent (cos(theta0 + theta(t)), sin(theta0 + theta(t))) in arc length.
Samples are laid out uniformly in s; all inter-sample gaps are integrated
in one batched call and accumulated, so sample i+1 always reuses the prefix
up to sample i instead of re-integrating from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .errors import DomainError, count, increasing, numeric, real
from .profiles import CurvatureProfile
from .quadrature import tangent_integrals
from .tables import write_tables

__all__ = [
    "Pose",
    "QuadratureConfig",
    "EndState",
    "PlanarCurve",
    "synthesize",
    "endpoint",
    "curve_to_csv",
]


@dataclass(frozen=True)
class Pose:
    """Starting position and tangent direction of a synthesized curve."""

    x0: float = 0.0
    y0: float = 0.0
    theta0: float = 0.0

    def __post_init__(self):
        for name in ("x0", "y0", "theta0"):
            object.__setattr__(self, name, real(f"pose field {name}", getattr(self, name)))


@dataclass(frozen=True, kw_only=True)
class QuadratureConfig:
    """Tolerance and sampling knobs for synthesis, given by keyword.

    abs_tol bounds the absolute error of each coordinate integral over any
    prefix [0, s_i]; it is passed whole to tangent_integrals, which splits
    it across the gaps.
    """

    abs_tol: float = 1e-10
    samples_per_curve: int = 256

    def __post_init__(self):
        object.__setattr__(self, "abs_tol", real("abs_tol", self.abs_tol, above=0.0))
        count("samples_per_curve", self.samples_per_curve, least=2)


@dataclass(frozen=True)
class EndState:
    """Final position and tangent angle of a synthesized curve."""

    x: float
    y: float
    theta: float


@dataclass(frozen=True)
class PlanarCurve:
    """Arc-length-sampled polyline with tangent angle and curvature per sample."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        columns = {name: getattr(self, name) for name in ("x", "y", "theta", "kappa")}
        for name, column in zip(("s", *columns), _sample_columns(self.s, **columns)):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.s)

    @property
    def total_length(self) -> float:
        return float(self.s[-1] - self.s[0])


def _sample_columns(s, **columns) -> list[np.ndarray]:
    """[s, *columns] as float arrays, checked as the fields of a PlanarCurve.

    s must be 2 or more finite, strictly increasing values, and each named
    column one finite value per sample.
    """
    s = increasing("curve field s", s, least=2)
    checked = [s]
    for name, values in columns.items():
        column = numeric(f"curve field {name}", values)
        if column.shape != s.shape or not np.isfinite(column).all():
            raise DomainError(f"curve field {name} must hold {len(s)} finite values")
        checked.append(column)
    return checked


def _curvature_samples(samples) -> tuple[np.ndarray, np.ndarray, float]:
    """(s, kappa, scale) of a PlanarCurve or of an (s, kappa) pair of columns.

    A PlanarCurve was checked when it was made; a pair is checked here as
    PlanarCurve checks those two fields, with the same errors. scale is
    max(max|kappa|, 1/L), with L = s[-1] - s[0] the sampled arc length.
    """
    if isinstance(samples, PlanarCurve):
        s, kappa = samples.s, samples.kappa
    else:
        try:
            s, kappa = samples
        except (TypeError, ValueError):
            raise DomainError(
                "curvature samples must be a PlanarCurve or an (s, kappa) pair of columns"
            ) from None
        s, kappa = _sample_columns(s, kappa=kappa)
    return s, kappa, max(float(np.max(np.abs(kappa))), 1.0 / float(s[-1] - s[0]))


def _sample_grid(profile: CurvatureProfile, samples: int) -> np.ndarray:
    """The `samples` arc lengths, uniform on [0, S], at which synthesize samples `profile`."""
    return np.linspace(0.0, profile.arc_length, count("samples_per_curve", samples, least=2))


def synthesize(
    profile: CurvatureProfile,
    pose: Pose = Pose(),
    config: QuadratureConfig = QuadratureConfig(),
) -> PlanarCurve:
    """Sample the curve whose curvature is `profile`, starting at `pose`.

    Returns N = config.samples_per_curve samples uniformly spaced in arc
    length on [0, S]; positions accumulate the integrals of the unit tangent
    over the gaps, from one tangent_integrals call over the samples with
    config.abs_tol as its budget, and theta is the angle at the samples as
    that call returns it, so theta is evaluated there once. Raises
    DomainError if abs_tol is below S * eps, and QuadratureError if meeting
    the budget would take more than quadrature.MAX_PANELS panels.
    """
    s_grid = _sample_grid(profile, config.samples_per_curve)
    xs, ys, theta = _integrate(profile, pose, s_grid, config.abs_tol, "gauss")
    return PlanarCurve(s_grid, xs, ys, theta, profile.kappa(s_grid))


def _integrate(profile: CurvatureProfile, pose: Pose, edges, abs_tol: float, scheme: str):
    """(x, y, theta) at `edges` from one tangent_integrals call, the gaps summed from `pose`."""
    def angle(t):
        return pose.theta0 + profile.theta(t)

    dx, dy, theta = tangent_integrals(angle, edges, abs_tol, scheme)
    xs = np.concatenate(([pose.x0], dx)).cumsum()
    ys = np.concatenate(([pose.y0], dy)).cumsum()
    return xs, ys, theta


# An endpoint's gaps grow this many times in distance from a curvature pole.
_POLE_GRADING = 16.0


def _graded_edges(profile: CurvatureProfile) -> np.ndarray:
    """Edges over [0, S] graded toward a curvature pole within S/15 of the curve.

    The pole lies d = S/r before the start of a GCS with r > 0 and
    d = S*(1 + r)/|r| past the end for r < 0. The gaps end at distances
    d * 16**k from it, so each is refined on its own, where one gap would
    refine all of [0, S] to the panels the pole needs, and a Simpson gap's
    64 first panels are under a quarter of their distance from the pole,
    where its estimate no longer under-reports.
    """
    S = profile.arc_length
    pole = profile.kappa_pole
    d = -pole if pole < 0.0 else pole - S
    if not 0.0 < (_POLE_GRADING - 1.0) * d < S:
        return np.array([0.0, S])
    steps = d * _POLE_GRADING ** np.arange(1.0, math.ceil(math.log((d + S) / d, _POLE_GRADING)))
    inner = steps - d if pole < 0.0 else (pole - steps)[::-1]
    return np.concatenate(([0.0], inner[(inner > 0.0) & (inner < S)], [S]))


def endpoint(
    profile: CurvatureProfile,
    pose: Pose = Pose(),
    config: QuadratureConfig = QuadratureConfig(),
    scheme: str = "simpson",
) -> EndState:
    """Final state at s = S via tangent integration over [0, S].

    scheme is passed to tangent_integrals: "simpson" (composite Simpson
    with the Richardson correction, and Romberg's next one once a gap has
    doubled) or "gauss" (composite Gauss-Legendre). The two are
    independent schemes and serve as mutual cross-checks. Either makes
    synthesize's one tangent_integrals call, with config.abs_tol as its
    budget, over edges graded toward a curvature pole within S/15 of the
    curve (else the one gap [0, S]); theta is the last edge's angle as
    that call returns it, equal bit for bit to the float
    theta0 + profile.theta(S). Raises DomainError if abs_tol is below
    S * eps, and for any other scheme; QuadratureError if the call, all its
    gaps together, would take more than quadrature.MAX_PANELS panels.
    """
    xs, ys, theta = _integrate(profile, pose, _graded_edges(profile), config.abs_tol, scheme)
    return EndState(float(xs[-1]), float(ys[-1]), float(theta[-1]))


# -- serialization -------------------------------------------------------

def _curve_table(curve: PlanarCurve) -> tuple[str, np.ndarray]:
    """The curve table's header and rows: s, x, y, theta and kappa per sample."""
    columns = (curve.s, curve.x, curve.y, curve.theta, curve.kappa)
    return "s,x,y,theta,kappa", np.column_stack(columns)


def curve_to_csv(curve: PlanarCurve, target: Union[str, IO[str]]) -> None:
    """Write the curve table with round-trip-exact formatting."""
    write_tables([(target, *_curve_table(curve))])

