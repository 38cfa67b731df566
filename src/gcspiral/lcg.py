"""Logarithmic curvature graph (LCG), its gradient, and aesthetic classification.

For a curve parameterised by arc length t with radius of curvature
rho = 1/kappa, the LCG is the point set (log|rho|, log|rho/rho'|), which is
(-log|kappa|, log|kappa/kappa'|), and its gradient is

    gradient(t) = 1 - rho*rho''/rho'^2 = kappa*kappa''/kappa'^2 - 1.

For the rational-linear curvature family the gradient is an exact linear
function of arc length, gradient(t) = A*t + B; a curve whose gradient is
constant (A = 0) meets the stricter log-aesthetic criterion, and a linear
but non-constant gradient is the signature of the wider rational-linear
class. The gradient is taken from a profile (closed form or its kappa,
kappa', kappa''), or estimated by finite differences of curvature samples
(gradient_from_samples: a PlanarCurve or an (s, kappa) pair, no positions
needed). Natural logarithms are used throughout this module.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import IO, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DegenerateDataError,
    DomainError,
    SingularPointError,
    SingularProfileError,
    count,
    increasing,
    numeric,
    real,
)
from .profiles import REL_TOL, CurvatureProfile, GcsProfile, _clamp_s
from .synthesis import PlanarCurve, _curvature_samples
from .tables import row_array, write_tables

__all__ = [
    "LcgPoint",
    "SkippedPoint",
    "LcgLine",
    "AestheticClass",
    "lcg_numeric",
    "lcg_gradient_numeric",
    "lcg_gcs_points",
    "gradient_gcs",
    "gradient_line",
    "line_residual",
    "classify_aesthetic",
    "gradient_from_samples",
    "lcg_points_to_csv",
    "gradient_to_csv",
]

class LcgPoint(NamedTuple):
    """One LCG sample, a table row: parameter value plus both log coordinates."""

    t: float
    log_rho: float
    log_freq: float


class SkippedPoint(NamedTuple):
    """Diagnostic for a grid value where the LCG is undefined."""

    t: float
    reason: str


@dataclass(frozen=True)
class LcgLine:
    """Linear gradient model A*t + B over a parameter domain, with fit residual."""

    slope_a: float
    intercept_b: float
    domain: tuple[float, float]
    residual: float = 0.0

    def __post_init__(self):
        for name in ("slope_a", "intercept_b"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        domain = increasing("LCG line domain", self.domain, least=2)
        if len(domain) != 2:
            raise DomainError(f"LCG line domain must be an interval (lo, hi), got {self.domain!r}")
        object.__setattr__(self, "domain", tuple(domain.tolist()))
        object.__setattr__(self, "residual", real("residual", self.residual, least=0.0))

    def __call__(self, t):
        return self.slope_a * t + self.intercept_b


class AestheticClass(enum.Enum):
    """Verdict of the linear-gradient criterion."""

    LOG_AESTHETIC = "log_aesthetic"
    GCS = "gcs"
    OTHER = "other"


def _rows(row_type, *columns) -> list:
    """`row_type` rows zipped from equal-length columns, built without its Python __new__."""
    return list(map(tuple.__new__, repeat(row_type), zip(*columns)))


def lcg_numeric(
    profile: CurvatureProfile, t_grid: Sequence[float]
) -> tuple[list[LcgPoint], list[SkippedPoint]]:
    """Evaluate the LCG of any profile on a grid from its kappa and kappa'.

    log|rho| = -log|kappa| and log|rho/rho'| = log|kappa/kappa'|; kappa and
    kappa' are each evaluated once on the whole grid. Grid values where
    either coordinate fails to be finite are skipped and reported with the
    first cause that applies rather than raising.
    """
    grid = increasing("t_grid", t_grid, least=1)
    k = profile.kappa(grid)
    kp = profile.kappa_prime(grid)
    with np.errstate(all="ignore"):
        log_rho = -np.log(np.abs(k))
        log_freq = np.log(np.abs(k / kp))
    masks, reasons = zip(
        (k == 0.0, "rho is not finite (inflection)"),
        (kp == 0.0, "rho' = 0 (curvature extremum)"),
        (~(np.isfinite(log_rho) & np.isfinite(log_freq)), "LCG coordinate is not finite"),
    )
    reason = np.select(masks, reasons, default="")
    kept = reason == ""
    points = _rows(LcgPoint, grid[kept].tolist(), log_rho[kept].tolist(), log_freq[kept].tolist())
    skipped = _rows(SkippedPoint, grid[~kept].tolist(), reason[~kept].tolist())
    return points, skipped


def lcg_gradient_numeric(profile: CurvatureProfile, t):
    """Gradient kappa*kappa''/kappa'^2 - 1 of any profile's LCG at t (a real or a column).

    Finite through an inflection. Raises SingularPointError naming the
    first t where kappa' = 0 or the gradient is otherwise not finite.
    """
    t = numeric("t", t)
    s = t.reshape(-1)  # profiles return arrays for array arguments, never 0-d ones
    kp = profile.kappa_prime(s)
    with np.errstate(all="ignore"):
        gradient = profile.kappa(s) / kp * (profile.kappa_double_prime(s) / kp) - 1.0
    bad = np.flatnonzero(~np.isfinite(gradient))
    if len(bad):
        at = s[bad[0]].item()
        if kp[bad[0]] == 0.0:
            raise SingularPointError(
                f"kappa'({at!r}) = 0: LCG gradient undefined at curvature extremum"
            )
        raise SingularPointError(f"LCG gradient at t={at!r} is not finite")
    return gradient.reshape(t.shape) if t.ndim else float(gradient[0])


def _circular_error(profile: GcsProfile) -> SingularProfileError:
    """The error every closed form raises on a `profile.circular` profile."""
    return SingularProfileError(
        "LCG closed forms divide by kappa0 - kappa1; "
        f"profile has kappa0 = {profile.kappa0!r}, kappa1 = {profile.kappa1!r}"
    )


def lcg_gcs_points(
    profile: GcsProfile, t_grid: Sequence[float]
) -> tuple[list[LcgPoint], list[SkippedPoint]]:
    """Exact LCG of a rational-linear profile over a grid.

    First coordinate: log|(r*t+S)/(n1*t+n0)|. Second: log of the rho/rho'
    quotient, |(r*t+S)*(n1*t+n0) / (S*(1+r)*(kappa0-kappa1))|. The grid is
    checked as in lcg_numeric; near-inflection values become diagnostics.
    """
    if profile.circular:
        raise _circular_error(profile)
    S = profile.arc_length
    t = _clamp_s(increasing("t_grid", t_grid, least=1), S)
    nu = profile.n1 * t + profile.n0
    den = profile.r * t + S
    # |den*nu| is at most the product of their largest ends, as both are linear in t.
    bound = max(S, profile.r * S + S) * max(abs(profile.n0), abs(profile.n1 * S + profile.n0))
    with np.errstate(divide="ignore", invalid="ignore"):
        kept = ~(np.abs(nu / den) < REL_TOL * profile.scale)
        log_rho = np.log(np.abs(den[kept] / nu[kept]))
        if math.isfinite(bound):
            log_freq = np.log(np.abs(den[kept] * nu[kept] / profile.c))
        else:  # den*nu may overflow; the logs of its factors do not
            log_den_nu = np.log(np.abs(den[kept])) + np.log(np.abs(nu[kept]))
            log_freq = log_den_nu - math.log(abs(profile.c))
    points = _rows(LcgPoint, t[kept].tolist(), log_rho.tolist(), log_freq.tolist())
    skipped = [
        SkippedPoint(v, f"curvature vanishes at t={v!r} (inflection); LCG point undefined")
        for v in t[~kept].tolist()
    ]
    return points, skipped


def gradient_gcs(profile: GcsProfile, t):
    """Exact LCG gradient of a rational-linear profile at parameter t (a real or a column).

    The rho/rho'/rho'' combination simplifies to the rational expression
    1 + 2*n1*(r*t+S) / (S*(1+r)*(kappa0-kappa1)), which stays finite through
    inflections.
    """
    if profile.circular:
        raise _circular_error(profile)
    S = profile.arc_length
    # A float inside [0, S] is what _clamp_s would return; it skips the call.
    if type(t) is not float or not 0.0 <= t <= S:
        t = _clamp_s(t, S)
    return 1.0 + 2.0 * profile.n1 * (profile.r * t + S) / profile.c


def gradient_line(profile: GcsProfile) -> LcgLine:
    """Slope and intercept of the exact linear gradient A*t + B.

    A = 2*r*n1 / ((1+r)*S*(kappa0-kappa1)) and
    B = 2*r*kappa0 / ((1+r)*(kappa0-kappa1)) - 1.
    """
    if profile.circular:
        raise _circular_error(profile)
    k0, k1 = profile.kappa0, profile.kappa1
    r, S = profile.r, profile.arc_length
    a = 2.0 * r * profile.n1 / ((1.0 + r) * S * (k0 - k1))
    b = 2.0 * r * k0 / ((1.0 + r) * (k0 - k1)) - 1.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("profile parameters overflow the LCG gradient line")
    return LcgLine(a, b, (0.0, S))


def line_residual(profile: GcsProfile, line: LcgLine, num: int = 50) -> float:
    """Max deviation of the exact gradient from the line over a uniform grid."""
    grid = np.linspace(0.0, profile.arc_length, count("num", num, least=2))
    return float(np.max(np.abs(gradient_gcs(profile, grid) - line(grid))))


# A closed-form GCS line misses gradient_gcs by rounding alone: each of the 22
# operations of n1, c, gradient_gcs, gradient_line and A*t + B rounds once, by
# eps/2 of a term worth at most 2*M of gradient (4*M for r*kappa1 in n1), with
# M = max(1, |A*t + B| at the domain ends). For r >= 0 that is 43 * eps/2 * M;
# for r < 0 n1 adds up to 2*eps/(1 + r), which the line does not know.
_ROUNDING_FIT = 22.0 * sys.float_info.epsilon


def classify_aesthetic(line: LcgLine, residual: float, tol_fit: float = 1e-6) -> AestheticClass:
    """Apply the linear-gradient criterion to a fitted gradient line.

    The line fits when residual <= max(tol_fit, 22*eps*M), where M =
    max(1, |A*t + B| at the domain ends): tol_fit is absolute, and the
    rounding of a closed-form GCS line grows with |gradient|.
    LOG_AESTHETIC: the line fits and is constant (|A| at most 1e-6 per
    unit of domain span). GCS: it fits and is not constant. OTHER: the
    linear model misfits.
    """
    tol_fit = real("tol_fit", tol_fit, above=0.0)
    lo, hi = line.domain
    magnitude = max(1.0, abs(line(lo)), abs(line(hi)))
    if real("residual", residual, least=0.0) > max(tol_fit, _ROUNDING_FIT * magnitude):
        return AestheticClass.OTHER
    if abs(line.slope_a) <= 1e-6 / (hi - lo):
        return AestheticClass.LOG_AESTHETIC
    return AestheticClass.GCS


def _stencil_derivatives(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order f' and f'' on a uniform grid of step h (one-sided at the ends)."""
    d1 = np.empty(len(f))
    d1[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d1[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d1[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    d2 = np.empty(len(f))
    d2[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    d2[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    d2[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    return d1, d2


def gradient_from_samples(curve: Union[PlanarCurve, tuple]) -> tuple[np.ndarray, LcgLine]:
    """Estimate the LCG gradient from uniform curvature samples and fit a line.

    `curve` is a PlanarCurve or an (s, kappa) pair of columns, checked as a
    PlanarCurve checks those fields; only s and kappa are read. The
    gradient is 1 - rho*rho''/rho'**2 with rho = 1/kappa per sample.
    Where the sampled curvature changes sign, rho diverges, so the same
    identity is taken in its kappa form, kappa*kappa''/kappa'**2 - 1.
    Derivatives come from second-order central differences with
    second-order one-sided stencils at the two boundary samples. The
    ordinary-least-squares line is fitted over interior samples only and
    reported with its max residual. The trace is an (n, 2) array of
    (s, gradient) rows. Requires at least 7 samples and strictly monotone
    curvature.
    """
    s, kappa, scale = _curvature_samples(curve)
    n = len(s)
    if n < 7:
        raise DomainError(f"need at least 7 samples to estimate the gradient, got {n}")
    gaps = np.diff(s)
    h = float(gaps[0])
    if not (np.abs(gaps - h) <= 1e-9 * abs(h)).all():
        raise DomainError("gradient estimation requires uniform arc-length sampling")

    with np.errstate(over="ignore"):  # an overflowed difference is +-inf, of the right sign
        dk = np.diff(kappa)
    if np.all(np.abs(dk) <= REL_TOL * scale):
        raise DegenerateDataError("curvature is constant (circular arc): LCG gradient undefined")
    if np.any(dk >= 0.0) and np.any(dk <= 0.0):
        raise DegenerateDataError(
            "curvature is not strictly monotone (interior extremum or flat run)"
        )

    keep = np.abs(kappa) >= REL_TOL * scale
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kappa.min() < 0.0 < kappa.max():
            k_p, k_pp = _stencil_derivatives(kappa, h)
            grad = kappa * k_pp / (k_p * k_p) - 1.0
        else:
            rho = 1.0 / kappa
            rho_p, rho_pp = _stencil_derivatives(rho, h)
            grad = 1.0 - rho * rho_pp / (rho_p * rho_p)
    keep &= np.isfinite(grad)
    if int(np.count_nonzero(keep)) < 3:
        raise DegenerateDataError("too few usable samples after excluding inflections")

    trace = np.column_stack((s[keep], grad[keep]))

    interior = keep.copy()
    interior[0] = interior[-1] = False
    s_fit = s[interior]
    g_fit = grad[interior]
    if len(s_fit) < 2:
        raise DegenerateDataError("too few interior samples to fit a gradient line")
    # polyfit squares s; scaled by a power of two to below 1 it cannot overflow,
    # and polyfit's own column scaling leaves every bit of the fit as unscaled.
    unit = math.ldexp(1.0, -math.frexp(s[-1])[1])
    slope, intercept = np.polyfit(s_fit * unit, g_fit, 1)
    slope *= unit
    residual = float(np.max(np.abs(g_fit - (slope * s_fit + intercept))))
    line = LcgLine(float(slope), float(intercept), (float(s[0]), float(s[-1])), residual)
    return trace, line


# -- serialization -------------------------------------------------------

def _lcg_table(points: Sequence[LcgPoint]) -> tuple[str, np.ndarray]:
    """The LCG table's header and rows, one (t, log_rho, log_freq) row per point."""
    return "t,log_rho,log_freq", row_array(points, 3)


def _gradient_table(samples) -> tuple:
    """The gradient-trace table's header and rows, an (n, 2) array-like of (s, gradient)."""
    return "s,gradient", samples


def lcg_points_to_csv(points: Sequence[LcgPoint], target: Union[str, IO[str]]) -> None:
    write_tables([(target, *_lcg_table(points))])


def gradient_to_csv(samples, target: Union[str, IO[str]]) -> None:
    write_tables([(target, *_gradient_table(samples))])

