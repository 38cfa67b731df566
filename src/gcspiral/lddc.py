"""Discrete radius-of-curvature histogram (LDDC) and its analytic cross-check.

The histogram accumulates, per log10(rho) bin, the arc length of curve
segments whose midpoint radius of curvature falls in the bin. It reads
curvature samples only: a PlanarCurve, or an (s, kappa) pair such as a
profile's curvature on a sample grid, which needs no position integral. For
rational-linear profiles the same quantity has a closed form: kappa(s) is
monotone, so the exact arc length in any rho interval follows from
inverting kappa at the bin edges. The discrete histogram must converge to
that analytic distribution as sampling refines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, count, increasing, numeric, real
from .lcg import LcgLine, _circular_error
from .profiles import REL_TOL, GcsProfile
from .synthesis import PlanarCurve, _curvature_samples
from .tables import write_tables

__all__ = [
    "LddcHistogram",
    "LddcComparison",
    "lddc_histogram",
    "lddc_vs_lcg",
    "lddc_to_csv",
    "comparison_to_csv",
]


@dataclass(frozen=True)
class LddcHistogram:
    """Arc length accumulated per log10 radius-of-curvature bin."""

    bin_edges: np.ndarray
    lengths: np.ndarray
    total_length: float
    excluded_length: float = 0.0

    def __post_init__(self):
        edges = increasing("bin_edges", self.bin_edges, least=2)
        lengths = numeric("bin lengths", self.lengths)
        if lengths.shape != (len(edges) - 1,):
            raise DomainError("need exactly one length per bin")
        if not np.all((lengths >= 0.0) & np.isfinite(lengths)):
            raise DomainError("bin lengths must be finite and >= 0")
        total = real("total_length", self.total_length, above=0.0)
        held = float(np.sum(lengths)) + real("excluded_length", self.excluded_length, least=0.0)
        if held > total * (1.0 + 1e-9):
            raise DomainError(f"bins plus excluded length {held!r} exceed total_length {total!r}")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "lengths", lengths)

    @property
    def num_bins(self) -> int:
        return len(self.lengths)


def lddc_histogram(
    curve: Union[PlanarCurve, tuple],
    num_bins: int,
    edges: Optional[Sequence[float]] = None,
) -> LddcHistogram:
    """Bin each inter-sample segment by its midpoint radius of curvature.

    `curve` holds the curvature samples: a PlanarCurve, or an (s, kappa)
    pair of columns checked as a PlanarCurve checks those fields; only s
    and kappa are read. The segment between samples i and i+1 contributes
    its full arc length to the bin containing log10(1/|kappa_mid|), with
    kappa_mid the mean of the endpoint curvatures. Segments whose
    |kappa_mid| falls below the near-inflection threshold are excluded and
    their total length reported. With no explicit `edges`, bins span the
    observed log10 range (padded by half a decade each way when the range
    is degenerate, e.g. for a circle).
    """
    s, kappa, scale = _curvature_samples(curve)
    num_bins = count("num_bins", num_bins)
    seg_len = np.diff(s)
    kappa_mid = 0.5 * kappa[:-1] + 0.5 * kappa[1:]  # halved first: no overflow near 1e308
    include = np.abs(kappa_mid) >= REL_TOL * scale
    excluded = float(np.sum(seg_len[~include]))
    if not np.any(include):
        raise DomainError("every segment is effectively straight; radius of curvature is undefined")

    log_rho = -np.log10(np.abs(kappa_mid[include]))
    weights = seg_len[include]

    if edges is None:
        lo = float(np.min(log_rho))
        hi = float(np.max(log_rho))
        if hi - lo < 1e-12:
            lo -= 0.5
            hi += 0.5
        edge_arr = np.linspace(lo, hi, num_bins + 1)
    else:
        edge_arr = increasing("edges", edges, least=2)
        if len(edge_arr) != num_bins + 1:
            raise DomainError(
                f"explicit edges must hold num_bins+1 = {num_bins + 1} values, got {len(edge_arr)}"
            )
        # Out-of-range segments are treated like excluded ones.
        in_range = (log_rho >= edge_arr[0]) & (log_rho <= edge_arr[-1])
        excluded += float(np.sum(weights[~in_range]))
        log_rho = log_rho[in_range]
        weights = weights[in_range]

    idx = np.clip(np.searchsorted(edge_arr, log_rho, side="right") - 1, 0, num_bins - 1)
    lengths = np.bincount(idx, weights, num_bins)
    return LddcHistogram(edge_arr, lengths, float(s[-1] - s[0]), excluded)


@dataclass(frozen=True)
class LddcComparison:
    """Measured vs analytically predicted arc length per histogram bin."""

    bin_edges: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    max_abs_deviation: float


def lddc_vs_lcg(
    histogram: LddcHistogram,
    line: LcgLine,
    profile: GcsProfile,
) -> LddcComparison:
    """Compare measured bin lengths against the exact curvature-inversion prediction.

    kappa(s) = (n1*s + n0)/(r*s + S) is monotone on [0, S] (r > -1), so the
    arc length where |kappa| <= k is |s(k+) - s(k-)|, with k+ and k- the
    values +k and -k clipped to the attained range between kappa0 and
    kappa1. The inverse is written from the end curvatures as
    s(kappa) = S / (1 + (1 + r)*(kappa1 - kappa)/(kappa - kappa0)):
    it has no pole on that range, gives exactly 0 at kappa0 (where the ratio
    is infinite) and S at kappa1, and each of its steps is monotone in
    floating point, so no bin is predicted a negative length. That length
    is taken once at k = 10**-edge for every bin edge; each bin's prediction
    is the difference at its two edges. A circular profile raises the
    DomainError of the LCG closed forms.
    """
    S = profile.arc_length
    if abs(histogram.total_length - S) > 1e-9 * max(1.0, S):
        raise DomainError(
            f"histogram covers length {histogram.total_length!r} but the profile has {S!r}"
        )
    if abs(line.domain[0]) > 1e-9 * max(1.0, S) or abs(line.domain[1] - S) > 1e-9 * max(1.0, S):
        raise DomainError(
            f"gradient line domain {line.domain!r} does not match the profile's [0, {S}]"
        )
    if profile.circular:
        raise _circular_error(profile)

    edges = histogram.bin_edges
    k0, k1 = profile.kappa0, profile.kappa1
    with np.errstate(over="ignore", divide="ignore"):
        k = np.power(10.0, -edges)
        k_hat = np.clip(np.stack((k, -k)), min(k0, k1), max(k0, k1))
        s = S / (1.0 + (1.0 + profile.r) * ((k1 - k_hat) / (k_hat - k0)))
    within = np.abs(s[0] - s[1])
    predicted = within[:-1] - within[1:]
    deviation = float(np.max(np.abs(histogram.lengths - predicted)))
    return LddcComparison(edges.copy(), histogram.lengths.copy(), predicted, deviation)


# -- serialization -------------------------------------------------------

def _lddc_table(histogram: LddcHistogram) -> tuple[str, np.ndarray]:
    """The histogram table's header and rows: each bin's two edges and its length."""
    edges = histogram.bin_edges
    header = "bin_lo_log10rho,bin_hi_log10rho,length"
    return header, np.column_stack((edges[:-1], edges[1:], histogram.lengths))


def lddc_to_csv(histogram: LddcHistogram, target: Union[str, IO[str]]) -> None:
    write_tables([(target, *_lddc_table(histogram))])


def _comparison_table(comparison: LddcComparison) -> tuple[str, np.ndarray]:
    """The comparison table's header and rows: each bin's two edges, measured and predicted."""
    edges = comparison.bin_edges
    header = "bin_lo_log10rho,bin_hi_log10rho,measured_length,predicted_length"
    columns = (edges[:-1], edges[1:], comparison.measured, comparison.predicted)
    return header, np.column_stack(columns)


def comparison_to_csv(comparison: LddcComparison, target: Union[str, IO[str]]) -> None:
    write_tables([(target, *_comparison_table(comparison))])
