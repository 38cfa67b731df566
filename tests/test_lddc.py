"""Radius-of-curvature histogram: binning, conservation, analytic cross-check."""

import io
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcspiral import (
    ConstantProfile,
    DegenerateDataError,
    DomainError,
    GcsProfile,
    LcgLine,
    LddcHistogram,
    MismatchedInputsError,
    QuadratureConfig,
    comparison_to_csv,
    gradient_line,
    lddc_histogram,
    lddc_vs_lcg,
    synthesize,
)
from gcspiral.profiles import inflection
from gcspiral.svg import bar_chart_svg
from tutil import gcs_profiles

RAMP = GcsProfile(0.5, 2.0, math.pi, 0.0)
INFLECTING = GcsProfile(-1.0, 1.0, 2.0, 0.0)


def dense(profile, n=4096):
    return synthesize(profile, config=QuadratureConfig(samples_per_curve=n))


def flat_line(S):
    """An LCG line over [0, S]; `lddc_vs_lcg` reads only its domain."""
    return LcgLine(0.0, 0.0, (0.0, S))


# -- reference: the per-bin, per-piece radius inversion the closed form replaced


def _invert_abs_rho(profile: GcsProfile, sign: float, rho_abs: float, lo: float, hi: float) -> float:
    """Arc length where the signed radius equals sign*rho_abs, clamped to [lo, hi].

    Solving (r*s + S)/(n1*s + n0) = rho_signed gives
    s = (S - rho_signed*n0) / (rho_signed*n1 - r).
    """
    rho_signed = sign * rho_abs
    den = rho_signed * profile.n1 - profile.r
    if den == 0.0:
        # rho pole of the inverse; the corresponding s lies beyond the piece.
        return hi if sign * profile.n1 >= 0.0 else lo
    s = (profile.arc_length - rho_signed * profile.n0) / den
    return min(max(s, lo), hi)


def _piece_length_in_band(
    profile: GcsProfile, lo: float, hi: float, rho_a: float, rho_b: float
) -> float:
    """Arc length of {s in [lo, hi] : |rho(s)| in [rho_a, rho_b]} for one piece.

    The piece must not contain an interior inflection so that |rho| is
    monotone on it.
    """
    mid = 0.5 * (lo + hi)
    k_mid = profile.kappa(mid)
    sign = 1.0 if k_mid >= 0.0 else -1.0

    def abs_rho_at(s: float) -> float:
        k = profile.kappa(s)
        if k == 0.0:
            return math.inf
        return abs(1.0 / k)

    end_lo, end_hi = abs_rho_at(lo), abs_rho_at(hi)
    piece_min = min(end_lo, end_hi)
    piece_max = max(end_lo, end_hi)
    band_lo = max(rho_a, piece_min)
    band_hi = min(rho_b, piece_max)
    if band_lo >= band_hi:
        return 0.0
    s_at_lo = lo if band_lo == piece_min and end_lo <= end_hi else (
        hi if band_lo == piece_min else _invert_abs_rho(profile, sign, band_lo, lo, hi)
    )
    if band_hi == piece_max:
        s_at_hi = lo if end_lo >= end_hi else hi
    else:
        s_at_hi = _invert_abs_rho(profile, sign, band_hi, lo, hi)
    return abs(s_at_hi - s_at_lo)


def reference_predicted(edges, profile: GcsProfile) -> np.ndarray:
    S = profile.arc_length
    s_star = inflection(profile)
    pieces: list[tuple[float, float]] = []
    if s_star is not None and 0.0 < s_star < S:
        pieces = [(0.0, s_star), (s_star, S)]
    else:
        pieces = [(0.0, S)]

    predicted = np.zeros(len(edges) - 1)
    for i in range(len(edges) - 1):
        rho_a = 10.0 ** float(edges[i])
        rho_b = 10.0 ** float(edges[i + 1])
        predicted[i] = sum(
            _piece_length_in_band(profile, lo, hi, rho_a, rho_b) for lo, hi in pieces
        )
    return predicted


def exact_predicted(edges, profile: GcsProfile) -> np.ndarray:
    """The prediction in rational arithmetic from the profile's float inputs.

    Inverts kappa(s) = (n1*s + n0)/(r*s + S) directly, with n1 and n0 exact,
    at the float k = 10**-edge the implementation uses.
    """
    k0, k1, S, r = map(Fraction, (profile.kappa0, profile.kappa1, profile.arc_length, profile.r))
    n1, n0 = k1 - k0 + r * k1, k0 * S
    lo, hi = min(k0, k1), max(k0, k1)

    def s_at(k):
        return (k * S - n0) / (n1 - k * r)

    within = []
    for k in np.power(10.0, -np.asarray(edges, dtype=float)).tolist():
        k = Fraction(k)
        within.append(abs(s_at(min(max(k, lo), hi)) - s_at(min(max(-k, lo), hi))))
    return np.array([float(a - b) for a, b in zip(within[:-1], within[1:])])


def seeded_profiles(rng, kind, count):
    """Profiles of one family, with edges running past the attained radius range."""
    for _ in range(count):
        S = float(10.0 ** rng.uniform(-2.0, 2.0))
        r = float(rng.uniform(-0.99, 5.0))
        k0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0) / S)
        k1 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0) / S)
        if kind == "inflecting":
            k1 = -math.copysign(k1, k0)
        elif kind == "log_spiral":
            k1 = k0 / (1.0 + r)  # n1 = 0
        elif kind == "clothoid":
            r = 0.0
        elif kind == "near_minus_one":
            r = -1.0 + float(10.0 ** rng.uniform(-4.0, -2.0))
        elif kind == "r100":
            r = 100.0
        elif kind == "extreme_minus_one":
            r = -1.0 + float(10.0 ** rng.uniform(-15.0, -4.0))
        profile = GcsProfile(k0, k1, S, r)
        k_big, k_small = max(abs(k0), abs(k1)), min(abs(k0), abs(k1))
        lo = -math.log10(k_big) - rng.uniform(0.0, 2.0)
        hi = -math.log10(k_small) + rng.uniform(0.0, 2.0)
        edges = np.sort(rng.uniform(lo, hi, int(rng.integers(3, 30))))
        if np.all(np.diff(edges) > 0.0):
            yield profile, edges


REFERENCE_KINDS = ("inflecting", "log_spiral", "clothoid", "near_minus_one", "r100")


class TestHistogram:
    def test_circle_fills_single_middle_bin(self):
        curve = dense(ConstantProfile(2.0, math.pi), n=512)
        hist = lddc_histogram(curve, 5)
        v = math.log10(0.5)
        assert hist.num_bins == 5
        assert hist.bin_edges[0] == pytest.approx(v - 0.5, abs=1e-12)
        assert hist.bin_edges[-1] == pytest.approx(v + 0.5, abs=1e-12)
        assert hist.excluded_length == 0.0
        nonzero = np.nonzero(hist.lengths)[0]
        assert nonzero.tolist() == [2]
        assert hist.lengths[2] == pytest.approx(math.pi, abs=1e-12)

    def test_straight_line_rejected(self):
        curve = dense(ConstantProfile(0.0, 1.0), n=64)
        with pytest.raises(DegenerateDataError):
            lddc_histogram(curve, 4)

    def test_arc_length_conservation(self):
        curve = dense(RAMP)
        hist = lddc_histogram(curve, 16)
        assert hist.total_length == pytest.approx(math.pi, abs=1e-12)
        assert float(np.sum(hist.lengths)) + hist.excluded_length == pytest.approx(
            hist.total_length, abs=1e-9
        )

    def test_matches_per_segment_brute_force(self):
        curve = dense(RAMP, n=257)
        hist = lddc_histogram(curve, 8)
        expected = np.zeros(8)
        for i in range(len(curve) - 1):
            k_mid = 0.5 * (curve.kappa[i] + curve.kappa[i + 1])
            v = -math.log10(abs(k_mid))
            idx = int(np.searchsorted(hist.bin_edges, v, side="right")) - 1
            idx = min(max(idx, 0), 7)
            expected[idx] += curve.s[i + 1] - curve.s[i]
        assert np.array_equal(hist.lengths, expected)

    def test_monotone_curvature_occupies_contiguous_run(self):
        hist = lddc_histogram(dense(RAMP), 16)
        nonzero = np.nonzero(hist.lengths)[0]
        assert len(nonzero) == 16
        assert nonzero.tolist() == list(range(nonzero[0], nonzero[-1] + 1))

    def test_explicit_edges_respected(self):
        curve = dense(RAMP, n=1024)
        edges = np.linspace(math.log10(0.5), math.log10(2.0), 9)
        hist = lddc_histogram(curve, 8, edges=edges)
        assert np.array_equal(hist.bin_edges, edges)
        assert float(np.sum(hist.lengths)) + hist.excluded_length == pytest.approx(
            math.pi, abs=1e-9
        )

    def test_explicit_edges_out_of_range_counts_as_excluded(self):
        curve = dense(ConstantProfile(2.0, math.pi), n=128)
        hist = lddc_histogram(curve, 4, edges=[1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.all(hist.lengths == 0.0)
        assert hist.excluded_length == pytest.approx(math.pi, abs=1e-12)

    def test_near_inflection_segments_excluded(self):
        hist = lddc_histogram(dense(INFLECTING), 12)
        assert hist.excluded_length > 0.0
        assert float(np.sum(hist.lengths)) + hist.excluded_length == pytest.approx(
            2.0, abs=1e-9
        )

    def test_bin_count_validated(self):
        curve = dense(RAMP, n=64)
        with pytest.raises(DomainError):
            lddc_histogram(curve, 0)
        with pytest.raises(DomainError):
            lddc_histogram(curve, 4, edges=[0.0, 1.0])
        for edges in (["-1", "0", "1"], ["a", "b", "c"], [0.0, [1.0], 2.0], [0.0, 2.0, 1.0]):
            with pytest.raises(DomainError, match="edges"):
                lddc_histogram(curve, 2, edges=edges)
        for bad in (2.5, True, "4", None):
            with pytest.raises(DomainError):
                lddc_histogram(curve, bad)
        by_numpy = lddc_histogram(curve, np.int64(4))
        assert np.array_equal(by_numpy.lengths, lddc_histogram(curve, 4).lengths)


class TestHistogramModel:
    def test_rejects_decreasing_edges(self):
        with pytest.raises(DomainError):
            LddcHistogram([0.0, 1.0, 0.5], [1.0, 1.0], 2.0)

    def test_rejects_length_count_mismatch(self):
        with pytest.raises(DomainError):
            LddcHistogram([0.0, 1.0, 2.0], [1.0], 1.0)

    def test_rejects_negative_length(self):
        with pytest.raises(DomainError):
            LddcHistogram([0.0, 1.0], [-1.0], 1.0)
        for bad in (["x"], ["1"], [True], [[1.0], [1.0, 2.0]], None):
            with pytest.raises(DomainError, match="must hold only numbers"):
                LddcHistogram([0.0, 1.0, 2.0], bad, 3.0)
        assert LddcHistogram([0.0, 1.0], [1], 1.0).lengths.dtype == np.float64

    def test_rejects_bad_totals(self):
        for total in (0.0, "3"):
            with pytest.raises(DomainError):
                LddcHistogram([0.0, 1.0], [1.0], total)
        for excluded in (-0.1, math.nan, math.inf, -math.inf, 5.0):
            with pytest.raises(DomainError):
                LddcHistogram([0.0, 1.0], [1.0], 1.0, excluded_length=excluded)


class TestAnalyticCrossCheck:
    def test_monotone_profile_deviation_shrinks_with_sampling(self):
        n = 4096
        curve = dense(RAMP, n=n)
        hist = lddc_histogram(curve, 16)
        comparison = lddc_vs_lcg(hist, gradient_line(RAMP), RAMP)
        ds = math.pi / (n - 1)
        assert comparison.max_abs_deviation <= 4.0 * ds
        # Auto edges sit at observed midpoint radii, so up to ~one segment of
        # arc length lies outside the outermost bins.
        assert float(np.sum(comparison.predicted)) == pytest.approx(math.pi, abs=4.0 * ds)

    def test_inflecting_profile_splits_at_sign_change(self):
        n = 4096
        curve = dense(INFLECTING, n=n)
        hist = lddc_histogram(curve, 16)
        comparison = lddc_vs_lcg(hist, gradient_line(INFLECTING), INFLECTING)
        ds = 2.0 / (n - 1)
        assert comparison.max_abs_deviation <= 4.0 * ds

    def test_prediction_is_exact_at_bin_boundaries(self):
        # Bin edges chosen at the profile's own radius extremes: the exact
        # in-band lengths must add up to the full arc length.
        edges = np.linspace(math.log10(0.5), math.log10(2.0), 9)
        curve = dense(RAMP)
        hist = lddc_histogram(curve, 8, edges=edges)
        comparison = lddc_vs_lcg(hist, gradient_line(RAMP), RAMP)
        assert float(np.sum(comparison.predicted)) == pytest.approx(math.pi, abs=1e-9)

    def test_total_length_mismatch_rejected(self):
        other = GcsProfile(0.5, 2.0, 1.0, 0.0)
        hist = lddc_histogram(dense(other, n=256), 8)
        with pytest.raises(MismatchedInputsError):
            lddc_vs_lcg(hist, gradient_line(RAMP), RAMP)

    def test_domain_mismatch_rejected(self):
        hist = lddc_histogram(dense(RAMP, n=256), 8)
        line = LcgLine(0.0, -1.0, (0.0, math.pi / 2.0))
        with pytest.raises(MismatchedInputsError):
            lddc_vs_lcg(hist, line, RAMP)

    def test_constant_curvature_rejected(self):
        circle = GcsProfile(2.0, 2.0, math.pi, 0.0)
        hist = lddc_histogram(dense(ConstantProfile(2.0, math.pi), n=256), 4)
        line = LcgLine(0.0, 0.0, (0.0, math.pi))
        with pytest.raises(MismatchedInputsError):
            lddc_vs_lcg(hist, line, circle)


    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    def test_matches_per_piece_reference(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for profile, edges in seeded_profiles(rng, kind, 150):
            S = profile.arc_length
            hist = LddcHistogram(edges, np.zeros(len(edges) - 1), S)
            predicted = lddc_vs_lcg(hist, flat_line(S), profile).predicted
            expected = reference_predicted(edges, profile)
            assert np.max(np.abs(predicted - expected)) <= 1e-11 * S, (profile, edges)

    @pytest.mark.parametrize("kind", REFERENCE_KINDS + ("extreme_minus_one",))
    def test_matches_exact_inversion(self, kind):
        # Down to r = -1 + 1e-15, where the per-piece reference, which goes
        # through n1 and n0, loses digits to cancellation.
        rng = np.random.default_rng(7 + sum(map(ord, kind)))
        for profile, edges in seeded_profiles(rng, kind, 200):
            S = profile.arc_length
            hist = LddcHistogram(edges, np.zeros(len(edges) - 1), S)
            predicted = lddc_vs_lcg(hist, flat_line(S), profile).predicted
            expected = exact_predicted(edges, profile)
            assert np.max(np.abs(predicted - expected)) <= 1e-12 * S, (profile, edges)

    def test_edges_past_float_range(self):
        # 10**400 overflows a float; the prediction must still hold.
        hist = LddcHistogram([-400.0, 0.0, 400.0], [1.0, 2.0], math.pi)
        comparison = lddc_vs_lcg(hist, flat_line(math.pi), RAMP)
        assert comparison.predicted == pytest.approx(
            [2.0 * math.pi / 3.0, math.pi / 3.0], rel=0.0, abs=1e-12
        )

    def test_full_length_when_shape_factor_is_next_to_minus_one(self):
        # Here n1 - kappa0*r rounds to 0 and the per-piece radius inversion
        # put all of the length outside every bin.
        profile = GcsProfile(1.0, -1e-8, 2.0, -1.0 + 2.0**-53)
        edges = np.linspace(-10.0, 10.0, 41)
        hist = LddcHistogram(edges, np.zeros(40), 2.0)
        predicted = lddc_vs_lcg(hist, flat_line(2.0), profile).predicted
        assert np.all(predicted >= 0.0)
        assert float(np.sum(predicted)) == pytest.approx(2.0, rel=0.0, abs=1e-12)

    def test_no_bin_predicted_negative_on_dense_edges(self):
        # Edges a few ulps apart: rounding must not push a prediction below 0.
        rng = np.random.default_rng(1)
        for _ in range(3000):
            k0, k1 = rng.uniform(-3.0, 3.0, 2)
            S = float(10.0 ** rng.uniform(-1.0, 1.0))
            profile = GcsProfile(float(k0), float(k1), S, float(rng.uniform(-0.99, 5.0)))
            centre = -math.log10(max(abs(k0), abs(k1))) + rng.uniform(0.0, 1.0)
            edges = np.unique(centre + np.arange(200) * 1e-15 * max(1.0, abs(centre)))
            hist = LddcHistogram(edges, np.zeros(len(edges) - 1), S)
            assert np.all(lddc_vs_lcg(hist, flat_line(S), profile).predicted >= 0.0)


class TestProperties:
    @given(
        gcs_profiles(min_kappa_gap=0.1),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=16, max_value=300),
        st.none() | st.floats(min_value=-3.0, max_value=1.0),
    )
    def test_lengths_plus_excluded_is_total(self, profile, num_bins, n, lo_edge):
        curve = synthesize(profile, config=QuadratureConfig(samples_per_curve=n))
        edges = None if lo_edge is None else np.linspace(lo_edge, lo_edge + 2.0, num_bins + 1)
        hist = lddc_histogram(curve, num_bins, edges=edges)
        S = profile.arc_length
        assert math.fsum(hist.lengths.tolist()) + hist.excluded_length == pytest.approx(
            S, rel=0.0, abs=1e-9 * S
        )

    @given(
        gcs_profiles(min_kappa_gap=0.1),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
    )
    def test_prediction_covers_total(self, profile, fractions):
        lo = -math.log10(max(abs(profile.kappa0), abs(profile.kappa1))) - 0.5
        edges = np.unique(np.concatenate(([lo, 400.0], lo + (400.0 - lo) * np.asarray(fractions))))
        S = profile.arc_length
        hist = LddcHistogram(edges, np.zeros(len(edges) - 1), S)
        predicted = lddc_vs_lcg(hist, flat_line(S), profile).predicted
        assert np.all(predicted >= 0.0)
        assert math.fsum(predicted.tolist()) == pytest.approx(S, rel=0.0, abs=1e-9 * S)


class TestSerialization:
    def test_bar_chart_needs_one_more_edge_than_values(self):
        with pytest.raises(DomainError, match="one more bin edge than values"):
            bar_chart_svg([0.0, 1.0], [1.0, 2.0])

    def test_bar_chart_of_all_zero_values_rejected(self):
        with pytest.raises(DomainError, match="all-zero histogram"):
            bar_chart_svg([0.0, 1.0, 2.0], [0.0, 0.0])

    def test_bar_chart_caption_is_escaped(self):
        text = bar_chart_svg([0.0, 1.0, 2.0], [1.0, 2.0], caption="a<b / c&d")
        root = ET.fromstring(text.encode("utf-8"))
        caption = root.find("{http://www.w3.org/2000/svg}text")
        assert caption.text == "a<b / c&d"

    def test_comparison_csv_shape(self):
        hist = lddc_histogram(dense(RAMP), 8)
        comparison = lddc_vs_lcg(hist, gradient_line(RAMP), RAMP)
        buffer = io.StringIO()
        comparison_to_csv(comparison, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "bin_lo_log10rho,bin_hi_log10rho,measured_length,predicted_length"
        assert len(lines) == 9
