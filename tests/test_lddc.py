"""Radius-of-curvature histogram: binning, conservation, analytic cross-check."""

import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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
    lddc_from_csv,
    lddc_histogram,
    lddc_to_csv,
    lddc_to_svg,
    lddc_vs_lcg,
    synthesize,
)
from gcspiral.svg import bar_chart_svg

RAMP = GcsProfile(0.5, 2.0, math.pi, 0.0)
INFLECTING = GcsProfile(-1.0, 1.0, 2.0, 0.0)


def dense(profile, n=4096):
    return synthesize(profile, config=QuadratureConfig(samples_per_curve=n))


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

    def test_rejects_bad_totals(self):
        with pytest.raises(DomainError):
            LddcHistogram([0.0, 1.0], [1.0], 0.0)
        with pytest.raises(DomainError):
            LddcHistogram([0.0, 1.0], [1.0], 1.0, excluded_length=-0.1)


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


class TestSerialization:
    def test_csv_round_trip(self):
        hist = lddc_histogram(dense(RAMP, n=512), 8)
        buffer = io.StringIO()
        lddc_to_csv(hist, buffer)
        again = lddc_from_csv(io.StringIO(buffer.getvalue()))
        assert np.array_equal(hist.bin_edges, again.bin_edges)
        assert np.array_equal(hist.lengths, again.lengths)
        assert again.total_length == pytest.approx(float(np.sum(hist.lengths)), abs=0.0)

    def test_csv_header_validated(self):
        with pytest.raises(DomainError):
            lddc_from_csv(io.StringIO("lo,hi,len\n0,1,1\n"))

    def test_csv_row_width_validated(self):
        text = "bin_lo_log10rho,bin_hi_log10rho,length\n0,1\n"
        with pytest.raises(DomainError):
            lddc_from_csv(io.StringIO(text))

    def test_csv_numeric_validated(self):
        text = "bin_lo_log10rho,bin_hi_log10rho,length\n0,one,1\n"
        with pytest.raises(DomainError):
            lddc_from_csv(io.StringIO(text))

    def test_csv_contiguity_validated(self):
        text = "bin_lo_log10rho,bin_hi_log10rho,length\n0,1,1\n2,3,1\n"
        with pytest.raises(DomainError):
            lddc_from_csv(io.StringIO(text))

    def test_csv_empty_rejected(self):
        text = "bin_lo_log10rho,bin_hi_log10rho,length\n"
        with pytest.raises(DomainError):
            lddc_from_csv(io.StringIO(text))

    def test_svg_output(self):
        hist = lddc_histogram(dense(RAMP, n=256), 8)
        buffer = io.StringIO()
        lddc_to_svg(hist, buffer)
        text = buffer.getvalue()
        assert text.startswith("<?xml")
        assert text.count("<rect") >= 1 + int(np.count_nonzero(hist.lengths))

    def test_bar_chart_caption_is_escaped(self):
        text = bar_chart_svg([0.0, 1.0, 2.0], [1.0, 2.0], x_label="a<b", y_label="c&d")
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
