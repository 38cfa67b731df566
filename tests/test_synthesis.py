"""Curve synthesis: endpoint oracles, invariants, serialization."""

import dataclasses
import html
import io
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcspiral import (
    ConstantProfile,
    DomainError,
    GcsProfile,
    LddcHistogram,
    LinearProfile,
    PlanarCurve,
    Pose,
    QuadraticProfile,
    QuadratureConfig,
    QuadratureError,
    endpoint,
    gradient_from_samples,
    lcg_gcs_points,
    lddc_histogram,
    synthesize,
)
from gcspiral import quadrature, synthesis
from gcspiral.errors import InputError
from gcspiral.svg import bar_chart_svg, polyline_svg
from gcspiral.tables import row_array, write_tables
from tutil import (
    arc_lengths,
    fig_sweep_profiles,
    gcs_profiles,
    kappas,
    menger_curvature,
    shape_factors,
)

# Independently computed with 40-digit arithmetic.
COS_T2_01 = 0.90452423790027208147
SIN_T2_01 = 0.31026830172338110181
GCS_R1_END = (0.48605614719959432625, 1.3485027722714506877)
# GcsProfile(1e8, 1, 1, 1e8), whose curvature pole lies S/1e8 before s = 0.
NEAR_POLE_END = (0.24679299072474285620, -0.66264109337921092706)
EPS = sys.float_info.epsilon


class TestEndpointOracles:
    def test_half_circle(self):
        end = endpoint(ConstantProfile(1.0, math.pi))
        assert end.x == pytest.approx(0.0, abs=1e-10)
        assert end.y == pytest.approx(2.0, abs=1e-10)

    def test_straight_line_exact(self):
        end = endpoint(ConstantProfile(0.0, 1.0))
        assert abs(end.x - 1.0) <= 1e-14
        assert abs(end.y) <= 1e-14
        assert end.theta == 0.0

    def test_full_circle_closes(self):
        end = endpoint(ConstantProfile(1.0, 2.0 * math.pi))
        assert end.x == pytest.approx(0.0, abs=1e-9)
        assert end.y == pytest.approx(0.0, abs=1e-9)
        assert end.theta == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_translation_along_rotated_tangent(self):
        end = endpoint(GcsProfile(0.0, 0.0, 5.0, 0.3), Pose(1.0, 1.0, math.pi / 2.0))
        assert end.x == pytest.approx(1.0, abs=1e-12)
        assert end.y == pytest.approx(6.0, abs=1e-12)
        assert end.theta == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_linear_curvature_demo_curve(self):
        # theta(t) = t*t for this profile, so the endpoint equals the
        # classic oscillatory-integral pair over [0, 1].
        end = endpoint(LinearProfile(0.0, 2.0, 1.0))
        assert end.x == pytest.approx(COS_T2_01, abs=1e-8)
        assert end.y == pytest.approx(SIN_T2_01, abs=1e-8)

    def test_curved_profile_frozen_value(self):
        end = endpoint(GcsProfile(0.0, 2.0, math.pi, 1.0))
        assert end.x == pytest.approx(GCS_R1_END[0], abs=1e-9)
        assert end.y == pytest.approx(GCS_R1_END[1], abs=1e-9)

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=25)
    def test_circle_closed_form_property(self, c, s_total, sign):
        c = sign * c
        end = endpoint(ConstantProfile(c, s_total))
        assert end.x == pytest.approx(math.sin(c * s_total) / c, abs=1e-9)
        assert end.y == pytest.approx((1.0 - math.cos(c * s_total)) / c, abs=1e-9)

    def test_near_pole_endpoint(self, monkeypatch):
        # Both schemes grade their gaps toward the pole, so Gauss refines
        # only the gaps next to it, not all of [0, S] (67,108,354 points).
        points = []
        theta = GcsProfile.theta

        def counting(self, s):
            points.append(np.size(s))
            return theta(self, s)

        monkeypatch.setattr(GcsProfile, "theta", counting)
        profile = GcsProfile(1e8, 1.0, 1.0, 1e8)
        for scheme in ("simpson", "gauss"):
            points.clear()
            end = endpoint(profile, scheme=scheme)
            assert abs(end.x - NEAR_POLE_END[0]) <= 1e-10
            assert abs(end.y - NEAR_POLE_END[1]) <= 1e-10
            assert sum(points) <= 100_000

    def test_unknown_scheme_rejected(self):
        for scheme in ("trapezoid", ["gauss"], None, np.array(["simpson", "gauss"])):
            with pytest.raises(DomainError, match="unknown quadrature scheme"):
                endpoint(ConstantProfile(1.0, 1.0), scheme=scheme)


class TestSchemeAgreement:
    @pytest.mark.parametrize("profile", fig_sweep_profiles(), ids=lambda p: f"r={p.r:g}")
    def test_independent_schemes_agree(self, profile):
        a = endpoint(profile, scheme="simpson")
        b = endpoint(profile, scheme="gauss")
        assert abs(a.x - b.x) <= 1e-9
        assert abs(a.y - b.y) <= 1e-9

    @given(
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=-0.99, max_value=50.0),
    )
    @example(0.0, 1.192092896e-07, 1.0, 16.0)
    @example(0.0, 2.200230415446468e-07, 3.6964160207572494, -0.989994481116497)
    @settings(max_examples=40)
    def test_schemes_agree_on_stiff_profiles(self, turn0, turn1, s_total, r):
        # |kappa| * S up to 300 rad at either end. The examples are nearly
        # straight gaps whose curvature has its pole within S/50 of the gap,
        # where Simpson's estimate under-reports on fewer than 64 panels.
        profile = GcsProfile(turn0 / s_total, turn1 / s_total, s_total, r)
        tol = QuadratureConfig().abs_tol
        a = endpoint(profile, scheme="simpson")
        b = endpoint(profile, scheme="gauss")
        assert abs(a.x - b.x) <= tol
        assert abs(a.y - b.y) <= tol

    @pytest.mark.parametrize("r", [-0.9, -0.5, 0.5, 4.0, 20.0])
    @pytest.mark.parametrize("kappa0", [3.0, -7.5])
    def test_log_spiral_closed_form(self, kappa0, r):
        # n1 = 0, so kappa(s) = n0 / (S + r*s), theta = (n0/r) log(1 + r*s/S)
        # and the endpoint is (S/r) / (1 + i*n0/r) * ((1 + r)**(1 + i*n0/r) - 1).
        s_total = 2.0
        profile = GcsProfile(kappa0, kappa0 / (1.0 + r), s_total, r)
        a = kappa0 * s_total / r
        z = (s_total / r) / (1.0 + 1j * a) * ((1.0 + r) ** (1.0 + 1j * a) - 1.0)
        for scheme in ("simpson", "gauss"):
            end = endpoint(profile, scheme=scheme)
            assert abs(end.x - z.real) <= 1e-12
            assert abs(end.y - z.imag) <= 1e-12


class TestSynthesize:
    def test_sample_layout(self):
        curve = synthesize(GcsProfile(0.0, 2.0, math.pi, 1.0))
        assert len(curve) == 256
        assert curve.s[0] == 0.0
        assert curve.s[-1] == pytest.approx(math.pi, abs=0.0)
        assert np.all(np.diff(curve.s) > 0.0)

    def test_samples_match_profile(self):
        p = GcsProfile(0.3, 1.7, 2.0, 1.5)
        curve = synthesize(p, Pose(0.0, 0.0, 0.4))
        for i in range(0, len(curve), 17):
            s = float(curve.s[i])
            assert curve.theta[i] == pytest.approx(0.4 + p.theta(s), abs=1e-12)
            assert curve.kappa[i] == pytest.approx(p.kappa(s), abs=1e-12)

    @pytest.mark.parametrize(
        "profile",
        [
            ConstantProfile(1.5, 2.0),
            LinearProfile(-1.0, 3.0, 2.0),
            QuadraticProfile(0.7, -1.0, 2.0, 1.5),
            GcsProfile(0.3, 1.7, 2.0, 1.5),  # the remainder series and its direct form
            GcsProfile(-2.0, 1.0, 2.0, 0.2),  # the series alone
            GcsProfile(0.0, 2.0, 1.0, -0.999),  # endpoint's gaps graded toward the pole
        ],
        ids=["constant", "linear", "quadratic", "gcs", "gcs-series", "gcs-graded"],
    )
    def test_theta_is_the_profile_angle_bit_for_bit(self, profile):
        # synthesize and endpoint read theta off the kernel's edge phase; it
        # equals the profile's own array call, and at S its float call.
        pose = Pose(0.7, -1.2, 0.9)
        curve = synthesize(profile, pose, QuadratureConfig(samples_per_curve=97))
        assert np.array_equal(curve.theta, pose.theta0 + profile.theta(curve.s))
        expected = pose.theta0 + profile.theta(profile.arc_length)
        for scheme in ("gauss", "simpson"):
            end = endpoint(profile, pose, scheme=scheme)
            assert type(end.theta) is float and end.theta == expected

    def test_theta_is_evaluated_once_per_node_set(self, monkeypatch):
        calls = []
        theta = GcsProfile.theta

        def counting(self, s):
            calls.append(np.size(s))
            return theta(self, s)

        monkeypatch.setattr(GcsProfile, "theta", counting)
        profile = GcsProfile(0.5, 1.5, 2.0, 1.0)
        synthesize(profile, config=QuadratureConfig(samples_per_curve=100))
        assert calls == [100, 32 * 99]  # the grid once, then one Gauss pass of 2 panels a gap
        for scheme, passes in (("gauss", [2, 64]), ("simpson", [2, 255, 256])):
            calls.clear()
            endpoint(profile, scheme=scheme)
            assert calls == passes  # the ends once, then the passes; no float call at S

    @pytest.mark.parametrize("r", [100.0, -0.99])
    def test_endpoint_makes_one_kernel_call(self, monkeypatch, r):
        # The kernel splits abs_tol across the graded gaps, so endpoint passes
        # it whole in one call for either scheme, and theta(edges) covers
        # every edge.
        profile = GcsProfile(0.0, 2.0, 1.0, r)
        graded = list(synthesis._graded_edges(profile))
        assert len(graded) > 2
        kernel, calls = [], []
        tangent_integrals, theta = synthesis.tangent_integrals, GcsProfile.theta

        def counting_kernel(angle, edges, abs_tol, scheme):
            kernel.append((list(edges), abs_tol))
            return tangent_integrals(angle, edges, abs_tol, scheme)

        def counting(self, s):
            calls.append(np.size(s))
            return theta(self, s)

        monkeypatch.setattr(synthesis, "tangent_integrals", counting_kernel)
        monkeypatch.setattr(GcsProfile, "theta", counting)
        for scheme in ("simpson", "gauss"):
            kernel.clear()
            calls.clear()
            endpoint(profile, scheme=scheme)
            assert kernel == [(graded, QuadratureConfig().abs_tol)]
            assert calls[0] == len(graded)

    def test_synthesize_passes_abs_tol_whole(self, monkeypatch):
        budgets = []
        tangent_integrals = synthesis.tangent_integrals

        def counting_kernel(angle, edges, abs_tol, scheme):
            budgets.append(abs_tol)
            return tangent_integrals(angle, edges, abs_tol, scheme)

        monkeypatch.setattr(synthesis, "tangent_integrals", counting_kernel)
        synthesize(GcsProfile(0.5, 1.5, 2.0, 1.0), config=QuadratureConfig(abs_tol=3e-11))
        assert budgets == [3e-11]

    def test_graded_endpoint_has_one_work_ceiling(self, monkeypatch):
        # MAX_PANELS bounds the one call over all graded gaps: two gaps of
        # 64 + 128 panels in Simpson's first comparison, then 256 more for
        # the gap next to the pole, 640 in all, where each gap alone takes
        # at most 448.
        profile = GcsProfile(0.0, 2.0, 1.0, 100.0)
        assert len(synthesis._graded_edges(profile)) == 3
        monkeypatch.setattr(quadrature, "MAX_PANELS", 640)
        endpoint(profile, scheme="simpson")
        monkeypatch.setattr(quadrature, "MAX_PANELS", 639)
        with pytest.raises(QuadratureError, match="needs 640 panels, above the ceiling of 639"):
            endpoint(profile, scheme="simpson")

    def test_chords_never_exceed_arc_gaps(self):
        for p in (GcsProfile(0.0, 2.0, math.pi, 100.0), ConstantProfile(0.0, 1.0)):
            curve = synthesize(p)
            chords = np.hypot(np.diff(curve.x), np.diff(curve.y))
            assert np.all(chords <= np.diff(curve.s) + 1e-12)

    @pytest.mark.parametrize("r", [100.0, 0.0, -0.99])
    def test_polyline_length_approaches_arc_length(self, r):
        p = GcsProfile(0.0, 2.0, math.pi, r)
        curve = synthesize(p, config=QuadratureConfig(samples_per_curve=1000))
        length = float(np.sum(np.hypot(np.diff(curve.x), np.diff(curve.y))))
        assert length <= math.pi
        assert abs(length - math.pi) <= 1e-4 * math.pi

    def test_prefix_additivity(self):
        p = GcsProfile(0.1, 2.0, math.pi, 2.0)
        config = QuadratureConfig()
        curve = synthesize(p, config=config)
        end = endpoint(p, config=config)
        assert abs(curve.x[-1] - end.x) <= 2.0 * config.abs_tol
        assert abs(curve.y[-1] - end.y) <= 2.0 * config.abs_tol

    def test_rigid_motion_equivariance(self):
        config = QuadratureConfig(abs_tol=1e-13, samples_per_curve=64)
        p = GcsProfile(0.3, 1.7, 2.0, 1.5)
        base = synthesize(p, Pose(), config)
        pose = Pose(0.7, -1.2, 0.9)
        moved = synthesize(p, pose, config)
        ct, st_ = math.cos(pose.theta0), math.sin(pose.theta0)
        tx = pose.x0 + base.x * ct - base.y * st_
        ty = pose.y0 + base.x * st_ + base.y * ct
        assert float(np.max(np.hypot(moved.x - tx, moved.y - ty))) <= 1e-12

    def test_discrete_curvature_recovery(self):
        config = QuadratureConfig(samples_per_curve=2000)
        for p in fig_sweep_profiles():
            curve = synthesize(p, config=config)
            recovered = menger_curvature(curve.x, curve.y)
            assert float(np.max(np.abs(recovered - curve.kappa[1:-1]))) <= 1e-3

    def test_budget_exhaustion_raises(self, monkeypatch):
        # A theta with a jump at s = 0.2 keeps the first sample gap failing;
        # a ceiling of 2**14 panels is reached in milliseconds.
        class Jump(ConstantProfile):
            def theta(self, s):
                return super().theta(s) + np.where(np.asarray(s) < 0.2, 0.0, 1.0)

        monkeypatch.setattr(quadrature, "MAX_PANELS", 2**14)
        with pytest.raises(QuadratureError) as exc_info:
            synthesize(Jump(1.0, 1.0), config=QuadratureConfig(samples_per_curve=3))
        message = str(exc_info.value)
        assert "above the ceiling of 16384 panels per call" in message
        assert "worst sub-interval [0, 0.5] with error estimate" in message

    def test_work_ceiling_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="panels, above the ceiling"):
            synthesize(ConstantProfile(1e9, 1.0))
        assert time.perf_counter() - start < 1.0

    def test_phase_swing_of_1e5_rad_runs(self):
        c = 1e5
        curve = synthesize(ConstantProfile(c, 1.0))
        assert float(np.max(np.abs(curve.x - np.sin(c * curve.s) / c))) <= 1e-10
        assert float(np.max(np.abs(curve.y - (1.0 - np.cos(c * curve.s)) / c))) <= 1e-10
        for scheme in ("simpson", "gauss"):
            end = endpoint(ConstantProfile(c, 1.0), scheme=scheme)
            assert end.x == pytest.approx(math.sin(c) / c, abs=1e-10)
            assert end.y == pytest.approx((1.0 - math.cos(c)) / c, abs=1e-10)


class TestInvariants:
    """Exact maps within the GCS family, checked on 17 samples at a tight abs_tol.

    Each side is within abs_tol of its exact curve; the rest of each bound is
    float rounding, of the mapped coefficients and of theta, which moves a
    curve of length S turning by up to `turn` rad by a few S * eps * (1 + turn).
    """

    CONFIG = QuadratureConfig(abs_tol=1e-13, samples_per_curve=17)

    @staticmethod
    def rounding(curve):
        return 32.0 * curve.total_length * EPS * (1.0 + np.max(np.abs(curve.theta)))

    @given(kappas, kappas, arc_lengths, shape_factors, st.floats(min_value=0.25, max_value=4.0))
    def test_scaling(self, kappa0, kappa1, s_total, r, scale):
        # (kappa0/l, kappa1/l, l*S, r) is the curve scaled by l.
        curve = synthesize(GcsProfile(kappa0, kappa1, s_total, r), Pose(), self.CONFIG)
        scaled = synthesize(
            GcsProfile(kappa0 / scale, kappa1 / scale, scale * s_total, r), Pose(), self.CONFIG
        )
        bound = (1.0 + scale) * self.CONFIG.abs_tol + self.rounding(scaled)
        assert np.max(np.hypot(scaled.x - scale * curve.x, scaled.y - scale * curve.y)) <= bound

    @given(kappas, kappas, arc_lengths, shape_factors)
    def test_mirror(self, kappa0, kappa1, s_total, r):
        # (-kappa0, -kappa1, S, r) is the curve reflected in the x axis.
        curve = synthesize(GcsProfile(kappa0, kappa1, s_total, r), Pose(), self.CONFIG)
        mirrored = synthesize(GcsProfile(-kappa0, -kappa1, s_total, r), Pose(), self.CONFIG)
        bound = 2.0 * self.CONFIG.abs_tol + self.rounding(curve)
        assert np.max(np.hypot(mirrored.x - curve.x, mirrored.y + curve.y)) <= bound

    @given(kappas, kappas, arc_lengths, shape_factors)
    @example(-10.0, 10.0, 20.0, -0.99)
    def test_reversal(self, kappa0, kappa1, s_total, r):
        # Walked backwards, a curve's signed curvature changes sign: from the
        # end pose turned by pi, (-kappa1, -kappa0, S, -r/(1+r)) retraces it.
        curve = synthesize(GcsProfile(kappa0, kappa1, s_total, r), Pose(), self.CONFIG)
        start = Pose(curve.x[-1], curve.y[-1], curve.theta[-1] + math.pi)
        back = synthesize(GcsProfile(-kappa1, -kappa0, s_total, -r / (1.0 + r)), start, self.CONFIG)
        bound = 2.0 * self.CONFIG.abs_tol + self.rounding(curve)
        assert np.max(np.hypot(back.x - curve.x[::-1], back.y - curve.y[::-1])) <= bound


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(samples_per_curve=1)
        for bad in (2.5, True, "8"):
            with pytest.raises(DomainError):
                QuadratureConfig(samples_per_curve=bad)
        for bad in (math.inf, math.nan, True):
            with pytest.raises(DomainError):
                QuadratureConfig(abs_tol=bad)
        assert QuadratureConfig(abs_tol=np.float32(1e-8)).abs_tol == float(np.float32(1e-8))

    def test_config_fields_are_keyword_only(self):
        # A positional (abs_tol, max_subdivisions) call from before that field
        # was removed would otherwise mean 40 samples per curve.
        assert [f.name for f in dataclasses.fields(QuadratureConfig)] == [
            "abs_tol",
            "samples_per_curve",
        ]
        for args in ((1e-10, 40), (1e-10,)):
            with pytest.raises(TypeError):
                QuadratureConfig(*args)

    def test_tolerance_below_float_floor_rejected(self):
        # S*eps = 2.2e-10 for S = 1e6: no arc-length integral is that exact.
        wide = ConstantProfile(0.0, 1e6)
        tight = QuadratureConfig(abs_tol=1e-10, samples_per_curve=8)
        with pytest.raises(DomainError, match="float floor"):
            synthesize(wide, config=tight)
        for scheme in ("simpson", "gauss"):
            with pytest.raises(DomainError, match="float floor"):
                endpoint(wide, config=tight, scheme=scheme)
        at_floor = QuadratureConfig(abs_tol=1e6 * sys.float_info.epsilon, samples_per_curve=8)
        assert synthesize(wide, config=at_floor).x[-1] == pytest.approx(1e6)
        assert endpoint(wide, config=at_floor).x == pytest.approx(1e6)

    def test_pose_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Pose(math.nan, 0.0, 0.0)
        for bad in ((True,), (0.0, False), (0.0, 0.0, True)):
            with pytest.raises(DomainError):
                Pose(*bad)
        assert Pose(np.int64(1)).x0 == 1.0

    def test_curve_rejects_decreasing_arc_length(self):
        with pytest.raises(DomainError):
            PlanarCurve([0.0, 1.0, 0.5], [0.0] * 3, [0.0] * 3, [0.0] * 3, [0.0] * 3)

    def test_curve_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            PlanarCurve([0.0, 1.0], [0.0] * 3, [0.0] * 2, [0.0] * 2, [0.0] * 2)

    def test_curve_rejects_non_finite(self):
        with pytest.raises(DomainError):
            PlanarCurve([0.0, 1.0], [0.0, math.inf], [0.0] * 2, [0.0] * 2, [0.0] * 2)
        for bad in (["a", "b"], ["1", "2"], [True, False], [[0.0], [1.0, 2.0]], None):
            for column in range(4):
                columns = [[0.0, 0.0] for _ in range(4)]
                columns[column] = bad
                with pytest.raises(DomainError, match="must hold only numbers"):
                    PlanarCurve([0.0, 1.0], *columns)
        curve = PlanarCurve([0, 1], np.array([0, 1], dtype=np.int64), [0, 0], [0, 0], [0, 0])
        assert curve.x.dtype == np.float64


class TestCurvatureSamples:
    """lddc_histogram and gradient_from_samples take a PlanarCurve or an (s, kappa) pair."""

    ANALYSES = (lambda samples: lddc_histogram(samples, 8), gradient_from_samples)

    @staticmethod
    def bits(analysis, samples):
        """The result's floats as bytes, or the rejection's type and message."""
        try:
            result = analysis(samples)
        except InputError as exc:
            return type(exc), str(exc)
        if isinstance(result, LddcHistogram):
            floats = (result.bin_edges, result.lengths, [result.total_length, result.excluded_length])
        else:
            trace, line = result
            floats = (trace.ravel(), [line.slope_a, line.intercept_b, *line.domain, line.residual])
        return np.concatenate(floats).tobytes()

    @settings(max_examples=50)
    @given(profile=gcs_profiles(), n=st.integers(min_value=7, max_value=64))
    def test_pair_and_curve_agree_bit_for_bit(self, profile, n):
        curve = synthesize(profile, config=QuadratureConfig(samples_per_curve=n))
        grid = np.linspace(0.0, profile.arc_length, n)
        kappa = profile.kappa(grid)
        for analysis in self.ANALYSES:
            expected = self.bits(analysis, curve)
            for pair in ((curve.s, curve.kappa), (grid, kappa), (grid.tolist(), kappa.tolist())):
                assert self.bits(analysis, pair) == expected

    BAD = {
        "repeated s": ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        "decreasing s": ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]),
        "non-finite s": ([0.0, 1.0, math.inf], [1.0, 2.0, 3.0]),
        "nan kappa": ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0]),
        "infinite kappa": ([0.0, 1.0, 2.0], [1.0, 2.0, -math.inf]),
        "short kappa": ([0.0, 1.0, 2.0], [1.0, 2.0]),
        "long kappa": ([0.0, 1.0], [1.0, 2.0, 3.0]),
        "one sample": ([0.0], [1.0]),
        "text kappa": ([0.0, 1.0], ["1", "2"]),
    }

    @pytest.mark.parametrize("s, kappa", BAD.values(), ids=list(BAD))
    def test_pair_rejected_like_a_curve(self, s, kappa):
        zeros = [0.0] * len(s)
        with pytest.raises(DomainError) as expected:
            PlanarCurve(s, zeros, zeros, zeros, kappa)
        for analysis in self.ANALYSES:
            with pytest.raises(DomainError) as rejected:
                analysis((s, kappa))
            assert str(rejected.value) == str(expected.value)

    def test_other_inputs_rejected(self):
        s = [0.0, 1.0, 2.0]
        for samples in ((s,), (s, s, s), 5.0, None):
            for analysis in self.ANALYSES:
                with pytest.raises(DomainError, match="a PlanarCurve or an \\(s, kappa\\) pair"):
                    analysis(samples)

    def test_a_curve_is_not_checked_again(self, monkeypatch):
        curve = synthesize(GcsProfile(0.5, 2.0, math.pi, 1.0))
        expected = [self.bits(analysis, curve) for analysis in self.ANALYSES]
        monkeypatch.setattr(synthesis, "_sample_columns", None)  # a call would raise TypeError
        assert [self.bits(analysis, curve) for analysis in self.ANALYSES] == expected


class TestSerialization:
    def test_polyline_svg_takes_arrays_or_tuples(self):
        curve = synthesize(GcsProfile(0.1, 2.0, math.pi, 2.0), Pose(0.5, -0.25, 0.1))
        xy = np.column_stack((curve.x, curve.y))
        as_tuples = list(zip(curve.x.tolist(), curve.y.tolist()))
        labels = ["a<b", "c&d"]
        expect = polyline_svg([xy, xy[::-1]], labels=labels, title="t>u")
        assert polyline_svg([as_tuples, as_tuples[::-1]], labels=labels, title="t>u") == expect
        assert "<title>t&gt;u</title>" in expect and "a&lt;b" in expect and "c&amp;d" in expect
        with pytest.raises(DomainError):
            polyline_svg([[], np.empty((0, 2))])
        with pytest.raises(DomainError):
            polyline_svg([[(0.0, 1.0), (math.nan, 2.0)]])
        for ragged in ([(0.0, 1.0), (2.0,)], [(0.0, 1.0, 2.0)], [0.0, 1.0], np.zeros((3, 3))):
            with pytest.raises(DomainError, match="every row must hold 2 values"):
                polyline_svg([xy, ragged])

    @given(st.text(min_size=1))
    @example("a&b<c>d\"e'f &amp; ]]>")
    def test_svg_text_is_escaped_as_html_escape_does(self, text):
        escaped = html.escape(text, quote=False)
        svg = polyline_svg([[(0.0, 0.0), (1.0, 1.0)]], labels=[text], title=text)
        assert svg.count(f"<title>{escaped}</title>") == 2  # the title and the line's label
        assert f">{escaped}</text>" in svg  # the label's legend entry
        chart = bar_chart_svg([0.0, 1.0], [1.0], caption=text)
        assert f">{escaped}</text>" in chart

    def test_row_array_matches_asarray(self):
        points, _ = lcg_gcs_points(GcsProfile(0.1, 2.0, math.pi, 2.0), np.linspace(0.0, math.pi, 9))
        expect = np.asarray(points)
        for rows in (points, [tuple(q) for q in points], [list(q) for q in points], expect):
            got = row_array(rows, 3)
            assert got.dtype == np.float64 and np.array_equal(got, expect)
        assert row_array([], 2).shape == (0, 2)
        with pytest.raises(DomainError):
            row_array(points + [(1.0, 2.0)], 3)

    def test_table_writer_takes_any_row_array(self):
        rows = [(0.5, -1.0), (1.0, 1.0 / 3.0)]
        written = []
        for table in (rows, np.array(rows), [], np.empty((0, 2))):
            buffer = io.StringIO()
            write_tables([(buffer, "a,b", table)])
            written.append(buffer.getvalue())
        assert written[0] == written[1] == "a,b\n0.5,-1\n1,0.33333333333333331\n"
        assert written[2] == written[3] == "a,b\n"

