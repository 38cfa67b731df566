"""The batched tangent-integral kernel under its Simpson and Gauss-Legendre rules."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gcspiral import GcsProfile
from gcspiral.errors import DomainError, QuadratureError
from gcspiral.quadrature import GAUSS_LEGENDRE, MAX_PANELS, SIMPSON, tangent_integrals

# Independently computed with 40-digit arithmetic.
COS_T2_01 = 0.90452423790027208147
SIN_T2_01 = 0.31026830172338110181

RULES = pytest.mark.parametrize("rule", [SIMPSON, GAUSS_LEGENDRE], ids=["simpson", "gauss"])


def integrate(theta, a, b, abs_tol, rule, max_subdivisions=40):
    (dx,), (dy,) = tangent_integrals(theta, [a, b], abs_tol, max_subdivisions, rule)
    return float(dx), float(dy)


def chirp(t):
    return 4.0 * t * t - t


class TestAdaptiveSimpson:
    def test_smooth_integral(self):
        dx, dy = integrate(lambda t: t, 0.0, 2.0, 1e-12, SIMPSON)
        assert dx == pytest.approx(math.sin(2.0), abs=1e-12)
        assert dy == pytest.approx(1.0 - math.cos(2.0), abs=1e-12)

    def test_oscillatory_cosine_of_square(self):
        dx, dy = integrate(lambda t: t * t, 0.0, 1.0, 1e-13, SIMPSON)
        assert dx == pytest.approx(COS_T2_01, abs=1e-12)
        assert dy == pytest.approx(SIN_T2_01, abs=1e-12)

    def test_many_period_oscillation_with_phase_hint(self):
        # theta spans 200 rad in one interval; the panel count is sized from it.
        dx, dy = integrate(lambda t: 10.0 * t, 0.0, 20.0, 1e-11, SIMPSON)
        assert dx == pytest.approx(math.sin(200.0) / 10.0, abs=1e-10)
        assert dy == pytest.approx((1.0 - math.cos(200.0)) / 10.0, abs=1e-10)

    def test_empty_interval(self):
        for rule in (SIMPSON, GAUSS_LEGENDRE):
            assert integrate(lambda t: 3.0 * t, 1.0, 1.0, 1e-10, rule) == (0.0, 0.0)

    def test_agrees_with_library_quadrature(self):
        ox, _ = quad(lambda t: math.cos(chirp(t)), 0.0, 2.0, epsabs=1e-13, limit=200)
        oy, _ = quad(lambda t: math.sin(chirp(t)), 0.0, 2.0, epsabs=1e-13, limit=200)
        for rule in (SIMPSON, GAUSS_LEGENDRE):
            dx, dy = integrate(chirp, 0.0, 2.0, 1e-12, rule)
            assert dx == pytest.approx(ox, abs=1e-11)
            assert dy == pytest.approx(oy, abs=1e-11)

    def test_exhaustion_reports_worst_interval(self):
        for rule in (SIMPSON, GAUSS_LEGENDRE):
            with pytest.raises(QuadratureError) as exc_info:
                tangent_integrals(lambda t: 5.0 * t, [0.0, 1.0, 10.0], 1e-14, 1, rule)
            message = str(exc_info.value)
            assert "worst sub-interval [1, 10]" in message
            assert "after 1 subdivisions" in message

    def test_invalid_bounds_rejected(self):
        for edges in ([1.0, 0.0], [0.0, math.inf], [0.0, math.nan], [0.0], [[0.0, 1.0]]):
            with pytest.raises(DomainError):
                tangent_integrals(lambda t: t, edges, 1e-10)

    def test_invalid_tolerance_rejected(self):
        for tol in (0.0, -1e-10, math.inf, math.nan, True):
            with pytest.raises(DomainError):
                tangent_integrals(lambda t: t, [0.0, 1.0], tol)
        for count in (0, 2.5, True):
            with pytest.raises(DomainError):
                tangent_integrals(lambda t: t, [0.0, 1.0], 1e-10, count)


class TestTangentIntegral:
    def test_matches_scalar_routine(self):
        # Gaps integrated in one batched call equal one call per gap, and
        # their sum the whole interval, each within its tolerance.
        theta = lambda t: 2.0 * t * t / math.pi
        edges = np.linspace(0.0, math.pi, 9)
        for rule in (SIMPSON, GAUSS_LEGENDRE):
            dx, dy = tangent_integrals(theta, edges, 1e-12, rule=rule)
            for i in range(len(edges) - 1):
                gx, gy = integrate(theta, edges[i], edges[i + 1], 1e-12, rule)
                assert dx[i] == pytest.approx(gx, abs=2e-12)
                assert dy[i] == pytest.approx(gy, abs=2e-12)
            wx, wy = integrate(theta, 0.0, math.pi, 1e-12, rule)
            assert float(np.sum(dx)) == pytest.approx(wx, abs=1e-11)
            assert float(np.sum(dy)) == pytest.approx(wy, abs=1e-11)

    def test_unit_circle_multiple_turns(self):
        # theta spans 20*pi; the phase bound must set enough panels.
        for rule in (SIMPSON, GAUSS_LEGENDRE):
            dx, dy = integrate(lambda t: t, 0.0, 20.0 * math.pi, 1e-10, rule)
            assert dx == pytest.approx(0.0, abs=1e-9)
            assert dy == pytest.approx(0.0, abs=1e-9)

    def test_straight_segment_is_exact(self):
        dx, dy = integrate(lambda t: 0.0 * t, 0.0, 1.0, 1e-10, SIMPSON)
        assert dx == 1.0
        assert dy == 0.0

    def test_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda t: 25.0 * t, 0.0, 10.0, 1e-10, GAUSS_LEGENDRE, max_subdivisions=2)

    @RULES
    def test_work_ceiling_fails_before_evaluating(self, rule):
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return 1e9 * t

        start = time.perf_counter()
        with pytest.raises(QuadratureError, match=f"panels, above the ceiling of {MAX_PANELS}"):
            tangent_integrals(theta, np.linspace(0.0, 1.0, 256), 1e-10, rule=rule)
        assert time.perf_counter() - start < 1.0
        assert calls == [256]  # only the phase of the grid itself

    @RULES
    def test_phase_swing_of_1e5_rad_runs(self, rule):
        dx, dy = integrate(lambda t: 1e5 * t, 0.0, 1.0, 1e-10, rule)
        assert dx == pytest.approx(math.sin(1e5) / 1e5, abs=1e-10)
        assert dy == pytest.approx((1.0 - math.cos(1e5)) / 1e5, abs=1e-10)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # Order 16 on [0, 1] integrates t**k exactly for k < 32.
        for rule, degrees in ((GAUSS_LEGENDRE, (0, 5, 31)), (SIMPSON, (0, 1, 2, 3))):
            for k in degrees:
                mean = float(rule.weights @ rule.nodes**k / rule.weights.sum())
                assert mean == pytest.approx(1.0 / (k + 1), abs=1e-15)

    def test_composite_panels(self):
        dx, dy = integrate(lambda t: t, 0.0, 2.0, 1e-13, GAUSS_LEGENDRE)
        assert dx == pytest.approx(math.sin(2.0), abs=1e-13)
        assert dy == pytest.approx(1.0 - math.cos(2.0), abs=1e-13)

    def test_adaptive_doubling(self):
        dx, dy = integrate(lambda t: t * t, 0.0, 1.0, 1e-12, GAUSS_LEGENDRE)
        assert dx == pytest.approx(COS_T2_01, abs=1e-11)
        assert dy == pytest.approx(SIN_T2_01, abs=1e-11)

    def test_non_convergence_raises(self):
        with pytest.raises(QuadratureError) as exc_info:
            integrate(lambda t: 50.0 * t * t, 0.0, 10.0, 1e-14, GAUSS_LEGENDRE, max_subdivisions=2)
        assert "worst sub-interval [0, 10]" in str(exc_info.value)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            integrate(math.cos, 0.0, 1.0, -1.0, GAUSS_LEGENDRE)
        with pytest.raises(DomainError):
            integrate(math.cos, 0.0, 1.0, 1e-10, GAUSS_LEGENDRE, max_subdivisions=0)


class TestSchemeIndependence:
    def test_two_families_agree_on_oscillatory_integrand(self):
        a = integrate(chirp, 0.0, 2.0, 1e-11, SIMPSON)
        b = integrate(chirp, 0.0, 2.0, 1e-11, GAUSS_LEGENDRE)
        assert a == pytest.approx(b, abs=1e-9)


class TestNestedSimpson:
    @staticmethod
    def evaluated_points(theta, edges, abs_tol):
        seen = []

        def counting(t):
            seen.append(np.array(t, dtype=float).ravel())
            return theta(t)

        tangent_integrals(counting, edges, abs_tol, rule=SIMPSON)
        return np.concatenate(seen)

    def test_evaluates_each_node_once_on_a_stiff_gap(self):
        profile = GcsProfile(-40.0, 90.0, 2.0, 1.0)
        points = self.evaluated_points(profile.theta, [0.0, 2.0], 1e-10)
        # 4096 panels at the last pass: their 4097 ends and 4096 midpoints.
        assert len(points) == len(np.unique(points)) == 8193

    def test_evaluates_each_node_once_on_a_grid(self):
        points = self.evaluated_points(
            lambda t: 2.0 * t * t / math.pi, np.linspace(0.0, math.pi, 9), 1e-12
        )
        assert len(points) == len(np.unique(points))

    def test_nested_only_for_panel_ends_and_midpoint(self):
        assert SIMPSON.nested
        assert not GAUSS_LEGENDRE.nested
