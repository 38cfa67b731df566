"""The batched tangent-integral kernel under its Simpson and Gauss-Legendre schemes."""

import math
import re
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from gcspiral import GcsProfile, quadrature
from gcspiral.errors import DomainError, QuadratureError
from gcspiral.quadrature import (
    _GAUSS_NODES,
    _GAUSS_TAIL,
    _GAUSS_WEIGHTS,
    _LEGENDRE_16_NODES,
    _RICHARDSON,
    MAX_PANELS,
    _blocks,
    _gauss_sums,
    _simpson_sums,
    tangent_integrals,
)

# Independently computed with 40-digit arithmetic.
COS_T2_01 = 0.90452423790027208147
SIN_T2_01 = 0.31026830172338110181

SCHEMES = ("simpson", "gauss")
RULES = pytest.mark.parametrize("scheme", SCHEMES)


def integrate(theta, a, b, abs_tol, scheme):
    (dx,), (dy,), _ = tangent_integrals(theta, [a, b], abs_tol, scheme)
    return float(dx), float(dy)


def chirp(t):
    return 4.0 * t * t - t


def jumps(t):
    """An angle with jumps of 0.1 rad at t = 0.3 and 1 rad at t = 4: no panel count meets 1e-14."""
    return 0.1 * (t > 0.3) + 1.0 * (t > 4.0)


@pytest.fixture
def low_ceiling(monkeypatch):
    """A work ceiling of 2**14 panels, so a gap that never converges reaches it in milliseconds."""
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2**14)


class TestAdaptiveSimpson:
    def test_smooth_integral(self):
        dx, dy = integrate(lambda t: t, 0.0, 2.0, 1e-12, "simpson")
        assert dx == pytest.approx(math.sin(2.0), abs=1e-12)
        assert dy == pytest.approx(1.0 - math.cos(2.0), abs=1e-12)

    def test_oscillatory_cosine_of_square(self):
        dx, dy = integrate(lambda t: t * t, 0.0, 1.0, 1e-13, "simpson")
        assert dx == pytest.approx(COS_T2_01, abs=1e-12)
        assert dy == pytest.approx(SIN_T2_01, abs=1e-12)

    def test_many_period_oscillation_with_phase_hint(self):
        # theta spans 200 rad in one interval; the panel count is sized from it.
        dx, dy = integrate(lambda t: 10.0 * t, 0.0, 20.0, 1e-11, "simpson")
        assert dx == pytest.approx(math.sin(200.0) / 10.0, abs=1e-10)
        assert dy == pytest.approx((1.0 - math.cos(200.0)) / 10.0, abs=1e-10)

    def test_agrees_with_library_quadrature(self):
        ox, _ = quad(lambda t: math.cos(chirp(t)), 0.0, 2.0, epsabs=1e-13, limit=200)
        oy, _ = quad(lambda t: math.sin(chirp(t)), 0.0, 2.0, epsabs=1e-13, limit=200)
        for scheme in SCHEMES:
            dx, dy = integrate(chirp, 0.0, 2.0, 1e-12, scheme)
            assert dx == pytest.approx(ox, abs=1e-11)
            assert dy == pytest.approx(oy, abs=1e-11)

    def test_exhaustion_reports_worst_interval(self, low_ceiling):
        # Both gaps keep failing; the ceiling names the one further from its tolerance.
        with pytest.raises(QuadratureError) as exc_info:
            tangent_integrals(jumps, [0.0, 1.0, 10.0], 1e-14, "simpson")
        message = str(exc_info.value)
        assert "above the ceiling of 16384 panels per call" in message
        assert re.search(r"worst sub-interval \[1, 10\] with error estimate \d", message)

    def test_invalid_bounds_rejected(self):
        for edges in ([1.0, 0.0], [0.0, math.inf], [0.0, math.nan], [0.0], [[0.0, 1.0]]):
            with pytest.raises(DomainError):
                tangent_integrals(lambda t: t, edges, 1e-10, "gauss")

    @RULES
    def test_edges_that_are_not_a_grid_rejected_before_theta(self, scheme):
        # The edges are read as every grid is (errors.increasing): numbers only, strictly increasing.
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return t

        for edges, message in (
            (["0", "1"], "must hold only numbers"),
            ([False, True], "must hold only numbers"),
            ([0.0, 0.0, 1.0], "must be strictly increasing"),
            ([0.0, 1.0, 1.0], "must be strictly increasing"),
        ):
            with pytest.raises(DomainError, match=f"^integration edges {message}$"):
                tangent_integrals(theta, edges, 1e-10, scheme)
        assert calls == []

    def test_invalid_tolerance_rejected(self):
        for tol in (0.0, -1e-10, math.inf, math.nan, True):
            with pytest.raises(DomainError):
                tangent_integrals(lambda t: t, [0.0, 1.0], tol, "gauss")

    @RULES
    def test_float_floor_rejected_before_theta(self, scheme):
        # abs_tol is the budget over the whole span: below span*eps no gap's
        # share could stay above its own width*eps.
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return 0.0 * t

        edges = [0.0, 4e5, 1e6]
        with pytest.raises(DomainError, match=r"below the float floor span\*eps = 2\.22e-10$"):
            tangent_integrals(theta, edges, 1e-10, scheme)
        assert calls == []
        dx, dy, _ = tangent_integrals(theta, edges, 1e6 * sys.float_info.epsilon, scheme)
        assert dx == pytest.approx([4e5, 6e5]) and np.all(dy == 0.0)

    def test_unknown_scheme_rejected_before_theta(self):
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return t

        for scheme in ("trapezoid", "Gauss", ["gauss"], None):
            with pytest.raises(DomainError, match="unknown quadrature scheme"):
                tangent_integrals(theta, [0.0, 1.0], 1e-10, scheme=scheme)
        assert calls == []

    @RULES
    def test_non_finite_theta_rejected_before_any_pass(self, scheme):
        for bad in (math.nan, math.inf, -math.inf):
            calls = []

            def theta(t):
                calls.append(np.size(t))
                return np.where(t >= 0.5, bad, t)

            with pytest.raises(DomainError, match=r"theta is not finite at t = 0\.5$"):
                tangent_integrals(theta, [0.0, 0.25, 0.5, 1.0], 1e-10, scheme=scheme)
            assert calls == [4]  # only the phase of the grid itself

    @RULES
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_inside_a_gap_fails_at_the_first_check(self, scheme, bad):
        # Finite at the edges, so only a pass sees it: Gauss's first pass
        # (2 + 32 points), Simpson's first comparison (2 + 255).
        # The passes do not run under np.errstate, which would slow every
        # ufunc call in them, so an infinite theta warns in cos and sin first
        # (an exception under -W error::RuntimeWarning); a NaN does not warn.
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return np.where((t > 0.3) & (t < 0.7), bad, t)

        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=r"not finite inside the gap \[0, 1\]$"):
                tangent_integrals(theta, [0.0, 1.0], 1e-10, scheme=scheme)
        messages = {str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)}
        invalid = {f"invalid value encountered in {f}" for f in ("cos", "sin")}
        assert messages == (set() if math.isnan(bad) else invalid)
        assert calls == ([2, 255] if scheme == "simpson" else [2, 32])

    @RULES
    def test_non_finite_theta_names_the_first_gap_it_fills(self, scheme):
        def theta(t):
            return np.where((t > 0.3) & (t < 0.4) | (t > 0.6) & (t < 0.7), math.nan, t)

        with pytest.raises(DomainError, match=r"inside the gap \[0.25, 0.5\]$"):
            tangent_integrals(theta, [0.0, 0.25, 0.5, 1.0], 1e-10, scheme=scheme)

    @RULES
    def test_non_finite_theta_first_met_after_a_doubling(self, scheme):
        # NaN at one node that only the second pass evaluates: a node of 16
        # Gauss panels, or a midpoint of 256 Simpson panels (an odd multiple
        # of 1/512).
        node = (8.0 + _GAUSS_NODES[0]) / 16.0 if scheme == "gauss" else 257.0 / 512.0
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return np.where(np.abs(t - node) < 1e-9, math.nan, 2.0 * np.log(t + 0.05))

        with pytest.raises(DomainError, match=r"inside the gap \[0, 1\]$"):
            tangent_integrals(theta, [0.0, 1.0], 1e-10, scheme=scheme)
        assert calls == ([2, 255, 256] if scheme == "simpson" else [2, 128, 256])


class TestTangentIntegral:
    def test_matches_scalar_routine(self):
        # Gaps integrated in one batched call equal one call per gap, and
        # their sum the whole interval, each within its tolerance.
        theta = lambda t: 2.0 * t * t / math.pi
        edges = np.linspace(0.0, math.pi, 9)
        for scheme in SCHEMES:
            dx, dy, _ = tangent_integrals(theta, edges, 1e-12, scheme=scheme)
            for i in range(len(edges) - 1):
                gx, gy = integrate(theta, edges[i], edges[i + 1], 1e-12, scheme)
                assert dx[i] == pytest.approx(gx, abs=2e-12)
                assert dy[i] == pytest.approx(gy, abs=2e-12)
            wx, wy = integrate(theta, 0.0, math.pi, 1e-12, scheme)
            assert float(np.sum(dx)) == pytest.approx(wx, abs=1e-11)
            assert float(np.sum(dy)) == pytest.approx(wy, abs=1e-11)

    @RULES
    def test_returns_the_edge_phase(self, scheme):
        # The theta(edges) call that sizes the first pass is returned, so
        # callers need not evaluate theta at the edges again.
        theta = lambda t: 2.0 * t * t / math.pi
        edges = np.linspace(0.0, math.pi, 9)
        *_, phase = tangent_integrals(theta, edges, 1e-12, scheme=scheme)
        assert np.array_equal(phase, theta(edges))

    def test_unit_circle_multiple_turns(self):
        # theta spans 20*pi; the phase bound must set enough panels.
        for scheme in SCHEMES:
            dx, dy = integrate(lambda t: t, 0.0, 20.0 * math.pi, 1e-10, scheme)
            assert dx == pytest.approx(0.0, abs=1e-9)
            assert dy == pytest.approx(0.0, abs=1e-9)

    def test_straight_segment_is_exact(self):
        dx, dy = integrate(lambda t: 0.0 * t, 0.0, 1.0, 1e-10, "simpson")
        assert dx == 1.0
        assert dy == 0.0

    @RULES
    def test_work_ceiling_fails_before_evaluating(self, scheme):
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return 1e9 * t

        start = time.perf_counter()
        ceiling = f"panels, above the ceiling of {MAX_PANELS} panels per call; "
        with pytest.raises(QuadratureError, match=ceiling + "the tangent angle turns too far$"):
            tangent_integrals(theta, np.linspace(0.0, 1.0, 256), 1e-10, scheme=scheme)
        assert time.perf_counter() - start < 1.0
        assert calls == [256]  # only the phase of the grid itself

    @RULES
    @pytest.mark.parametrize("swing", [1e300, 1.5e308])
    def test_huge_phase_swing_fails_without_overflow(self, scheme, swing):
        # Panel counts near 2**1024 would overflow in exp2, in the doubling
        # and in the work sum; each gap's count is clipped to the ceiling.
        def theta(t):
            return np.where(t == 0.5, swing, 0.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError, match=r"integration needs \d{8} panels, above"):
                tangent_integrals(theta, [0.0, 0.5, 1.0], 1e-10, scheme=scheme)

    @RULES
    def test_work_ceiling_after_a_pass_names_the_worst_gap(self, scheme):
        # The angle barely turns, so the first pass fits; the jump keeps the
        # gap failing until the next doubling would pass the ceiling.
        def theta(t):
            return np.where(t < 1.0 / 3.0, 0.0, 1.0)

        with pytest.raises(QuadratureError) as exc_info:
            tangent_integrals(theta, [0.0, 1.0], 1e-10, scheme)
        message = str(exc_info.value)
        assert f"panels, above the ceiling of {MAX_PANELS} panels per call; " in message
        assert re.search(r"; worst sub-interval \[0, 1\] with error estimate \d\S*$", message)
        assert "turns too far" not in message

    @RULES
    def test_gap_just_above_a_power_of_two_is_sized_up(self, scheme):
        # A need just above 2**k takes 2**(k + 1) panels, each swinging at
        # most pi/2, from its first pass; exp2(ceil(log2(need))) rounds such
        # a need down to 2**k.
        k = 4 if scheme == "gauss" else 6  # Simpson starts at 64 panels
        swing = 2.0**k * quadrature._MAX_PHASE_SPAN
        while not swing / quadrature._MAX_PHASE_SPAN > 2.0**k:
            swing = np.nextafter(swing, math.inf)
        assert np.exp2(np.ceil(np.log2(swing / quadrature._MAX_PHASE_SPAN))) == 2.0**k
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return swing * t

        integrate(theta, 0.0, 1.0, 1e-6, scheme)
        p = 2**k
        assert calls == ([2, 8 * p - 1] if scheme == "simpson" else [2, 64 * p])

    @RULES
    def test_phase_swing_of_1e5_rad_runs(self, scheme):
        dx, dy = integrate(lambda t: 1e5 * t, 0.0, 1.0, 1e-10, scheme)
        assert dx == pytest.approx(math.sin(1e5) / 1e5, abs=1e-10)
        assert dy == pytest.approx((1.0 - math.cos(1e5)) / 1e5, abs=1e-10)


class TestGaussLegendre:
    def test_literals_are_leggauss(self):
        # The written-out rule is numpy's within 2 ulp on any host.
        x, w = np.polynomial.legendre.leggauss(16)
        for literal, reference in ((_LEGENDRE_16_NODES, x), (_GAUSS_WEIGHTS, w)):
            assert np.all(np.abs(literal - reference) <= 2.0 * np.spacing(np.abs(reference)))

    def test_tail_literal_is_legvander(self):
        # a_k = (2k + 1)/2 * sum_j w_j P_k(x_j) f_j for k = 14, 15, bit for bit.
        order = len(_GAUSS_NODES) - 1
        legendre = np.polynomial.legendre.legvander(2.0 * _GAUSS_NODES - 1.0, order)[:, -2:].T
        degree = np.arange(order - 1, order + 1)[:, None]
        tail = (2.0 * degree + 1.0) * legendre * (_GAUSS_WEIGHTS / _GAUSS_WEIGHTS.sum())
        assert _GAUSS_TAIL.flags.c_contiguous
        assert np.array_equal(_GAUSS_TAIL, tail)

    def test_polynomial_exactness(self):
        # Order 16 on [0, 1] integrates t**k exactly for k < 32.
        simpson = (np.array([0.0, 0.5, 1.0]), np.array([1.0, 4.0, 1.0]))
        for (nodes, weights), degrees in (
            ((_GAUSS_NODES, _GAUSS_WEIGHTS), range(32)),
            (simpson, (0, 1, 2, 3)),
        ):
            for k in degrees:
                mean = float(weights @ nodes**k / weights.sum())
                assert mean == pytest.approx(1.0 / (k + 1), abs=1e-15)

    def test_composite_panels(self):
        dx, dy = integrate(lambda t: t, 0.0, 2.0, 1e-13, "gauss")
        assert dx == pytest.approx(math.sin(2.0), abs=1e-13)
        assert dy == pytest.approx(1.0 - math.cos(2.0), abs=1e-13)

    def test_adaptive_doubling(self):
        dx, dy = integrate(lambda t: t * t, 0.0, 1.0, 1e-12, "gauss")
        assert dx == pytest.approx(COS_T2_01, abs=1e-11)
        assert dy == pytest.approx(SIN_T2_01, abs=1e-11)

    def test_non_convergence_raises(self, low_ceiling):
        with pytest.raises(QuadratureError) as exc_info:
            tangent_integrals(jumps, [0.0, 1.0, 10.0], 1e-14, "gauss")
        message = str(exc_info.value)
        assert "above the ceiling of 16384 panels per call" in message
        assert re.search(r"worst sub-interval \[1, 10\] with error estimate \d", message)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            integrate(math.cos, 0.0, 1.0, -1.0, "gauss")


class TestSchemeIndependence:
    def test_two_families_agree_on_oscillatory_integrand(self):
        a = integrate(chirp, 0.0, 2.0, 1e-11, "simpson")
        b = integrate(chirp, 0.0, 2.0, 1e-11, "gauss")
        assert a == pytest.approx(b, abs=1e-9)


class TestNestedSimpson:
    @staticmethod
    def evaluated_points(theta, edges, abs_tol):
        seen = []

        def counting(t):
            seen.append(np.array(t, dtype=float).ravel())
            return theta(t)

        tangent_integrals(counting, edges, abs_tol, scheme="simpson")
        return np.concatenate(seen)

    def test_evaluates_each_node_once_on_a_stiff_gap(self):
        profile = GcsProfile(-40.0, 90.0, 2.0, 1.0)
        points = self.evaluated_points(profile.theta, [0.0, 2.0], 1e-10)
        # 1024 panels at the last pass: their 1025 ends and 1024 midpoints.
        assert len(points) == len(np.unique(points)) == 2049

    def test_first_comparison_returns_the_richardson_value(self):
        # A gentle gap accepts on 64 against 128 panels and returns
        # fine + (fine - coarse) / 15, bit for bit, from one theta call for
        # all 255 interior nodes of 128 panels.
        theta = lambda t: 0.3 * t * t
        calls = []

        def counting(t):
            calls.append(np.size(t))
            return theta(t)

        (dx,), (dy,), _ = tangent_integrals(counting, [0.0, 1.0], 1e-10, scheme="simpson")
        assert calls == [2, 255]  # the ends, then every interior node of 128 panels

        def sums(t):  # the (cos, sin) of theta summed in node order
            angle = theta(t)
            return np.array([[np.cumsum(np.cos(angle))[-1]], [np.cumsum(np.sin(angle))[-1]]])

        k = np.arange(128)
        tips = sums(np.array([0.0, 1.0]))
        inner, mids = sums((k[:63] + 1.0) / 64), sums((k[:64] + 0.5) / 64)
        coarse, inner = _simpson_sums(1.0 / 64, tips, inner, mids)
        fine, _ = _simpson_sums(1.0 / 128, tips, inner, sums((k + 0.5) / 128))
        expected = fine + _RICHARDSON * (fine - coarse)
        assert (dx, dy) == (expected[0, 0], expected[1, 0])

    @pytest.mark.parametrize("turn", [0.3, 150.0, 5000.0])
    def test_first_comparison_nodes_are_those_of_each_panel_count(self, turn):
        # The quarter nodes lo + (j/4) * h of p panels are, float for float,
        # the interior ends lo + i*h and midpoints lo + (i + 1/2)*h of p
        # panels and the midpoints lo + (i + 1/2) * (width/2p) of 2p panels,
        # for p = 64, 256 and 8192 (in blocks) on a gap whose ends are not dyadic.
        lo, hi = 0.3, 1.0 + 1.0 / 3.0
        seen = []

        def theta(t):
            seen.append(np.array(t, dtype=float))
            return turn * t * t

        tangent_integrals(theta, [lo, hi], 1.0, scheme="simpson")  # accepts at once
        nodes = np.concatenate(seen[1:])
        p = (len(nodes) + 1) // 4
        assert p == {0.3: 64, 150.0: 256, 5000.0: 8192}[turn]
        width = hi - lo
        i = np.arange(2 * p)
        assert np.array_equal(nodes[3::4], lo + (i[: p - 1] + 1.0) * (width / p))
        assert np.array_equal(nodes[1::4], lo + (i[:p] + 0.5) * (width / p))
        assert np.array_equal(nodes[::2], lo + (i + 0.5) * (width / (2 * p)))

    def test_evaluates_each_node_once_on_a_grid(self):
        points = self.evaluated_points(
            lambda t: 2.0 * t * t / math.pi, np.linspace(0.0, math.pi, 9), 1e-12
        )
        assert len(points) == len(np.unique(points))


class TestLegendreTail:
    """A Gauss-Legendre gap accepts on its first (2p-panel) pass when its tail estimate allows."""

    @staticmethod
    def reference(theta, lo, width, panels):
        """The same composite Gauss sum, each panel's mean summed exactly."""
        h = width / panels
        angle = theta(lo + h * (np.arange(panels)[:, None] + _GAUSS_NODES))
        mean = _GAUSS_WEIGHTS / _GAUSS_WEIGHTS.sum()
        return np.array([math.fsum(h * (f(angle) @ mean)) for f in (np.cos, np.sin)])

    @given(
        r=st.one_of(
            st.floats(min_value=-4.0, max_value=-0.3).map(lambda e: -1.0 + 10.0**e),
            st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0**e),
        ),
        turn0=st.floats(min_value=-300.0, max_value=300.0),
        turn1=st.floats(min_value=-300.0, max_value=300.0),
        straightness=st.floats(min_value=-9.0, max_value=0.0),
        s_total=st.floats(min_value=0.5, max_value=2.0),
        panels=st.integers(min_value=1, max_value=16),
        at_pole=st.booleans(),
        start=st.floats(min_value=0.0, max_value=0.99),
        width=st.floats(min_value=-4.0, max_value=0.0),
    )
    @example(-0.9998599540195696, 0.0, -0.0027, -0.0, 0.77, 2, True, 0.0, -0.5)
    def test_tail_bounds_the_error(
        self, r, turn0, turn1, straightness, s_total, panels, at_pole, start, width
    ):
        # r in (-0.9999, 1e3), |kappa|*S up to 300 and scaled down to nearly
        # straight; the gap's turn is at most pi/4 per panel, as the first
        # pass's panel count guarantees.
        scale = 10.0**straightness / s_total
        profile = GcsProfile(turn0 * scale, turn1 * scale, s_total, r)
        w = s_total * 10.0**width
        if at_pole:
            lo = 0.0 if r > 0.0 else s_total - w
        else:
            lo = start * s_total
            w = (s_total - lo) * 10.0**width
        while abs(profile.theta(lo + w) - profile.theta(lo)) > panels * math.pi / 4.0:
            w /= 2.0
        sums, tail = _gauss_sums(
            profile.theta, np.array([lo]), np.array([w]), np.array([panels]), True
        )
        reference = self.reference(profile.theta, lo, w, 64 * panels)
        error = float(np.max(np.abs(sums[:, 0] - reference)))
        if error > 1e-14:
            assert tail[0] >= error

    def test_gentle_grid_evaluates_one_pass(self):
        # N edges for the phase, then 2 panels of 16 nodes per gap, and no more.
        n = 2000
        profile = GcsProfile(0.5, 1.5, 2.0, 1.0)
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return profile.theta(t)

        tangent_integrals(theta, np.linspace(0.0, 2.0, n), 1e-10 / (n - 1), "gauss")
        assert sum(calls) == 32 * (n - 1) + n

    def test_missed_gap_doubles_from_its_fine_pass(self):
        calls = []

        def theta(t):
            calls.append(np.size(t))
            return 2.0 * np.log(t + 0.05)

        dx, dy = integrate(theta, 0.0, 1.0, 1e-10, "gauss")
        # 8 panels miss on their tail estimate; 16 panels pass against those 8.
        assert calls == [2, 8 * 16, 16 * 16]
        ox, _ = quad(lambda t: math.cos(theta(t)), 0.0, 1.0, epsabs=1e-14, limit=200)
        oy, _ = quad(lambda t: math.sin(theta(t)), 0.0, 1.0, epsabs=1e-14, limit=200)
        assert dx == pytest.approx(ox, abs=1e-10)
        assert dy == pytest.approx(oy, abs=1e-10)

    def test_blocks_walk_every_pair(self):
        for counts in ([3, 3, 3, 3], [3, 1, 4, 2], [0, 2, 0]):
            pairs = np.concatenate([np.stack(b, axis=1) for b in _blocks(np.array(counts), 5)])
            assert pairs.tolist() == [[g, k] for g, c in enumerate(counts) for k in range(c)]
