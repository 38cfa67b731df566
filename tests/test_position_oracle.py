"""Closed-form GCS positions as the oracle for synthesis and both endpoint schemes.

With u = 1 + r*s/S, a GCS turns by theta(s) = a*(u - 1) - beta*log(u), where
a = S*n1/r**2 and beta = (n1*S - n0*r)/r**2. Substituting t = w*u with
w = -i*a turns the tangent integral into a generalized incomplete gamma
function (DLMF 8.2):

    x(s) + i*y(s) = (S/r) * e^(-i*a) * w^(-c) * Gamma(c, w, w*u),  c = 1 - i*beta.

n1 = 0 gives a = 0, the log spiral (S/r) * (u^c - 1)/c, and r = 0 the
clothoid, whose integral is a pair of Fresnel integrals. The oracle reads
the profile's float coefficients n1, n0, S and r exactly, so it is the
position of the very curvature the library integrates.
"""

import collections
import math
import sys

import mpmath  # a test dependency: the oracle must fail, not skip, without it
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gcspiral import GcsProfile, Pose, QuadratureConfig, endpoint, synthesize
from gcspiral.quadrature import tangent_integrals
from gcspiral.synthesis import _graded_edges

ABS_TOL = QuadratureConfig().abs_tol
DPS = 40

PROFILES = [
    GcsProfile(-1.0, 2.0, 3.0, 1.0),  # an inflection inside (0, S)
    GcsProfile(0.5, 2.0, 2.0, -0.5),
    GcsProfile(0.2, 1.0, 1.0, -0.999),  # the pole S/999 past the end
    GcsProfile(1.0, 3.0, 2.0, 4.0),
    GcsProfile(2.0, 0.5, 1.5, 1000.0),  # the pole S/1000 before the start
    GcsProfile(-40.0, 90.0, 2.0, 1.0),  # about 100 rad of turn
    GcsProfile(-1.0, 3.0, 2.5, 0.0),  # a clothoid: the Fresnel form
]
IDS = ["inflecting", "r=-0.5", "r=-0.999", "r=4", "r=1000", "stiff", "clothoid"]


def gcs_position(profile: GcsProfile, s: float) -> complex:
    """x(s) + i*y(s) from the start of the profile's curve, in closed form."""
    with mpmath.workdps(DPS):
        n1, n0, S, r = map(mpmath.mpf, (profile.n1, profile.n0, profile.arc_length, profile.r))
        s = mpmath.mpf(s)
        if r == 0:
            value = _clothoid(n1 / (2 * S), n0 / S, s)
        else:
            a = S * n1 / r**2
            c = 1 - 1j * (n1 * S - n0 * r) / r**2
            u = 1 + r * s / S
            if a == 0:
                value = S / r * (u**c - 1) / c
            else:
                w = -1j * a
                value = S / r * mpmath.exp(-1j * a) * w ** (-c) * mpmath.gammainc(c, w, w * u)
        return complex(value)


def _clothoid(half_slope, start, s):
    """The integral of exp(i*(half_slope*t**2 + start*t)) over [0, s]."""
    if half_slope == 0:
        return s if start == 0 else (mpmath.expj(start * s) - 1) / (1j * start)
    # half_slope*t**2 + start*t = half_slope*(t + shift)**2 - start**2/(4*half_slope)
    shift = start / (2 * half_slope)
    scale = mpmath.sqrt(2 * abs(half_slope) / mpmath.pi)
    sign = 1 if half_slope > 0 else -1

    def fresnel(t):
        x = scale * t
        return mpmath.fresnelc(x) + sign * 1j * mpmath.fresnels(x)

    phase = mpmath.expj(-(start**2) / (4 * half_slope))
    return phase * (fresnel(s + shift) - fresnel(shift)) / scale


def quad_position(profile: GcsProfile, s: float, start: float = 0.0) -> complex:
    """x(s) + i*y(s), less its value at `start`, by mpmath quadrature of the
    tangent angle written with logs."""
    with mpmath.workdps(DPS):
        n1, n0, S, r = map(mpmath.mpf, (profile.n1, profile.n0, profile.arc_length, profile.r))

        def angle(t):
            if r == 0:
                return (n0 * t + n1 * t * t / 2) / S
            return n1 * t / r + (n0 * r - n1 * S) / r**2 * mpmath.log(1 + r * t / S)

        pieces = mpmath.linspace(mpmath.mpf(start), mpmath.mpf(s), 17)
        return complex(mpmath.quad(lambda t: mpmath.expj(angle(t)), pieces))


# oracle_position's calls by the route that answered them.
ROUTES = collections.Counter()


def oracle_position(profile: GcsProfile, s: float) -> complex:
    """The closed form, or mpmath quadrature where mpmath's incomplete-gamma
    series does not converge (|a| in the tens of thousands, at small r)."""
    try:
        value = gcs_position(profile, s)
    except mpmath.libmp.NoConvergence:
        ROUTES["quadrature"] += 1
        return quad_position(profile, s)
    ROUTES["closed form"] += 1
    return value


def budget_profile(r, turn0, turn1, straightness, s_total) -> GcsProfile:
    """A GCS turning turn0 and turn1 rad at its ends, scaled down by 10**straightness."""
    scale = 10.0**straightness / s_total
    return GcsProfile(turn0 * scale, turn1 * scale, s_total, r)


class TestOracle:
    @pytest.mark.parametrize("profile", PROFILES, ids=IDS)
    def test_closed_form_matches_quadrature(self, profile):
        S = profile.arc_length
        assert abs(gcs_position(profile, S) - quad_position(profile, S)) <= 1e-14

    def test_log_spiral_branch(self):
        profile = GcsProfile(1.5, 1.5 / 3.0, 2.0, 2.0)  # n1 = 0
        assert profile.n1 == 0.0
        assert abs(gcs_position(profile, 2.0) - quad_position(profile, 2.0)) <= 1e-14

    def test_straight_and_circle_branches(self):
        assert gcs_position(GcsProfile(0.0, 0.0, 2.0, 0.0), 2.0) == 2.0
        circle = gcs_position(GcsProfile(1.0, 1.0, math.pi, 0.0), math.pi)
        assert abs(circle - 2j) <= 1e-15


class TestPositionsWithinBudget:
    @pytest.mark.parametrize("scheme", ["gauss", "simpson"])
    @pytest.mark.parametrize("profile", PROFILES, ids=IDS)
    def test_endpoint(self, profile, scheme):
        end = endpoint(profile, scheme=scheme)
        exact = gcs_position(profile, profile.arc_length)
        assert abs(end.x - exact.real) <= ABS_TOL
        assert abs(end.y - exact.imag) <= ABS_TOL

    @pytest.mark.parametrize("scheme", ["gauss", "simpson"])
    @pytest.mark.parametrize("r", [-0.99, -0.999])
    def test_each_graded_gap_within_its_share(self, r, scheme):
        # One kernel call over the pole-graded grid of endpoint:
        # each gap within abs_tol * width / S, so their sum within abs_tol.
        profile = GcsProfile(1.0, 300.0, 1.0, r)
        edges = _graded_edges(profile)
        assert len(edges) > 2
        dx, dy, _ = tangent_integrals(profile.theta, edges, ABS_TOL, scheme)
        share = ABS_TOL * np.diff(edges) / profile.arc_length
        exact = np.array([quad_position(profile, b, a) for a, b in zip(edges[:-1], edges[1:])])
        assert np.all(np.abs(dx - exact.real) <= share)
        assert np.all(np.abs(dy - exact.imag) <= share)
        end = gcs_position(profile, profile.arc_length)
        assert abs(np.cumsum(dx)[-1] - end.real) <= ABS_TOL
        assert abs(np.cumsum(dy)[-1] - end.imag) <= ABS_TOL

    @pytest.mark.parametrize("profile", PROFILES, ids=IDS)
    def test_synthesize_17_samples(self, profile):
        curve = synthesize(profile, Pose(), QuadratureConfig(samples_per_curve=17))
        exact = np.array([gcs_position(profile, s) for s in curve.s])
        assert np.max(np.abs(curve.x - exact.real)) <= ABS_TOL
        assert np.max(np.abs(curve.y - exact.imag)) <= ABS_TOL


class TestSimpsonNextToThePole:
    """Simpson's first pass is graded toward a pole S/999 or S/1000 from the curve."""

    @pytest.mark.parametrize("r", [-0.999, 1000.0])
    @pytest.mark.parametrize("kappa1", list(np.logspace(-8.0, -3.0, 11)))
    def test_nearly_straight_endpoint(self, r, kappa1):
        profile = GcsProfile(0.0, kappa1, 1.0, r)
        end = endpoint(profile, scheme="simpson")
        exact = gcs_position(profile, 1.0)
        assert abs(end.x - exact.real) <= ABS_TOL
        assert abs(end.y - exact.imag) <= ABS_TOL

    @pytest.mark.parametrize("r", [-0.999, 1000.0])
    def test_tolerance_at_the_float_floor(self, r):
        # Each graded gap gets its width's share of abs_tol, never below its
        # own width * eps, so the smallest abs_tol allowed is still met.
        profile = GcsProfile(0.0, 1e-3, 1.0, r)
        abs_tol = 2.0 * profile.arc_length * sys.float_info.epsilon
        end = endpoint(profile, config=QuadratureConfig(abs_tol=abs_tol), scheme="simpson")
        exact = gcs_position(profile, 1.0)
        assert abs(complex(end.x, end.y) - exact) <= 4.0 * abs_tol

    @given(
        r=st.one_of(
            st.floats(min_value=-4.0, max_value=-0.3).map(lambda e: -1.0 + 10.0**e),
            st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0**e),
        ),
        turn0=st.floats(min_value=-300.0, max_value=300.0),
        turn1=st.floats(min_value=-300.0, max_value=300.0),
        straightness=st.floats(min_value=-9.0, max_value=0.0),
        s_total=st.floats(min_value=0.5, max_value=2.0),
    )
    @example(r=-0.9, turn0=0.0, turn1=91.0, straightness=0.0, s_total=2.0)
    def test_endpoint_within_budget(self, r, turn0, turn1, straightness, s_total):
        # r in (-0.9999, 1e3), |kappa|*S up to 300 and scaled down to nearly
        # straight; a pole within S/15 of the curve grades the gaps toward it.
        profile = budget_profile(r, turn0, turn1, straightness, s_total)
        end = endpoint(profile, scheme="simpson")
        exact = oracle_position(profile, s_total)
        assert abs(end.x - exact.real) <= ABS_TOL
        assert abs(end.y - exact.imag) <= ABS_TOL

    # Seeded draws over the domain of the property above, and the share of
    # them whose position may come from the quadrature fallback. Seed 0 falls
    # back on 3 of 400; 1,000-draw sweeps of seeds 1-3 fell back on 4 to 6.
    SWEEP_DRAWS = 400
    MAX_FALLBACK_SHARE = 0.02

    def test_sweep_stays_on_the_closed_form(self):
        rng = np.random.default_rng(0)
        before = collections.Counter(ROUTES)
        for _ in range(self.SWEEP_DRAWS):
            if rng.random() < 0.5:
                r = -1.0 + 10.0 ** rng.uniform(-4.0, -0.3)
            else:
                r = 10.0 ** rng.uniform(-2.0, 3.0)
            turn0, turn1 = rng.uniform(-300.0, 300.0, 2)
            profile = budget_profile(r, turn0, turn1, rng.uniform(-9.0, 0.0), rng.uniform(0.5, 2.0))
            S = profile.arc_length
            end = endpoint(profile, scheme="simpson")
            exact = oracle_position(profile, S)
            assert abs(end.x - exact.real) <= ABS_TOL, profile
            assert abs(end.y - exact.imag) <= ABS_TOL, profile
        routes = ROUTES - before
        assert sum(routes.values()) == self.SWEEP_DRAWS
        assert routes["quadrature"] <= self.MAX_FALLBACK_SHARE * self.SWEEP_DRAWS, routes
