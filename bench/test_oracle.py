"""Tests of the benchmark's oracle against exact cases and against scipy.

Run with: python3 -m pytest bench/test_oracle.py -q
"""

import math

import numpy as np
import pytest

import inputs
import oracle
from oracle import Gcs

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_special = pytest.importorskip("scipy.special")

SEEDS = range(5)


def test_circle_endpoint():
    c, S = 1.3, 2.0
    s, x, y = oracle.curve(Gcs(c, c, S, 0.0), 64)
    assert abs(x[-1] - math.sin(c * S) / c) <= 1e-14
    assert abs(y[-1] - (1.0 - math.cos(c * S)) / c) <= 1e-14


@pytest.mark.parametrize("a,S", [(2.0, 1.0), (40.0, 2.5), (150.0, 2.0)])
def test_clothoid_against_fresnel(a, S):
    """kappa = a*s gives x + iy = sqrt(pi/a) * (C + iS)(s*sqrt(a/pi))."""
    s, x, y = oracle.curve(Gcs(0.0, a * S, S, 0.0), 257)
    fs, fc = scipy_special.fresnel(s * math.sqrt(a / math.pi))
    scale = math.sqrt(math.pi / a)
    assert np.max(np.abs(x - scale * fc)) <= 1e-13
    assert np.max(np.abs(y - scale * fs)) <= 1e-13


def _all_profiles():
    profiles = [Gcs(0.0, 2.0, math.pi, r) for r in (100.0, 5.0, 2.0, 1.0, 0.0, -0.5, -0.9, -0.99)]
    for seed in SEEDS:
        profiles += inputs.stiff_profiles(seed)
        profiles += inputs.interrogate_profiles(seed)
        profiles += inputs.cli_profiles(seed)
    return profiles


@pytest.mark.parametrize("p", _all_profiles(), ids=str)
def test_theta_is_the_antiderivative_of_kappa(p):
    for s in np.linspace(0.0, p.S, 5)[1:]:
        expected, _ = scipy_integrate.quad(lambda t: oracle.kappa(p, t), 0.0, s,
                                           epsabs=1e-12, epsrel=1e-12, limit=200)
        assert abs(float(oracle.theta(p, s)) - expected) <= 1e-11 * max(1.0, abs(expected))


@pytest.mark.parametrize("p", _all_profiles(), ids=str)
def test_curve_converged_under_panel_doubling(p):
    n = 256
    _, x, y = oracle.curve(p, n)
    panels = max(2, math.ceil(max(abs(p.k0), abs(p.k1)) * p.S / (n - 1) / oracle.MAX_PANEL_TURN))
    _, x2, y2 = oracle.curve(p, n, panels=2 * panels)
    assert np.max(np.abs(x - x2)) <= 1e-13
    assert np.max(np.abs(y - y2)) <= 1e-13


def test_curve_endpoint_against_scipy_quad():
    p = Gcs(-2.0, 1.0, 2.0, 0.5)
    _, x, y = oracle.curve(p, 256)
    ex, _ = scipy_integrate.quad(lambda t: math.cos(oracle.theta(p, t)), 0.0, p.S, epsabs=1e-14)
    ey, _ = scipy_integrate.quad(lambda t: math.sin(oracle.theta(p, t)), 0.0, p.S, epsabs=1e-14)
    assert abs(x[-1] - ex) <= 1e-13 and abs(y[-1] - ey) <= 1e-13


@pytest.mark.parametrize("p", [Gcs(0.5, 2.0, 3.0, 1.0), Gcs(-1.0, 2.0, 3.0, 1.0),
                               Gcs(2.0, 0.3, 1.5, -0.7), Gcs(1.0, 3.0, 2.0, 0.0)])
def test_gradient_definition_matches_paper_line(p):
    t = np.linspace(0.0, p.S, 33)
    a, b = oracle.gradient_line(p)
    assert np.max(np.abs(oracle.gradient(p, t) - (a * t + b))) <= 1e-12


def test_lcg_second_coordinate_uses_rho_derivative():
    p = Gcs(0.5, 2.0, 3.0, 1.0)
    t, h = 1.2, 1e-5
    rho = lambda s: 1.0 / oracle.kappa(p, s)  # noqa: E731
    rho_p = (rho(t + h) - rho(t - h)) / (2.0 * h)
    _, log_freq = oracle.lcg(p, t)
    assert abs(log_freq - math.log(abs(rho(t) / rho_p))) <= 1e-8


def test_input_sets():
    for seed in SEEDS:
        stiff = inputs.stiff_profiles(seed)
        assert len(stiff) % 2 == 1
        for p, (scale, r, split) in zip(stiff, inputs.STIFF_TEMPLATES):
            assert (oracle.inflection(p) is not None) == (split < 0.0)
            assert abs(max(abs(p.k0), abs(p.k1)) * p.S - scale) <= 0.011 * scale
            assert p.r > -1.0 and (p.r == 0.0) == (r == 0.0)
        gentle = inputs.interrogate_profiles(seed)
        assert gentle[-len(inputs.INFLECTED):] == list(inputs.INFLECTED)
        assert all(oracle.inflection(p) is None for p in gentle[: -len(inputs.INFLECTED)])
        assert all(oracle.inflection(p) is not None for p in inputs.INFLECTED)
        assert all(oracle.inflection(p) is None for p in inputs.cli_profiles(seed))
    assert inputs.stiff_profiles(3) == inputs.stiff_profiles(3)
    assert inputs.stiff_profiles(3) != inputs.stiff_profiles(4)
