"""Shared hypothesis strategies and small helpers for the test suite."""

import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from gcspiral import DomainError, GcsProfile, lcg_gcs_points
from gcspiral.cli import PROFILE_KINDS

kappas = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
arc_lengths = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
shape_factors = st.floats(min_value=-0.99, max_value=100.0, allow_nan=False)
unit_fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def gcs_profiles(draw, min_kappa_gap: float = 0.0):
    k0 = draw(kappas)
    k1 = draw(kappas)
    if min_kappa_gap > 0.0 and abs(k0 - k1) < min_kappa_gap:
        k1 = k0 + (min_kappa_gap if k1 >= k0 else -min_kappa_gap)
    s_total = draw(arc_lengths)
    r = draw(shape_factors)
    return GcsProfile(k0, k1, s_total, r)


def profile_document(profile) -> dict:
    """The CLI's JSON document of a profile, keyed as cli.PROFILE_KINDS lists them."""
    kind, keys = next((k, keys) for k, (cls, keys) in PROFILE_KINDS.items() if type(profile) is cls)
    values = [getattr(profile, f.name) for f in dataclasses.fields(profile) if f.init]
    return {"type": kind, **dict(zip(keys, values))}


def menger_curvature(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed circumcircle curvature of each interior sample triple."""
    ax, ay = x[:-2], y[:-2]
    bx, by = x[1:-1], y[1:-1]
    cx, cy = x[2:], y[2:]
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    la = np.hypot(bx - ax, by - ay)
    lb = np.hypot(cx - bx, cy - by)
    lc = np.hypot(cx - ax, cy - ay)
    return 2.0 * cross / (la * lb * lc)


def random_gcs(rng: np.random.Generator, min_kappa_gap: float = 0.0) -> GcsProfile:
    """Seeded random profile over the same ranges as the hypothesis strategy."""
    while True:
        k0 = rng.uniform(-10.0, 10.0)
        k1 = rng.uniform(-10.0, 10.0)
        if abs(k0 - k1) < min_kappa_gap:
            continue
        s_total = rng.uniform(0.05, 20.0)
        r = rng.uniform(-0.99, 100.0)
        return GcsProfile(k0, k1, s_total, r)


def lcg_point(profile: GcsProfile, t: float):
    """The closed-form LCG point at one t; DomainError where it is skipped."""
    points, skipped = lcg_gcs_points(profile, [t])
    if skipped:
        raise DomainError(skipped[0].reason)
    return points[0]


FIG_SWEEP_R = (100.0, 5.0, 2.0, 1.0, 0.0, -0.5, -0.9, -0.99)


def fig_sweep_profiles():
    return [GcsProfile(0.0, 2.0, math.pi, r) for r in FIG_SWEEP_R]
