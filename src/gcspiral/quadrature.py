"""The tangent-integral kernel used by curve synthesis.

`tangent_integrals` integrates the unit tangent (cos(theta(t)), sin(theta(t)))
over every gap of a grid at once. Each gap starts with the power-of-two panel
count that keeps its phase swing |delta theta| at or below pi/2 per panel,
because a doubling estimate under-reports on full oscillation periods. The
error estimate compares p panels against 2p; only the gaps that miss their
tolerance are doubled again.

The panel rule is data, and two independent rules are provided so results
can be cross-checked: composite Gauss-Legendre of order 16, and composite
Simpson with the Richardson (fine - coarse)/15 correction.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError, count, real

__all__ = ["Rule", "GAUSS_LEGENDRE", "SIMPSON", "MAX_PANELS", "tangent_integrals"]

_MAX_PHASE_SPAN = 0.5 * math.pi

# Work ceiling: the panels one tangent_integrals call may evaluate. It is
# checked before each pass, so an impossible request fails before any
# allocation. Phase swings of 1e5 rad need about 2e5 panels per pass.
MAX_PANELS = 2**22

# Panels whose nodes are evaluated together; bounds the scratch memory.
_BLOCK_PANELS = 256


class Rule(NamedTuple):
    """A panel rule on [0, 1] and how a p-panel and a 2p-panel sum combine.

    A panel contributes its width times the weighted mean of the integrand
    at the nodes, so the weights may have any scale; integer weights keep a
    constant integrand exact. The error estimate is
    error_factor * |fine - coarse|, and the result
    fine + correction * (fine - coarse).
    """

    nodes: np.ndarray
    weights: np.ndarray
    error_factor: float
    correction: float


def _gauss_legendre(order: int) -> Rule:
    x, w = np.polynomial.legendre.leggauss(order)
    return Rule(0.5 * (x + 1.0), w, 1.0, 0.0)


GAUSS_LEGENDRE = _gauss_legendre(16)
SIMPSON = Rule(np.array([0.0, 0.5, 1.0]), np.array([1.0, 4.0, 1.0]), 1.0 / 15.0, 1.0 / 15.0)


def _panel_sums(theta, lo, width, panels, rule: Rule) -> tuple[np.ndarray, np.ndarray]:
    """Composite sums of the rule over each gap [lo, lo + width] in `panels` panels."""
    h = width / panels
    weight_sum = rule.weights.sum()
    ends = np.cumsum(panels)
    starts = ends - panels
    sx = np.zeros(len(lo))
    sy = np.zeros(len(lo))
    total = int(ends[-1])
    for first in range(0, total, _BLOCK_PANELS):
        ids = np.arange(first, min(first + _BLOCK_PANELS, total))
        gap = np.searchsorted(ends, ids, side="right")
        hg = h[gap]
        angle = theta((lo[gap] + (ids - starts[gap]) * hg)[:, None] + hg[:, None] * rule.nodes)
        sx += np.bincount(gap, hg * ((np.cos(angle) @ rule.weights) / weight_sum), len(lo))
        sy += np.bincount(gap, hg * ((np.sin(angle) @ rule.weights) / weight_sum), len(lo))
    return sx, sy


def tangent_integrals(
    theta: Callable,
    edges,
    abs_tol: float = 1e-10,
    max_subdivisions: int = 40,
    rule: Rule = GAUSS_LEGENDRE,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate (cos(theta(t)), sin(theta(t))) over each gap of `edges`.

    `theta` maps an array of t to an array of angles; `edges` is a
    nondecreasing grid of finite values. Returns (dx, dy), one entry per
    gap, each within abs_tol (absolute) by the rule's doubling estimate.
    A gap may be halved at most max_subdivisions times, so it never has
    more than 2**max_subdivisions panels. Raises QuadratureError naming
    the worst gap when that budget is spent, and, before a pass is
    evaluated, when it would take the call above MAX_PANELS panels.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or not np.all(np.isfinite(edges)):
        raise DomainError(f"integration bounds must be finite, got {edges!r}")
    if np.any(np.diff(edges) < 0.0):
        raise DomainError(f"integration bounds out of order: {edges!r}")
    abs_tol = real("abs_tol", abs_tol, above=0.0)
    # Beyond 2**62 panels the work ceiling binds first.
    limit = 2.0 ** min(count("max_subdivisions", max_subdivisions), 62)

    lo = edges[:-1]
    width = np.diff(edges)
    need = np.maximum(np.abs(np.diff(theta(edges))) / _MAX_PHASE_SPAN, 1.0)
    coarse = np.minimum(np.exp2(np.ceil(np.log2(need))), 0.5 * limit)

    dx = np.empty(len(lo))
    dy = np.empty(len(lo))
    todo = np.arange(len(lo))
    work = 0.0
    cx = cy = None
    while True:
        fine = 2.0 * coarse
        work += float(np.sum(fine)) + (float(np.sum(coarse)) if cx is None else 0.0)
        if not work <= MAX_PANELS:
            raise QuadratureError(
                f"integration needs {work:.0f} panels, above the ceiling of {MAX_PANELS} "
                "panels per call; the tangent angle turns too far"
            )
        if cx is None:
            cx, cy = _panel_sums(theta, lo, width, coarse.astype(np.int64), rule)
        fx, fy = _panel_sums(theta, lo[todo], width[todo], fine.astype(np.int64), rule)
        err = rule.error_factor * np.maximum(np.abs(fx - cx), np.abs(fy - cy))
        dx[todo] = fx + rule.correction * (fx - cx)
        dy[todo] = fy + rule.correction * (fy - cy)
        failing = ~(err <= abs_tol) | (coarse < need)
        if not failing.any():
            return dx, dy
        spent = failing & (2.0 * fine > limit)
        if spent.any():
            worst = int(np.argmax(np.where(spent, err, -1.0)))
            raise QuadratureError(
                f"tolerance {abs_tol:g} not met after {max_subdivisions} subdivisions; "
                f"worst sub-interval [{lo[todo[worst]]:.17g}, {edges[todo[worst] + 1]:.17g}] "
                f"with error estimate {err[worst]:.3g}"
            )
        todo, need, coarse = todo[failing], need[failing], fine[failing]
        cx, cy = fx[failing], fy[failing]
