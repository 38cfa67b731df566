"""The tangent-integral kernel used by curve synthesis.

`tangent_integrals` integrates the unit tangent (cos(theta(t)), sin(theta(t)))
over every gap of a grid at once. Each gap is sized with the power-of-two
panel count p that keeps its phase swing |delta theta| at or below pi/2 per
panel, because a doubling estimate under-reports on full oscillation
periods; only the gaps that miss their tolerance are doubled again. Two
independent schemes are provided so results can be cross-checked:
composite Gauss-Legendre of order 16 ("gauss") and composite Simpson with
the Richardson (fine - coarse)/15 correction ("simpson").

Gauss-Legendre shares no nodes between passes, so a p-panel pass would be
evaluated only for its estimate. Instead its first pass evaluates 2p panels
and estimates their error from their own node values: the two highest
Legendre coefficients a_14, a_15 of cos(theta) and sin(theta) on each
panel, from a fixed node-to-coefficient matrix, give the gap estimate
sum(h * (|a_14| + |a_15|)), the larger for cos and sin. The decay of these
coefficients bounds the panel's Gauss error (Trefethen, "Is Gauss
quadrature better than Clenshaw-Curtis?", SIAM Review 50(1), 2008). A gap
within its tolerance returns these 2p-panel sums; a gap that misses is
doubled and compared against the 2p-panel sums it holds.

Simpson's nodes are nested: the panel ends and midpoints of p panels are
all panel ends of 2p panels. So it keeps, per gap, the (cos, sin) sums of
three node sets: the two gap ends E (from the theta(edges) call that sizes
the first pass), the interior panel ends I and the panel midpoints M. The
p-panel sum is h/6 * (E + 2I + 4M) with h = width / p, and a doubling sets
I <- I + M and evaluates only the 2p new midpoints into M, so every node
is evaluated once. Its first pass is at p panels, at least 64, and its
first estimate compares p against 2p; both panel counts' interior nodes,
the 4p - 1 quarter points of the p panels, are evaluated in one theta call
and summed by set. Its result, the Richardson value
R = fine + (fine - coarse)/15, is O(h**6) accurate while that estimate is
O(h**4), so from its second comparison on it also applies Romberg's next
column (Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed.,
1984, section 6.3): a gap within |fine - coarse|/15 returns R_2p, and one
that misses it still accepts if |R_2p - R_p|/63 meets its tolerance, and
then returns R_2p + (R_2p - R_p)/63.

A call's error budget is abs_tol for each coordinate over its span
edges[-1] - edges[0]: each gap meets its width's share abs_tol * width /
span, and an abs_tol below the float floor span * eps fails before theta
is called. Its one work limit is MAX_PANELS panels over all its gaps,
checked before each pass. Both schemes return the theta(edges) values
they size the first pass with, so a caller that needs the angle at the
edges does not evaluate it again.

The kernel calls ndarray methods and ufuncs, not NumPy's Python-level
wrappers (`np.sum`, `np.clip`, `np.diff`, ...): on stiff profiles its time is
the fixed cost of many small NumPy calls, not the work per node.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError, real

__all__ = ["MAX_PANELS", "tangent_integrals"]

_MAX_PHASE_SPAN = 0.5 * math.pi

# Work ceiling, the one limit: the panels one tangent_integrals call may
# evaluate. It is checked before each pass, so an impossible request fails
# before any allocation. Phase swings of 1e5 rad need about 2e5 panels per pass.
MAX_PANELS = 2**22

# Nodes evaluated together, Simpson's one by one and Gauss's a panel at a
# time (_BLOCK_PANELS below); they bound the scratch memory.
_BLOCK_NODES = 4096

# The order-16 Gauss-Legendre nodes on [-1, 1] and their weights, as
# np.polynomial.legendre.leggauss(16) gives them; written out, they spare an
# eigenvalue solve through LAPACK (and its memory) at import.
_LEGENDRE_16 = np.array(
    [
        (0.09501250983763744, 0.18945061045506864),
        (0.2816035507792589, 0.18260341504492364),
        (0.45801677765722737, 0.16915651939500265),
        (0.6178762444026438, 0.1495959888165767),
        (0.755404408355003, 0.12462897125553407),
        (0.8656312023878318, 0.0951585116824926),
        (0.9445750230732326, 0.062253523938647456),
        (0.9894009349916499, 0.027152459411754176),
    ]
)
_LEGENDRE_16_NODES = np.concatenate((-_LEGENDRE_16[::-1, 0], _LEGENDRE_16[:, 0]))
# The Gauss panel on [0, 1]: it contributes its width times the weighted
# mean of the integrand at these nodes.
_GAUSS_NODES = 0.5 * (_LEGENDRE_16_NODES + 1.0)
_GAUSS_WEIGHTS = np.concatenate((_LEGENDRE_16[::-1, 1], _LEGENDRE_16[:, 1]))
_GAUSS_WEIGHT_SUM = _GAUSS_WEIGHTS.sum()
_BLOCK_PANELS = _BLOCK_NODES // len(_GAUSS_NODES)

# Simpson's /15 estimate holds only once the panels resolve how fast the
# curvature changes. On fewer, wider panels it under-reports: by up to 6.7x
# on one panel of a nearly straight GCS gap with r = -0.99 or r = 50, whose
# curvature has its pole within S/50 of the gap. From 64 panels on it
# over-reports there, so Simpson starts at 64 panels.
_SIMPSON_MIN_PANELS = 64
# Simpson's first comparison evaluates the 4p - 1 interior nodes
# t = lo + j * h/4 of p panels of width h in one theta call, as nodes
# k = j - 1, and sums them by j mod 4 into three sets: 0, the interior
# panel ends of p panels (j = 4i); 1, their midpoints (j = 4i + 2); 2, the
# midpoints of 2p panels (odd j). For a power-of-two p these are the very
# floats that lo + (i + 1) * h, lo + (i + 1/2) * h and
# lo + (i + 1/2) * (width / 2p) give.
_QUARTERS = np.array([2, 1, 2, 0])
# Simpson's Richardson correction over p and 2p panels: the estimate
# |fine - coarse| / 15 and the result fine + (fine - coarse) / 15.
_RICHARDSON = 1.0 / 15.0
# Romberg's next column over Simpson's Richardson values R_p, R_2p: the
# estimate |R_2p - R_p| / 63 and the result R_2p + (R_2p - R_p) / 63.
_ROMBERG = 1.0 / 63.0


# (2, 16) rows taking a Gauss panel's node values f_j to the two highest
# Legendre coefficients on [-1, 1] of the polynomial through them,
# a_k = (2k + 1)/2 * sum_j w_j P_k(x_j) f_j, for k = 14 and 15. Written out
# like the nodes: building them with numpy.polynomial.legendre.legvander
# would import numpy.polynomial for this one table.
_GAUSS_TAIL = np.array(
    [
        [
            0.06270545045312409, -0.20493540387013898, 0.35412149495579426, -0.46284478766452686,
            0.49770223675171815, -0.4435406121078923, 0.30583343743960406, -0.1090418159576823,
            -0.10904181595768139, 0.30583343743960406, -0.44354061210789314, 0.49770223675171815,
            -0.46284478766452714, 0.3541214949557948, -0.20493540387013898, 0.06270545045312409,
        ],
        [
            -0.0327813048639623, 0.11222091245058813, -0.21159853063188439, 0.31691961779722083,
            -0.41664037702596146, 0.5008933497159648, -0.5617461448292793, 0.5936159289428021,
            -0.5936159289428025, 0.5617461448292793, -0.5008933497159641, 0.41664037702596146,
            -0.31691961779722205, 0.2115985306318853, -0.11222091245058813, 0.0327813048639623,
        ],
    ]
)


def _blocks(counts, size: int):
    """(gap, k) for every k < counts[gap], in blocks of at most `size` pairs."""
    ends = counts.cumsum()
    starts = ends - counts
    total = int(ends[-1])
    for first in range(0, total, size):
        ids = np.arange(first, min(first + size, total))
        gap = ends.searchsorted(ids, side="right")
        yield gap, ids - starts[gap]


def _gauss_sums(theta, lo, width, panels, tail: bool):
    """Composite Gauss-Legendre (cos, sin) sums over each gap [lo, lo + width] in `panels` panels.

    With `tail`, also returns each gap's Legendre-tail error estimate, else
    None: the sum over its panels of h * (|a_14| + |a_15|), where a_k are
    the Legendre coefficients of the integrand on the panel, the larger for
    cos and sin.
    """
    h = width / panels
    sums = np.zeros((2, len(lo)))
    tails = np.zeros((2, len(lo))) if tail else None
    for gap, k in _blocks(panels, _BLOCK_PANELS):
        hg = h[gap]
        angle = theta((lo[gap] + k * hg)[:, None] + hg[:, None] * _GAUSS_NODES)
        for row, values in enumerate((np.cos(angle), np.sin(angle))):
            mean = (values @ _GAUSS_WEIGHTS) / _GAUSS_WEIGHT_SUM
            sums[row] += np.bincount(gap, hg * mean, len(lo))
            if tail:
                # Two matrix-vector products: a matrix product's BLAS buffers raise peak memory.
                a = np.abs(values @ _GAUSS_TAIL[0]) + np.abs(values @ _GAUSS_TAIL[1])
                tails[row] += np.bincount(gap, hg * a, len(lo))
    return sums, np.maximum(tails[0], tails[1]) if tail else None


def _node_sums(theta, lo, step, offset: float, counts, sets=None) -> np.ndarray:
    """Per gap, the (cos, sin) of theta summed over t = lo + (k + offset) * step, k < counts.

    Returns shape (2, gaps). With `sets`, node k is summed into set
    sets[k % len(sets)], in node order within each set, and the shape is
    (2, gaps, max(sets) + 1).
    """
    n = len(lo)
    size = 1 if sets is None else int(sets.max()) + 1
    sums = np.zeros((2, n * size))
    for gap, k in _blocks(counts, _BLOCK_NODES):
        angle = theta(lo[gap] + (k + offset) * step[gap])
        bins = gap if sets is None else size * gap + sets[k % len(sets)]
        sums[0] += np.bincount(bins, np.cos(angle), n * size)
        sums[1] += np.bincount(bins, np.sin(angle), n * size)
    return sums if sets is None else sums.reshape(2, n, size)


def _unit(angle) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def _simpson_sums(h, ends, inner, mids):
    """Composite Simpson (cos, sin) sums h/6 * (E + 2I + 4M) over panels of width h.

    `ends` are the sums E at the two gap ends, `inner` the sums I at the
    interior panel ends and `mids` the sums M at the panel midpoints. Also
    returns I + M, the interior-end sums of twice the panels.
    """
    return h / 6.0 * (ends + 2.0 * inner + 4.0 * mids), inner + mids


def tangent_integrals(
    theta: Callable,
    edges,
    abs_tol: float,
    scheme: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate (cos(theta(t)), sin(theta(t))) over each gap of `edges`.

    `theta` maps an array of t to an array of angles; `edges` is a
    nondecreasing grid of finite values; `scheme` is "gauss" or "simpson".
    Returns (dx, dy, phase): dx and dy hold one entry per gap, and phase is
    theta(edges), the call that sizes the first pass. abs_tol is the
    absolute budget of each coordinate over the span edges[-1] - edges[0],
    so each entry is within its gap's share abs_tol * width / span by the
    scheme's error estimate: for "gauss" the first pass's Legendre tail,
    then doubling; for "simpson" p against 2p panels, both from one theta
    call, then doubling, and the smaller of |fine - coarse|/15 and, from the
    second comparison on, Romberg's |R_2p - R_p|/63. Raises DomainError
    before theta is called for an unknown scheme and for an abs_tol below
    the float floor span * eps; for a non-finite theta at an edge before any
    pass; and for a theta that is not finite inside a gap, naming the first
    such gap, after the pass that evaluates it there; an infinite theta also
    makes NumPy warn of an invalid value in cos and sin first. Raises
    QuadratureError before a pass is evaluated when it would take the call,
    all its gaps together, above MAX_PANELS panels, naming the worst failing
    gap, by that estimate, once a pass has been evaluated.
    """
    if not (isinstance(scheme, str) and scheme in ("gauss", "simpson")):
        raise DomainError(f"unknown quadrature scheme {scheme!r}")
    simpson = scheme == "simpson"
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or not np.isfinite(edges).all():
        raise DomainError(f"integration bounds must be finite, got {edges!r}")
    width = edges[1:] - edges[:-1]
    if (width < 0.0).any():
        raise DomainError(f"integration bounds out of order: {edges!r}")
    abs_tol = real("abs_tol", abs_tol, above=0.0)
    span = float(edges[-1] - edges[0])
    floor = span * sys.float_info.epsilon
    if abs_tol < floor:
        raise DomainError(f"abs_tol {abs_tol!r} is below the float floor span*eps = {floor:.3g}")

    lo = edges[:-1]
    # Each gap's share of abs_tol, by width; a zero span has only empty gaps.
    tol = abs_tol * (width / span) if span > 0.0 else np.full(len(lo), abs_tol)
    phase = theta(edges)
    finite = np.isfinite(phase)
    if not finite.all():
        raise DomainError(f"theta is not finite at t = {edges[np.argmin(finite)]:.17g}")
    # Past MAX_PANELS a gap fails before any pass; the clip keeps panel counts finite.
    need = np.abs(phase[1:] - phase[:-1]) / _MAX_PHASE_SPAN
    need = np.minimum(np.maximum(need, 1.0), MAX_PANELS)
    least = _SIMPSON_MIN_PANELS if simpson else 1
    m, e = np.frexp(need)  # the least power of two >= need, exactly
    coarse = np.maximum(np.ldexp(1.0, e - (m == 0.5)), least)
    if simpson:  # the (cos, sin) at the gap ends, reused by every pass
        ends = _unit(phase[:-1]) + _unit(phase[1:])

    dx = np.empty(len(lo))
    dy = np.empty(len(lo))
    todo = np.arange(len(lo))
    work = 0.0
    coarse_sums = inner = rich = err = None
    while True:
        fine = 2.0 * coarse
        first = coarse_sums is None
        # Gauss skips the first coarse pass and accepts on its Legendre tail.
        work += float(fine.sum()) + (float(coarse.sum()) if simpson and first else 0.0)
        if not work <= MAX_PANELS:
            reason = "the tangent angle turns too far"
            if not first:
                worst = int(np.argmax(err))
                reason = (
                    f"worst sub-interval [{lo[todo[worst]]:.17g}, {edges[todo[worst] + 1]:.17g}] "
                    f"with error estimate {err[worst]:.3g}"
                )
            raise QuadratureError(
                f"integration needs {work:.0f} panels, above the ceiling of {MAX_PANELS} "
                f"panels per call; {reason}"
            )
        panels = fine.astype(np.int64)
        if not simpson:
            fine_sums, err = _gauss_sums(theta, lo[todo], width[todo], panels, first)
            if not first:
                err = np.abs(fine_sums - coarse_sums).max(axis=0)
            dx[todo], dy[todo] = fine_sums
        else:
            h = width[todo] / panels
            if first:  # one theta call for p and 2p panels (see _QUARTERS)
                nodes = _node_sums(theta, lo, 0.5 * h, 1.0, 2 * panels - 1, _QUARTERS)
                inner, mids, new = nodes[..., 0], nodes[..., 1], nodes[..., 2]
                coarse_sums, inner = _simpson_sums(width / coarse, ends, inner, mids)
            else:
                new = _node_sums(theta, lo[todo], h, 0.5, panels)
            fine_sums, inner = _simpson_sums(h, ends, inner, new)
            err = _RICHARDSON * np.abs(fine_sums - coarse_sums).max(axis=0)
            value = fine_sums + _RICHARDSON * (fine_sums - coarse_sums)
            dx[todo], dy[todo] = value
            if rich is not None:  # Romberg's next column, from the second comparison on
                romberg = _ROMBERG * np.abs(value - rich).max(axis=0)
                late = ~(err <= tol) & (romberg <= tol)
                dx[todo[late]], dy[todo[late]] = (value + _ROMBERG * (value - rich))[:, late]
                err = np.minimum(err, romberg)
            rich = value
        failing = ~(err <= tol)
        if not failing.any():
            return dx, dy, phase
        # A non-finite sum gives a NaN estimate, so only failing gaps can hold one.
        bad = failing & ~np.isfinite(fine_sums).all(axis=0)
        if bad.any():
            gap = todo[np.argmax(bad)]
            raise DomainError(
                f"theta is not finite inside the gap [{lo[gap]:.17g}, {edges[gap + 1]:.17g}]"
            )
        todo, coarse, err, tol = (v[failing] for v in (todo, fine, err, tol))
        coarse_sums = fine_sums[:, failing]
        if simpson:
            ends, inner, rich = ends[:, failing], inner[:, failing], rich[:, failing]
