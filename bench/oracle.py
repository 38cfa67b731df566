"""Independent closed forms for rational-linear (GCS) curvature profiles.

Nothing here imports gcspiral. The benchmark checks gcspiral's outputs
against these values, so they are derived again from the definitions:

    kappa(s) = (n1*s + n0) / (r*s + S),  n1 = k1 - k0 + r*k1,  n0 = k0*S

- theta(s) is the exact antiderivative: the log form for r != 0 and the
  polynomial for r = 0;
- positions integrate (cos theta, sin theta) with a composite
  Gauss-Legendre rule owned by this module, sized so that theta turns at
  most MAX_PANEL_TURN radians across any panel;
- the LCG coordinates come from rho = 1/kappa and rho' = -kappa'/kappa**2;
- the LCG gradient line A*s + B uses the paper's closed form, and the
  pointwise gradient comes from the definition 1 - rho*rho''/rho'**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GL_ORDER = 20
MAX_PANEL_TURN = 0.25
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)


@dataclass(frozen=True)
class Gcs:
    """Endpoint parameters of a GCS profile: kappa0, kappa1, S and r."""

    k0: float
    k1: float
    S: float
    r: float

    @property
    def n1(self) -> float:
        return self.k1 - self.k0 + self.r * self.k1

    @property
    def n0(self) -> float:
        return self.k0 * self.S

    @property
    def args(self) -> tuple[float, float, float, float]:
        return (self.k0, self.k1, self.S, self.r)

    def cli_arg(self) -> str:
        """The `--gcs=` option; the `=` form lets a value start with '-'."""
        return "--gcs=" + ",".join(repr(v) for v in self.args)


def kappa(p: Gcs, s):
    return (p.n1 * s + p.n0) / (p.r * s + p.S)


def kappa_prime(p: Gcs, s):
    den = p.r * s + p.S
    return (p.n1 * p.S - p.n0 * p.r) / (den * den)


def kappa_double_prime(p: Gcs, s):
    den = p.r * s + p.S
    return -2.0 * p.r * (p.n1 * p.S - p.n0 * p.r) / (den * den * den)


def theta(p: Gcs, s):
    """Tangent angle with theta(0) = 0."""
    s = np.asarray(s, dtype=float)
    if p.r == 0.0:
        return p.k0 * s + (p.k1 - p.k0) * s * s / (2.0 * p.S)
    return (p.n1 / p.r) * s + (p.n0 * p.r - p.n1 * p.S) / (p.r * p.r) * np.log1p(p.r * s / p.S)


def inflection(p: Gcs) -> float | None:
    """Arc length where kappa changes sign inside (0, S), if it does."""
    if p.n1 == 0.0:
        return None
    s_star = -p.n0 / p.n1
    return s_star if 0.0 < s_star < p.S else None


def curve(p: Gcs, n: int, panels: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s, x, y at n uniform samples on [0, S], starting at the origin heading along +x.

    Each sample gap is split into `panels` equal panels (by default enough
    that theta turns at most MAX_PANEL_TURN across one); each panel takes a
    GL_ORDER-point Gauss-Legendre rule. kappa is monotone on [0, S], so its
    largest magnitude sits at an end.
    """
    s = np.linspace(0.0, p.S, n)
    h = p.S / (n - 1)
    if panels is None:
        panels = max(2, math.ceil(max(abs(p.k0), abs(p.k1)) * h / MAX_PANEL_TURN))
    frac = np.arange(panels + 1) / panels
    edges = s[:-1, None] + (s[1:] - s[:-1])[:, None] * frac[None, :]
    lo, hi = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[..., None] + half[..., None] * _NODES
    ang = theta(p, t)
    dx = np.sum(half * np.sum(_WEIGHTS * np.cos(ang), axis=-1), axis=-1)
    dy = np.sum(half * np.sum(_WEIGHTS * np.sin(ang), axis=-1), axis=-1)
    x = np.concatenate(([0.0], np.cumsum(dx)))
    y = np.concatenate(([0.0], np.cumsum(dy)))
    return s, x, y


def lcg(p: Gcs, t):
    """(log|rho|, log|rho/rho'|) at arc length t."""
    k = kappa(p, t)
    rho = 1.0 / k
    rho_p = -kappa_prime(p, t) / (k * k)
    return np.log(np.abs(rho)), np.log(np.abs(rho / rho_p))


def gradient(p: Gcs, t):
    """LCG gradient from its definition, for an arc-length parameter (s' = 1).

    With rho = 1/kappa, rho' = -kappa'/kappa**2 and
    rho'' = -kappa''/kappa**2 + 2*kappa'**2/kappa**3, the definition
    1 - rho*rho''/rho'**2 reduces to kappa*kappa''/kappa'**2 - 1, which
    stays finite where kappa = 0.
    """
    kp = kappa_prime(p, t)
    return kappa(p, t) * kappa_double_prime(p, t) / (kp * kp) - 1.0


def gradient_line(p: Gcs) -> tuple[float, float]:
    """Slope A and intercept B of the exact gradient line (paper's closed form)."""
    a = 2.0 * p.r * p.n1 / ((1.0 + p.r) * p.S * (p.k0 - p.k1))
    b = 2.0 * p.r * p.k0 / ((1.0 + p.r) * (p.k0 - p.k1)) - 1.0
    return a, b


def aesthetic_class(p: Gcs) -> str:
    """'log_aesthetic' for a constant gradient, else 'gcs' (linear in s)."""
    a, _ = gradient_line(p)
    return "log_aesthetic" if abs(a) * p.S <= 1e-6 else "gcs"


def degenerate_class(p: Gcs) -> str:
    if p.k0 == 0.0 and p.k1 == 0.0:
        return "straight_line"
    if p.r == 0.0 and p.k0 == p.k1:
        return "circular_arc"
    if p.n1 == 0.0:
        return "log_spiral"
    if p.r == 0.0:
        return "clothoid"
    return "general_gcs"
