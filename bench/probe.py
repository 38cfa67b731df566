"""Host probe: a fixed reference kernel timed between operations.

The kernel shares no code with gcspiral. It mixes the kinds of work the
workloads do: an interpreter-bound loop of scalar float math and small
method calls, float-to-text formatting, and a numpy array part. Its time
tracks how fast this host runs Python at the moment, so an operation's
time divided by the mean of the probes just before and just after it
loses most of the host's drift.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the median probe time, in ms, on the reference machine (a shared
# 2-core x86-64 host, Python 3.11, numpy 2.4). Fixed once: every gated
# time is reported as raw_time * NOMINAL_PROBE_MS / measured_probe_ms, so
# on that machine a normalised time reads like a raw one.
NOMINAL_PROBE_MS = 1.0

_GRID = np.linspace(0.0, 8.0, 2048)


class _Rational:
    """Small object with a validated scalar method, as profile code has."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def value(self, x: float) -> float:
        if not math.isfinite(x):
            raise ValueError(x)
        return self.a * x + self.b * math.log1p(abs(x))


def reference_kernel() -> float:
    """One fixed unit of mixed interpreter, formatting and numpy work."""
    rational = _Rational(0.3, 0.7)
    acc = 0.0
    for k in range(1500):
        acc += math.cos(rational.value(float(k) * 1e-3))
    text = ",".join(f"{acc * k:.17g}" for k in range(100))
    a = np.cos(_GRID * acc) * np.exp(-0.1 * _GRID)
    b = np.cumsum(a)
    c = np.sort(np.abs(b - b.mean()))
    return float(c[-1]) + len(text)


def time_probe() -> float:
    """Wall time of one reference kernel call, in ms."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1e3


def factor(before_ms: float, after_ms: float) -> float:
    """Normalisation factor of an operation bracketed by two probes."""
    return NOMINAL_PROBE_MS / (0.5 * (before_ms + after_ms))
