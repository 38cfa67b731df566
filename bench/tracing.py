"""Traced mode: spans around gcspiral's public functions, recorded from outside.

install() wraps every public function of the layer modules (profiles,
quadrature, synthesis, lcg, lddc, svg) and `cli.main`, and rebinds every
module attribute of the gcspiral package that refers to one, so a call
is seen whichever module it is reached through (`gcspiral.cli.synthesize`
as well as `gcspiral.synthesis.synthesize`). Nothing inside `src/` changes.

A span records name, start, end, parent span and operation index. The
per-point scalar functions (the profile methods theta/kappa/kappa_prime,
`lcg_gcs_closed_form` and `gradient_gcs`) run thousands of times per
operation, so they are kept as one aggregate per (parent span, name):
calls, total time and points evaluated. Self times are derived afterwards
from the spans: a span's duration less that of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("profiles", "quadrature", "synthesis", "lcg", "lddc", "svg")
PROFILE_CLASSES = ("ConstantProfile", "LinearProfile", "QuadraticProfile", "GcsProfile")
PROFILE_METHODS = ("theta", "kappa", "kappa_prime")
SCALAR_LCG = ("lcg.lcg_gcs_closed_form", "lcg.gradient_gcs")
SVG_WRITERS = ("svg.polyline_svg", "svg.bar_chart_svg")

# Layer metric -> the functions whose outermost calls it sums (inclusive time).
INCLUSIVE_MS = {
    "synthesis.synthesize_ms": ("synthesis.synthesize",),
    "synthesis.endpoint_ms": ("synthesis.endpoint",),
    "synthesis.csv_ms": ("synthesis.curve_to_csv",),
    "lcg.points_ms": ("lcg.lcg_gcs_points", "lcg.lcg_numeric"),
    "lcg.gradient_ms": (
        "lcg.gradient_gcs",
        "lcg.gradient_line",
        "lcg.line_residual",
        "lcg.classify_aesthetic",
    ),
    "lcg.sampled_ms": ("lcg.gradient_from_samples",),
    "lcg.csv_ms": ("lcg.lcg_points_to_csv", "lcg.gradient_to_csv"),
    "lddc.histogram_ms": ("lddc.lddc_histogram",),
    "lddc.compare_ms": ("lddc.lddc_vs_lcg",),
    "lddc.csv_ms": ("lddc.lddc_to_csv", "lddc.comparison_to_csv"),
    "svg.ms": SVG_WRITERS,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, op]
        self.leaves: dict = {}  # (parent, name) -> [calls, total_ns, points]
        self.svg_bytes: defaultdict = defaultdict(int)  # op -> bytes returned by SVG writers
        self._stack = [-1]
        self.op = -1

    # -- recording ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_bytes = name in SVG_WRITERS

        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [name, 0, 0, stack[-1], self.op]
            spans.append(record)
            stack.append(sid)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count_bytes:
                self.svg_bytes[self.op] += len(result)
            return result

        return wrapper

    def leaf(self, name: str, fn, counts_points: bool):
        leaves, stack, clock = self.leaves, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                key = (stack[-1], name)
                acc = leaves.get(key)
                if acc is None:
                    acc = leaves[key] = [0, 0, 0]
                acc[0] += 1
                acc[1] += elapsed
                if counts_points:
                    s = args[1] if len(args) > 1 else next(iter(kwargs.values()))
                    acc[2] += 1 if isinstance(s, float) else int(np.size(s))

        return wrapper

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self, op_factors: list[float]) -> dict[str, float]:
        """Per-operation means of every layer metric.

        Times are host-normalised with the factor of the operation they
        belong to, and reported in ms.
        """
        n_ops = len(op_factors)
        spans = self.spans
        names = [s[0] for s in spans]
        factor = [op_factors[s[4]] for s in spans]
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        leaf_items = list(self.leaves.items())
        for (parent, _), (_, total, _) in leaf_items:
            child_ns[parent] += total

        def ms(total_scaled_ns: float) -> float:
            return total_scaled_ns / n_ops / 1e6

        def self_ms(prefixes: tuple[str, ...]) -> float:
            return ms(sum(
                (s[2] - s[1] - child_ns[i]) * factor[i]
                for i, s in enumerate(spans)
                if names[i].startswith(prefixes)
            ))

        def inclusive_ms(group: tuple[str, ...]) -> float:
            # below[i]: span i or one of its ancestors is in the group.
            below = [False] * len(spans)
            total = 0.0
            for i, s in enumerate(spans):
                outer = s[3] >= 0 and below[s[3]]
                below[i] = outer or names[i] in group
                if names[i] in group and not outer:
                    total += (s[2] - s[1]) * factor[i]
            for (parent, name), (_, t, _) in leaf_items:
                if name in group and not below[parent]:
                    total += t * factor[parent]
            return ms(total)

        def leaf_sum(group: tuple[str, ...], field: int) -> float:
            return sum(acc[field] for (_, name), acc in leaf_items if name in group)

        theta_points = leaf_sum(("profiles.theta",), 2)
        quad_calls = sum(
            1
            for s in spans
            if s[0].startswith("quadrature.")
            and not (s[3] >= 0 and names[s[3]].startswith("quadrature."))
        )
        profile_ns = sum(
            t * factor[parent]
            for (parent, name), (_, t, _) in leaf_items
            if name.startswith("profiles.")
        )
        metrics = {
            "profiles.theta_points": theta_points / n_ops,
            "profiles.kappa_points": leaf_sum(("profiles.kappa",), 2) / n_ops,
            "profiles.self_ms": ms(profile_ns),
            "quadrature.calls": quad_calls / n_ops,
            "quadrature.points_per_call": theta_points / quad_calls if quad_calls else 0.0,
            "quadrature.self_ms": self_ms(("quadrature.",)),
            "synthesis.self_ms": self_ms(("synthesis.synthesize", "synthesis.endpoint")),
            "lcg.scalar_calls": leaf_sum(SCALAR_LCG, 0) / n_ops,
            "svg.bytes": sum(self.svg_bytes.values()) / n_ops,
            "cli.self_ms": self_ms(("cli.main",)),
        }
        for metric, group in INCLUSIVE_MS.items():
            metrics[metric] = inclusive_ms(group)
        return metrics

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op"]
        doc["spans"] = self.spans
        doc["leaf_fields"] = ["parent", "name", "calls", "total_ns", "points"]
        doc["leaves"] = [[p, n, *acc] for (p, n), acc in self.leaves.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(gs) -> Tracer:
    """Wrap gcspiral's public functions and profile methods; return the tracer."""
    tracer = Tracer()
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gcspiral.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.leaf(name, fn, False) if name in SCALAR_LCG else tracer.span(name, fn)
            wrappers[id(fn)] = (fn, wrapped)
    main = gs.cli.main
    wrappers[id(main)] = (main, tracer.span("cli.main", main))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "gcspiral" and not mod_name.startswith("gcspiral."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for cls_name in PROFILE_CLASSES:
        cls = getattr(gs.profiles, cls_name)
        for method in PROFILE_METHODS:
            setattr(cls, method, tracer.leaf(f"profiles.{method}", getattr(cls, method), True))
    return tracer
