"""Benchmark command: one workload in this fresh process, as a closed loop.

    python3 bench/run.py --workload synth-stiff --seed 1 --seconds 20 --trace 0

One caller in one thread runs the workload's operations back to back in
whole passes over its input set until --seconds have gone by. Every
operation's output is checked against the oracle module. The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the layer
metrics with --trace 1. The line before it carries the raw (not
host-normalised) figures for reference. See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import probe  # noqa: E402  (imports numpy, before the timed gcspiral import)
import workloads  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = ROOT / ".bench_out"


class Record(NamedTuple):
    """One timed operation."""

    factor: float  # host normalisation, from the probes around the operation
    raw_ms: float
    probe_ms: float
    failed: bool
    files: int = 0  # files and bytes the operation left in its output directory
    bytes_written: int = 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs and checks operations; keeps times, probes and outcomes."""

    def __init__(self):
        self.correct = True
        self.problems: list[str] = []

    def run_op(self, op, tracer=None, index=0) -> Record:
        if op.out_dir:
            workloads.reset_dir(op.out_dir)
        before = probe.time_probe()
        if tracer:
            tracer.begin_op(index)
        error = None
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # an operation that raises is a failed one
            error = traceback.format_exc()
        elapsed = (time.perf_counter() - t0) * 1e3
        if tracer:
            tracer.end_op()
        factor = probe.factor(before, probe.time_probe())
        usage = workloads.dir_usage(op.out_dir) if op.out_dir else (0, 0)
        if error is not None:
            self.correct = False
            self._report(op, error.strip().splitlines()[-1])
            return Record(factor, elapsed, before, True, *usage)
        try:
            missed = op.check(result)
        except Exception:  # output too malformed to compare
            missed = ["check raised " + traceback.format_exc().strip().splitlines()[-1]]
        if missed and missed != [op.known_fault]:
            self.correct = False
            self._report(op, ", ".join(missed))
        return Record(factor, elapsed, before, bool(missed), *usage)

    def _report(self, op, what: str) -> None:
        line = f"{op.label}: {what}"
        if line not in self.problems:
            self.problems.append(line)
            print(f"check missed: {line}", file=sys.stderr)

    def passes(self, ops, seconds: float, tracer=None) -> list[Record]:
        """Whole passes over ops until `seconds` have elapsed (at least one)."""
        records = []
        start = time.perf_counter()
        while True:
            for op in ops:
                records.append(self.run_op(op, tracer, len(records)))
            if time.perf_counter() - start >= seconds:
                return records


def _summary(records: list[Record], n_inputs: int) -> dict:
    """Host-normalised figures of whole passes over n_inputs operations.

    ops_per_s is a mean rate over the input set: one over the mean of the
    per-input median times, so a slowdown of the costliest inputs shows,
    while an operation disturbed by the host in one pass does not.
    """
    factors = [r.factor for r in records]
    raw = [r.raw_ms for r in records]
    norm = [t * f for t, f in zip(raw, factors)]

    def rate(times):
        per_input = [statistics.median(times[i::n_inputs]) for i in range(n_inputs)]
        return 1e3 * n_inputs / sum(per_input)

    return {
        "norm": norm,
        "factors": factors,
        "probe_ms": statistics.median(r.probe_ms for r in records),
        "op_ms_p50": statistics.median(norm),
        "ops_per_s": rate(norm),
        "raw_op_ms_p50": statistics.median(raw),
        "raw_ops_per_s": rate(raw),
    }


def _by_label(ops, norm: list[float]) -> dict:
    """Median normalised time of each input across passes."""
    groups: dict[str, list[float]] = {}
    for i, t in enumerate(norm):
        groups.setdefault(ops[i % len(ops)].label, []).append(t)
    return {label: round(statistics.median(ts), 3) for label, ts in groups.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "gcspiral"
    if not (package / "__init__.py").is_file():
        print(f"gcspiral sources not found at {package}", file=sys.stderr)
        return 1
    # Bytecode first, so the timed import reads it as an installed package would.
    compileall.compile_dir(str(package), quiet=2)
    sys.path.insert(0, str(ROOT / "src"))
    for _ in range(20):
        probe.time_probe()

    before = probe.time_probe()
    t0 = time.perf_counter()
    import gcspiral.cli as _  # noqa: F401
    import_ms = (time.perf_counter() - t0) * 1e3
    import_ms *= probe.factor(before, probe.time_probe())
    gs = sys.modules["gcspiral"]
    if Path(gs.__file__).resolve().parent != package.resolve():
        print(f"imported gcspiral from {gs.__file__}, not {package}", file=sys.stderr)
        return 1

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    runner = Runner()
    gallery: dict[str, str] = {}
    try:
        # Set-up: build the inputs and run one untimed pass, several times.
        # Its time is the import, plus the median build, plus the median
        # time of each warm-up operation across the repeats.
        builds, warm = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workloads.build(args.workload, gs, args.seed, str(work_dir), gallery)
            build_ms = (time.perf_counter() - t0) * 1e3
            summary = _summary([runner.run_op(op) for op in ops], len(ops))
            builds.append(build_ms * statistics.median(summary["factors"]))
            warm.append(summary["norm"])
        setup_ms = import_ms + statistics.median(builds) + sum(
            statistics.median(times) for times in zip(*warm))
        setup_s = setup_ms / 1e3

        if args.trace:
            return _traced(args, runner, ops, import_ms)

        records = runner.passes(ops, args.seconds)
        summary = _summary(records, len(ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_ms_p50": summary["op_ms_p50"],
            "ops_per_s": summary["ops_per_s"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        raw = {
            "passes": len(records) // len(ops),
            "probe_ms_p50": summary["probe_ms"],
            "raw_op_ms_p50": summary["raw_op_ms_p50"],
            "raw_ops_per_s": summary["raw_ops_per_s"],
            "import_ms": import_ms,
            "op_ms_p50_by_input": _by_label(ops, summary["norm"]),
        }
        print(json.dumps({"reference": raw}))
        _emit(runner, records, metrics, "end_to_end")
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _traced(args, runner: Runner, ops, import_ms: float) -> int:
    """Untraced passes for half the time, then traced passes; layer metrics."""
    import tracing

    untraced = runner.passes(ops, args.seconds / 2)
    tracer = tracing.install(sys.modules["gcspiral"])
    traced = runner.passes(ops, args.seconds / 2, tracer)
    plain, summary = _summary(untraced, len(ops)), _summary(traced, len(ops))
    metrics = tracer.layer_metrics(summary["factors"])
    metrics["cli.files"] = statistics.fmean(r.files for r in traced)
    metrics["cli.bytes_written"] = statistics.fmean(r.bytes_written for r in traced)
    metrics["cli.import_ms"] = import_ms
    metrics["host.probe_ms"] = summary["probe_ms"]
    metrics["trace.overhead_ms"] = summary["op_ms_p50"] - plain["op_ms_p50"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(str(path), {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [{"label": ops[i % len(ops)].label, "raw_ms": r.raw_ms, "factor": r.factor}
                for i, r in enumerate(traced)],
        "metrics": metrics,
    })
    print(json.dumps({"reference": {"trace_file": str(path.relative_to(ROOT)),
                                    "untraced_op_ms_p50": plain["op_ms_p50"],
                                    "traced_op_ms_p50": summary["op_ms_p50"]}}))
    _emit(runner, traced, metrics, "per_layer")
    return 0


def _emit(runner: Runner, records: list[Record], metrics: dict, kind: str) -> None:
    """Print the result line: every metric BENCHMARK.json lists under `kind`."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
