"""The three workloads: their operations and the checks on each result.

An operation's `run` calls gcspiral and returns what it produced; its
`check` compares that against the oracle module or against properties
the method must have, and returns the names of the checks that missed.
Every gcspiral name is looked up on its module at call time, so the
traced run sees the calls through the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import shutil
from typing import Any, Callable, Optional

import numpy as np

import inputs
import oracle
from oracle import Gcs

WORKLOADS = ("synth-stiff", "interrogate", "cli-session")

# Name of the check that misses on profiles with an inflection because of
# the sampled-gradient fault; such a miss counts the operation as failed.
SAMPLED_GRADIENT = "sampled_gradient"

ABS_TOL = 1e-10  # gcspiral's default QuadratureConfig.abs_tol
LDDC_BINS = 16
SAMPLED_LINE_TOL = 1e-3  # |dA|*S + |dB| for the finite-difference fit
SAMPLED_FIT_TOL = 1e-2  # residual bound the CLI's `gradient --sampled` applies
CLI_R_SWEEP = (100.0, 5.0, 2.0, 1.0, 0.0, -0.5, -0.9, -0.99)  # the `figures` sweep


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    known_fault: Optional[str] = None
    out_dir: Optional[str] = None  # emptied before each run; scanned after


def _close(actual, expected, tol) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(np.all(np.abs(actual - expected) <= tol))


def _rel(values) -> float:
    """1 or the largest magnitude in values, for relative tolerances."""
    return max(1.0, float(np.max(np.abs(values))))


def _failed(checks: dict[str, bool]) -> list[str]:
    return [name for name, ok in checks.items() if not ok]


class _Expected:
    """Oracle values of one profile, computed on first use (outside any timing)."""

    def __init__(self, p: Gcs):
        self.p = p
        self._curves: dict[int, tuple] = {}

    def curve(self, n: int):
        if n not in self._curves:
            s, x, y = oracle.curve(self.p, n)
            self._curves[n] = (s, x, y, oracle.theta(self.p, s), oracle.kappa(self.p, s))
        return self._curves[n]


def _curve_checks(exp: _Expected, s, x, y, theta=None, kappa=None) -> dict[str, bool]:
    es, ex, ey, eth, ek = exp.curve(len(s))
    checks = {
        "curve_s": _close(s, es, 1e-12 * exp.p.S),
        "curve_xy": _close(x, ex, ABS_TOL) and _close(y, ey, ABS_TOL),
    }
    if theta is not None:
        checks["curve_theta"] = _close(theta, eth, 1e-12 * _rel(eth))
    if kappa is not None:
        checks["curve_kappa"] = _close(kappa, ek, 1e-12 * _rel(ek))
    return checks


def _lcg_checks(p: Gcs, t, log_rho, log_freq, n_grid: int) -> dict[str, bool]:
    """Kept points match the oracle; only points at the inflection are left out."""
    t = np.asarray(t, dtype=float)
    grid = np.linspace(0.0, p.S, n_grid)
    scale = max(abs(p.k0), abs(p.k1), 1.0 / p.S)
    kept = np.isin(grid, t)
    e_rho, e_freq = oracle.lcg(p, t)
    return {
        "lcg_grid": len(t) == int(np.count_nonzero(kept)),
        "lcg_skipped_at_inflection": bool(
            np.all(np.abs(oracle.kappa(p, grid[~kept])) <= 1e-9 * scale)
        ),
        "lcg_values": _close(log_rho, e_rho, 1e-9 * _rel(e_rho))
        and _close(log_freq, e_freq, 1e-9 * _rel(e_freq)),
    }


def _line_close(p: Gcs, a: float, b: float, tol: float) -> bool:
    ea, eb = oracle.gradient_line(p)
    return abs(a - ea) * p.S + abs(b - eb) <= tol * max(1.0, abs(ea) * p.S, abs(eb))


# -- synth-stiff ----------------------------------------------------------


def _stiff_ops(gs, seed: int) -> list[Op]:
    config = gs.QuadratureConfig(samples_per_curve=inputs.STIFF_SAMPLES)
    ops = []
    for i, p in enumerate(inputs.stiff_profiles(seed)):
        profile = gs.GcsProfile(*p.args)
        exp = _Expected(p)

        def run(profile=profile):
            curve = gs.synthesize(profile, config=config)
            simpson = gs.endpoint(profile, config=config, scheme="simpson")
            gauss = gs.endpoint(profile, config=config, scheme="gauss")
            return curve, simpson, gauss

        def check(result, exp=exp):
            curve, simpson, gauss = result
            checks = _curve_checks(exp, curve.s, curve.x, curve.y, curve.theta, curve.kappa)
            _, ex, ey, eth, _ = exp.curve(inputs.STIFF_SAMPLES)
            for name, end in (("simpson", simpson), ("gauss", gauss)):
                checks[f"endpoint_{name}"] = (
                    abs(end.x - ex[-1]) <= ABS_TOL
                    and abs(end.y - ey[-1]) <= ABS_TOL
                    and abs(end.theta - eth[-1]) <= 1e-12 * _rel(eth)
                )
            return _failed(checks)

        ops.append(Op(f"synth[{i}]", run, check))
    return ops


# -- interrogate ----------------------------------------------------------


def _interrogate_ops(gs, seed: int) -> list[Op]:
    n = inputs.INTERROGATE_SAMPLES
    config = gs.QuadratureConfig(samples_per_curve=n)
    ops = []
    for i, p in enumerate(inputs.interrogate_profiles(seed)):
        profile = gs.GcsProfile(*p.args)
        curve = gs.synthesize(profile, config=config)
        grid = curve.s
        exp = _Expected(p)

        def run(profile=profile, curve=curve, grid=grid):
            points, skipped = gs.lcg_gcs_points(profile, grid)
            trace = [(t, gs.gradient_gcs(profile, t)) for t in grid.tolist()]
            line = gs.gradient_line(profile)
            residual = gs.line_residual(profile, line, num=n)
            line = dataclasses.replace(line, residual=residual)
            aesthetic = gs.classify_aesthetic(line, residual, tol_fit=1e-6)
            degenerate = gs.classify_degenerate(profile)
            _, sampled = gs.gradient_from_samples(curve)
            sampled_class = gs.classify_aesthetic(sampled, sampled.residual, tol_fit=SAMPLED_FIT_TOL)
            histogram = gs.lddc_histogram(curve, LDDC_BINS)
            comparison = gs.lddc_vs_lcg(histogram, line, profile)
            texts = {}
            for key, write, obj in (
                ("lcg", gs.lcg_points_to_csv, points),
                ("gradient", gs.gradient_to_csv, trace),
                ("lddc", gs.lddc_to_csv, histogram),
                ("compare", gs.comparison_to_csv, comparison),
            ):
                buf = io.StringIO()
                write(obj, buf)
                texts[key] = buf.getvalue()
            texts["svg"] = gs.svg.polyline_svg([[(q.log_rho, q.log_freq) for q in points]], title="lcg")
            return (points, skipped, trace, line, aesthetic, degenerate, sampled, sampled_class,
                    histogram, comparison, texts)

        def check(result, p=p, exp=exp, curve=curve):
            (points, skipped, trace, line, aesthetic, degenerate, sampled, sampled_class,
             histogram, comparison, texts) = result
            t = [q.t for q in points]
            checks = _curve_checks(exp, curve.s, curve.x, curve.y, curve.theta, curve.kappa)
            checks.update(_lcg_checks(p, t, [q.log_rho for q in points], [q.log_freq for q in points], n))
            checks["lcg_point_count"] = len(points) + len(skipped) == n
            tr = np.asarray(trace)
            e_grad = oracle.gradient(p, tr[:, 0])
            checks["gradient_trace"] = _close(tr[:, 0], curve.s, 0.0) and _close(
                tr[:, 1], e_grad, 1e-9 * _rel(e_grad)
            )
            checks["gradient_line"] = _line_close(p, line.slope_a, line.intercept_b, 1e-9)
            checks["line_residual"] = line.residual <= 1e-9 * _rel(e_grad)
            checks["aesthetic_class"] = aesthetic.value == oracle.aesthetic_class(p)
            checks["degenerate_class"] = degenerate.value == oracle.degenerate_class(p)
            checks[SAMPLED_GRADIENT] = (
                _line_close(p, sampled.slope_a, sampled.intercept_b, SAMPLED_LINE_TOL)
                and sampled_class.value == oracle.aesthetic_class(p)
            )
            h = p.S / (n - 1)
            checks["lddc_conservation"] = (
                abs(float(np.sum(histogram.lengths)) + histogram.excluded_length - p.S) <= 1e-9 * p.S
            )
            checks["lddc_deviation"] = comparison.max_abs_deviation <= 2.0 * h
            checks["lcg_csv"] = _close(_parse_csv(texts["lcg"], "t,log_rho,log_freq"),
                                       [[q.t, q.log_rho, q.log_freq] for q in points], 0.0)
            checks["gradient_csv"] = _close(_parse_csv(texts["gradient"], "s,gradient"), trace, 0.0)
            lddc_rows = _parse_csv(texts["lddc"], "bin_lo_log10rho,bin_hi_log10rho,length")
            checks["lddc_csv"] = _close(lddc_rows[:, 2], histogram.lengths, 0.0)
            compare_rows = _parse_csv(
                texts["compare"], "bin_lo_log10rho,bin_hi_log10rho,measured_length,predicted_length"
            )
            checks["compare_csv"] = _close(compare_rows[:, 3], comparison.predicted, 0.0)
            checks["svg"] = _svg_ok(texts["svg"])
            return _failed(checks)

        known = SAMPLED_GRADIENT if oracle.inflection(p) is not None else None
        ops.append(Op(f"interrogate[{i}]", run, check, known_fault=known))
    return ops


def _parse_csv(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return np.empty((0, header.count(",") + 1))
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float).reshape(
        len(lines) - 1, header.count(",") + 1
    )


def _svg_ok(text: str) -> bool:
    return (
        text.startswith('<?xml version="1.0"')
        and text.endswith("</svg>\n")
        and "<polyline points=" in text
    )


# -- cli-session ----------------------------------------------------------


def _read_csv(path: str, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return _parse_csv(fh.read(), header)


def _cli_ops(gs, seed: int, work_dir: str, gallery: dict[str, str]) -> list[Op]:
    sweep = [_Expected(Gcs(0.0, 2.0, math.pi, r)) for r in CLI_R_SWEEP]
    script: list[tuple[str, Any, list[str]]] = [("figures", sweep, ["figures"])]
    for p in inputs.cli_profiles(seed):
        gcs, exp = p.cli_arg(), _Expected(p)
        script += [
            ("synth", exp, ["synth", gcs, "--samples", "4096"]),
            ("lddc", exp, ["lddc", gcs, "--samples", "4096", "--compare"]),
            ("gradient", exp, ["gradient", gcs, "--sampled", "--samples", "2000"]),
            ("lcg", exp, ["lcg", gcs]),
            ("classify", exp, ["classify", gcs]),
        ]
    ops = []
    for i, (command, exp, argv) in enumerate(script):
        out = os.path.join(work_dir, f"op{i:02d}")
        argv = argv + ["--out", out]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = gs.cli.main(argv)
            return code, buf.getvalue()

        checker = _CLI_CHECKS[command]
        if command == "figures":
            checker = functools.partial(checker, gallery=gallery)

        def check(result, out=out, checker=checker, exp=exp):
            code, stdout = result
            lines = stdout.splitlines()
            if code != 0 or len(lines) != 1:
                return ["exit_and_summary"]
            return _failed(checker(out, json.loads(lines[0]), exp))

        ops.append(Op(f"cli:{command}", run, check, out_dir=out))
    return ops


def _check_figures(
    out: str, summary: dict, sweep: list[_Expected], gallery: dict[str, str]
) -> dict[str, bool]:
    names = sorted(os.listdir(out))
    checks = {
        "figures_files": sum(n.endswith(".csv") for n in names) == 33
        and sum(n.endswith(".svg") for n in names) == 5
        and len(names) == 38
        and summary.get("csv_count") == 33,
    }
    if not checks["figures_files"]:
        return checks
    ok2 = ok3 = ok4 = ok5 = True
    for exp in sweep:
        p = exp.p
        tag = f"{p.r:g}"
        rows = _read_csv(os.path.join(out, f"fig2_profile_r{tag}.csv"), "s,kappa")
        e_k = oracle.kappa(p, rows[:, 0])
        ok2 &= len(rows) == 256 and _close(rows[:, 1], e_k, 1e-12 * _rel(e_k))
        rows = _read_csv(os.path.join(out, f"fig3_curve_r{tag}.csv"), "s,x,y,theta,kappa")
        ok3 &= len(rows) == 256 and all(
            _curve_checks(exp, rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]).values()
        )
        rows = _read_csv(os.path.join(out, f"fig4_lcg_r{tag}.csv"), "t,log_rho,log_freq")
        ok4 &= all(_lcg_checks(p, rows[:, 0], rows[:, 1], rows[:, 2], 256).values())
        rows = _read_csv(os.path.join(out, f"fig5_gradient_r{tag}.csv"), "s,gradient")
        e_g = oracle.gradient(p, rows[:, 0])
        ok5 &= len(rows) == 256 and _close(rows[:, 1], e_g, 1e-9 * _rel(e_g))
    checks.update(fig2_profiles=ok2, fig3_curves=ok3, fig4_lcg=ok4, fig5_gradient=ok5)
    digests = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    if not gallery:
        gallery.update(digests)
    checks["figures_byte_identical"] = digests == gallery
    return checks


def _files(out: str, *names: str) -> bool:
    return sorted(os.listdir(out)) == sorted(names)


def _check_synth(out: str, summary: dict, exp: _Expected) -> dict[str, bool]:
    p = exp.p
    if not _files(out, "curve.csv", "curve.svg"):
        return {"synth_files": False}
    rows = _read_csv(os.path.join(out, "curve.csv"), "s,x,y,theta,kappa")
    checks = _curve_checks(exp, rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4])
    _, ex, ey, _, _ = exp.curve(4096)
    end = summary["endpoint"]
    checks["synth_summary"] = (
        summary["samples"] == 4096
        and abs(end["x"] - ex[-1]) <= ABS_TOL
        and abs(end["y"] - ey[-1]) <= ABS_TOL
    )
    with open(os.path.join(out, "curve.svg"), encoding="utf-8") as fh:
        checks["svg"] = _svg_ok(fh.read())
    return checks


def _check_lddc(out: str, summary: dict, exp: _Expected) -> dict[str, bool]:
    p = exp.p
    if not _files(out, "lddc.csv", "lddc.svg", "lddc_compare.csv"):
        return {"lddc_files": False}
    rows = _read_csv(os.path.join(out, "lddc.csv"), "bin_lo_log10rho,bin_hi_log10rho,length")
    h = p.S / (4096 - 1)
    return {
        "lddc_bins": len(rows) == LDDC_BINS,
        "lddc_conservation": abs(float(np.sum(rows[:, 2])) + summary["excluded_length"] - p.S)
        <= 1e-9 * p.S,
        "lddc_deviation": summary["max_abs_deviation"] <= 2.0 * h,
    }


def _check_gradient(out: str, summary: dict, exp: _Expected) -> dict[str, bool]:
    p = exp.p
    if not _files(out, "gradient.csv", "gradient.svg"):
        return {"gradient_files": False}
    line = summary["line"]
    rows = _read_csv(os.path.join(out, "gradient.csv"), "s,gradient")
    return {
        SAMPLED_GRADIENT: _line_close(p, line["A"], line["B"], SAMPLED_LINE_TOL)
        and line["class"] == oracle.aesthetic_class(p),
        "gradient_trace_rows": len(rows) == 2000,
    }


def _check_lcg(out: str, summary: dict, exp: _Expected) -> dict[str, bool]:
    p = exp.p
    if not _files(out, "lcg.csv", "lcg.svg"):
        return {"lcg_files": False}
    rows = _read_csv(os.path.join(out, "lcg.csv"), "t,log_rho,log_freq")
    checks = _lcg_checks(p, rows[:, 0], rows[:, 1], rows[:, 2], 256)
    checks["lcg_summary"] = summary["points"] == len(rows)
    return checks


def _check_classify(out: str, summary: dict, exp: _Expected) -> dict[str, bool]:
    p = exp.p
    line = summary["lcg_line"] or {"A": math.nan, "B": math.nan}
    return {
        "classify_files": not os.listdir(out),
        "degenerate_class": summary["degenerate"] == oracle.degenerate_class(p),
        "gradient_line": _line_close(p, line["A"], line["B"], 1e-9),
        "aesthetic_class": summary["class"] == oracle.aesthetic_class(p),
    }


_CLI_CHECKS = {
    "figures": _check_figures,
    "synth": _check_synth,
    "lddc": _check_lddc,
    "gradient": _check_gradient,
    "lcg": _check_lcg,
    "classify": _check_classify,
}


def build(workload: str, gs, seed: int, work_dir: str, gallery: dict[str, str]) -> list[Op]:
    """Operations of one pass over the workload's input set.

    `gallery` keeps the file digests of the first `figures` run, so every
    later run in the process must write the same bytes.
    """
    if workload == "synth-stiff":
        return _stiff_ops(gs, seed)
    if workload == "interrogate":
        return _interrogate_ops(gs, seed)
    return _cli_ops(gs, seed, work_dir, gallery)


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def dir_usage(path: str) -> tuple[int, int]:
    """Files and bytes under path."""
    files = size = 0
    for entry in os.scandir(path):
        files += 1
        size += entry.stat().st_size
    return files, size
