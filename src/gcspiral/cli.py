"""Command-line front end: synth, lcg, gradient, classify, lddc, figures.

Exit codes: 0 on success, 2 for input or domain errors, 3 for quadrature
failures. Every command prints a one-line JSON summary to standard output;
data files land in --out (or $GCSPIRAL_OUT, or the working directory) once
the command has computed all of them, so a rejected run writes none.
A profile is one --<kind> flag per entry of PROFILE_KINDS, holding that
kind's document keys in order as comma-separated numbers, or a --profile
JSON document {"type": <kind>, <key>: <number>, ...}; either way
profile_from_dict reads it. Profile documents, SVG and JSON files and the
figures' s,kappa table belong here; every other CSV table's layout belongs
to its result's module: the curve to synthesis, LCG points and gradient
traces to lcg, histograms and comparisons to lddc.
gradient (without --sampled) and classify judge the closed-form gradient
line as exact, with a residual of 0; gradient reports as its residual the max
gap between its closed-form trace and that line on the grid, which is rounding
alone and does not enter the verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, QuadratureError
from .lcg import (
    _circular_error,
    _gradient_table,
    _lcg_table,
    classify_aesthetic,
    gradient_from_samples,
    gradient_gcs,
    gradient_line,
    lcg_gcs_points,
    lcg_gradient_numeric,
    lcg_numeric,
)
from .lddc import _comparison_table, _lddc_table, lddc_histogram, lddc_vs_lcg
from .profiles import (
    ConstantProfile,
    CurvatureProfile,
    GcsProfile,
    LinearProfile,
    QuadraticProfile,
    classify_degenerate,
    to_gcs,
)
from .svg import bar_chart_svg, polyline_svg
from .synthesis import Pose, QuadratureConfig, _curve_table, _sample_grid, endpoint, synthesize
from .tables import write_tables, write_text

__all__ = ["main", "entrypoint", "build_parser", "R_SWEEP"]
__all__ += ["PROFILE_KINDS", "profile_from_dict", "profile_from_json"]

OUT_ENV_VAR = "GCSPIRAL_OUT"
VALID_FORMATS = ("csv", "json", "svg")

# Shape-factor sweep used by the `figures` command, descending as plotted.
R_SWEEP = (100.0, 5.0, 2.0, 1.0, 0.0, -0.5, -0.9, -0.99)


# -- profile documents ---------------------------------------------------

# Document type -> (class, document keys in constructor order); also the --<kind> flags.
PROFILE_KINDS = {
    "gcs": (GcsProfile, ("kappa0", "kappa1", "arc_length", "r")),
    "constant": (ConstantProfile, ("kappa", "arc_length")),
    "linear": (LinearProfile, ("kappa0", "kappa1", "arc_length")),
    "quadratic": (QuadraticProfile, ("a", "kappa0", "kappa1", "arc_length")),
}


def profile_from_dict(data: dict) -> CurvatureProfile:
    if not isinstance(data, dict):
        raise DomainError(f"profile document must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in PROFILE_KINDS:
        raise DomainError(f"unknown profile type {kind!r}")
    cls, keys = PROFILE_KINDS[kind]
    missing = [key for key in keys if key not in data]
    if missing:
        raise DomainError(f"profile document missing field {missing[0]!r}")
    unknown = [key for key in data if key != "type" and key not in keys]
    if unknown:
        raise DomainError(f"profile document has unknown field {unknown[0]!r}")
    return cls(*(data[key] for key in keys))


def profile_from_json(text: str) -> CurvatureProfile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid profile JSON: {exc}") from None
    return profile_from_dict(data)


# -- argument plumbing ---------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcspiral",
        description=(
            "Synthesize planar curves from curvature profiles and interrogate "
            "them through logarithmic curvature graphs and histograms."
        ),
    )
    parser.add_argument(
        "--seed-check",
        action="store_true",
        help="run the built-in numerical self-checks and exit nonzero on failure",
    )
    sub = parser.add_subparsers(dest="command")
    defaults = QuadratureConfig()

    def add_profile_options(sp):
        for kind, (_cls, keys) in PROFILE_KINDS.items():
            sp.add_argument(f"--{kind}", help=f"{kind} profile as {','.join(keys)}")
        sp.add_argument("--profile", help="profile JSON document given inline or as a file path")

    def add_output_options(sp, prefix):
        sp.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or '.')")
        if prefix:
            sp.add_argument("--prefix", help="basename for output files")
        sp.add_argument(
            "--formats",
            default="csv,svg",
            help="comma-separated subset of csv,json,svg (default csv,svg)",
        )

    def add_command(name, run, help_text, profile=True, samples=True, quadrature=False):
        # Commands that take a profile name their files by --prefix; the
        # gallery's names are fixed. Only the commands that integrate
        # positions (synth, figures) read the quadrature tolerance.
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run)
        if profile:
            add_profile_options(sp)
        add_output_options(sp, prefix=profile)
        if quadrature:
            sp.add_argument("--abs-tol", type=float, default=defaults.abs_tol,
                            help="absolute error bound on x and y")
        if samples:
            sp.add_argument("--samples", type=int, default=defaults.samples_per_curve,
                            help="output samples per curve")
        return sp

    p_synth = add_command(
        "synth", cmd_synth, "synthesize a curve from a curvature profile", quadrature=True
    )
    p_synth.add_argument("--pose", default="0,0,0", help="start state as x0,y0,theta0")
    add_command("lcg", cmd_lcg, "logarithmic curvature graph of a profile")
    p_grad = add_command("gradient", cmd_gradient, "LCG gradient trace and fitted line")
    p_grad.add_argument(
        "--sampled",
        action="store_true",
        help="estimate by finite differences of the profile's curvature on the sample grid "
        "instead of closed form",
    )
    add_command(
        "classify", cmd_classify, "degenerate subfamily and aesthetic class", samples=False
    )
    p_lddc = add_command("lddc", cmd_lddc, "radius-of-curvature histogram over the sample grid")
    p_lddc.add_argument("--bins", type=int, default=16, help="number of histogram bins")
    p_lddc.add_argument(
        "--compare",
        action="store_true",
        help="also compare against the analytic radius-inversion prediction",
    )
    add_command(
        "figures",
        cmd_figures,
        "emit the standard gallery: demo curve plus profile/curve/LCG/gradient sweeps over r",
        profile=False,
        quadrature=True,
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses, built on its first call: each add_argument reads the terminal size."""
    return build_parser()


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise DomainError(f"{what} expects {count} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise DomainError(f"{what} holds a non-numeric field: {text!r}") from None


def profile_from_args(args) -> CurvatureProfile:
    """The profile of the one given --<kind> flag or --profile."""
    flags = [f"--{kind}" for kind in PROFILE_KINDS] + ["--profile"]
    given = [flag for flag in flags if getattr(args, flag[2:]) is not None]
    if len(given) != 1:
        raise DomainError(
            f"exactly one of {'/'.join(flags)} must be given"
            + (f"; got {', '.join(given)}" if given else "")
        )
    flag = given[0]
    if flag == "--profile":
        text = args.profile.strip()
        if not text.startswith("{"):
            try:
                with open(args.profile, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise DomainError(f"cannot read profile file {args.profile!r}: {exc}") from None
        return profile_from_json(text)
    kind = flag[2:]
    keys = PROFILE_KINDS[kind][1]
    numbers = _parse_floats(getattr(args, kind), len(keys), flag)
    return profile_from_dict({"type": kind, **dict(zip(keys, numbers))})


def _rational_linear(profile: CurvatureProfile, what: str) -> GcsProfile:
    """`profile` as a GcsProfile, or a DomainError saying that `what` needs one."""
    gcs = to_gcs(profile)
    if gcs is None:
        raise DomainError(f"{what} needs a rational-linear profile")
    return gcs


def _config_from_args(args) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=args.abs_tol, samples_per_curve=args.samples)


class _Artifacts:
    """The files one command writes: --out, --formats and the JSON summary.

    A command registers its tables and SVG documents of the wanted formats
    as it computes them, and `emit` writes them all. `base` names the JSON
    file (`<base>.json`).
    """

    def __init__(self, args, base: str):
        self.formats = {f.strip() for f in args.formats.split(",") if f.strip()}
        if not self.formats or not self.formats <= set(VALID_FORMATS):
            raise DomainError(
                f"--formats must be a nonempty subset of {','.join(VALID_FORMATS)}, "
                f"got {args.formats!r}"
            )
        self.out = args.out or os.environ.get(OUT_ENV_VAR) or "."
        self.base = base
        self.tables: list[tuple[str, str, object]] = []
        self.svgs: list[tuple[str, str]] = []

    def table(self, name: str, header: str, rows) -> None:
        """Register the CSV table out/name, if csv is wanted."""
        if "csv" in self.formats:
            self.tables.append((name, header, rows))

    def svg(self, name: str, render: Callable[..., str], *args, **options) -> None:
        """Register out/name as render(*args, **options), drawn now if svg is wanted."""
        if "svg" in self.formats:
            self.svgs.append((name, render(*args, **options)))

    def emit(self, summary: dict, json_doc: Optional[dict] = None) -> None:
        """Write the tables in one write_tables pass, then the SVGs, then
        `json_doc` (by default the summary listing those) as <base>.json if
        wanted, making --out if a file is written; then print the summary,
        listing every file written when there is one."""
        path = functools.partial(os.path.join, self.out)
        files = [path(name) for name, *_rest in self.tables + self.svgs]
        if "json" in self.formats:
            if json_doc is None:
                json_doc = dict(summary, files=sorted(files))
            files.append(path(f"{self.base}.json"))
        if files:
            os.makedirs(self.out, exist_ok=True)
            summary = dict(summary, files=sorted(files))
        write_tables([(path(name), header, rows) for name, header, rows in self.tables])
        for name, text in self.svgs:
            write_text(path(name), text)
        if "json" in self.formats:
            text = json.dumps(json_doc, sort_keys=True, indent=2) + "\n"
            write_text(path(f"{self.base}.json"), text)
        print(json.dumps(summary, sort_keys=True))


# -- commands ------------------------------------------------------------

def cmd_synth(args) -> int:
    profile = profile_from_args(args)
    pose = Pose(*_parse_floats(args.pose, 3, "--pose"))
    config = _config_from_args(args)
    out = _Artifacts(args, args.prefix or "curve")

    curve = synthesize(profile, pose, config)
    out.table(f"{out.base}.csv", *_curve_table(curve))
    xy = np.column_stack((curve.x, curve.y))
    out.svg(f"{out.base}.svg", polyline_svg, [xy], title=out.base)
    end = {"x": float(curve.x[-1]), "y": float(curve.y[-1]), "theta": float(curve.theta[-1])}
    out.emit({"endpoint": end, "arc_length": curve.total_length, "samples": len(curve)})
    return 0


def cmd_lcg(args) -> int:
    profile = profile_from_args(args)
    grid = _sample_grid(profile, args.samples)
    out = _Artifacts(args, args.prefix or "lcg")

    gcs = to_gcs(profile)
    if gcs is not None:
        points, skipped = lcg_gcs_points(gcs, grid)
    else:
        points, skipped = lcg_numeric(profile, grid)
    if not points:
        raise DomainError("the LCG is undefined at every grid value for this profile")

    header, rows = _lcg_table(points)
    out.table(f"{out.base}.csv", header, rows)
    out.svg(f"{out.base}.svg", polyline_svg, [rows[:, 1:]], title=out.base)
    skipped_doc = [{"t": sp.t, "reason": sp.reason} for sp in skipped]
    out.emit({"points": len(points), "skipped": skipped_doc})
    return 0


def cmd_gradient(args) -> int:
    profile = profile_from_args(args)
    grid = _sample_grid(profile, args.samples)
    out = _Artifacts(args, args.prefix or "gradient")

    if args.sampled:
        trace, line = gradient_from_samples((grid, profile.kappa(grid)))
        residual = line.residual
        aesthetic = classify_aesthetic(line, residual, tol_fit=1e-2)
    else:
        gcs = _rational_linear(profile, "gradient without --sampled")
        line = gradient_line(gcs)
        aesthetic = classify_aesthetic(line, line.residual)
        trace = np.column_stack((grid, gradient_gcs(gcs, grid)))
        residual = float(np.max(np.abs(trace[:, 1] - line(grid))))

    out.table(f"{out.base}.csv", *_gradient_table(trace))
    out.svg(f"{out.base}.svg", polyline_svg, [trace], title=out.base)
    values = (line.slope_a, line.intercept_b, list(line.domain), residual, aesthetic.value)
    line_doc = dict(zip(("A", "B", "domain", "residual", "class"), values))
    out.emit({"line": line_doc}, json_doc=line_doc)
    return 0


def cmd_classify(args) -> int:
    profile = profile_from_args(args)
    out = _Artifacts(args, args.prefix or "classify")
    gcs = _rational_linear(profile, "classify")
    verdict = {"degenerate": classify_degenerate(gcs).value}
    if gcs.circular:
        reason = str(_circular_error(gcs))
        verdict.update({"lcg_line": None, "class": "lcg_undefined", "reason": reason})
    else:
        line = gradient_line(gcs)
        aesthetic = classify_aesthetic(line, line.residual)
        lcg_line = {"A": line.slope_a, "B": line.intercept_b}
        verdict.update({"lcg_line": lcg_line, "class": aesthetic.value})
    out.emit(verdict, json_doc=verdict)
    return 0


def cmd_lddc(args) -> int:
    profile = profile_from_args(args)
    grid = _sample_grid(profile, args.samples)
    out = _Artifacts(args, args.prefix or "lddc")

    histogram = lddc_histogram((grid, profile.kappa(grid)), args.bins)
    out.table(f"{out.base}.csv", *_lddc_table(histogram))
    out.svg(f"{out.base}.svg", bar_chart_svg, histogram, caption="log10 rho / log10 length")
    summary = {
        "bins": histogram.num_bins,
        "total_length": histogram.total_length,
        "excluded_length": histogram.excluded_length,
    }
    if args.compare:
        gcs = _rational_linear(profile, "--compare")
        comparison = lddc_vs_lcg(histogram, gradient_line(gcs), gcs)
        out.table(f"{out.base}_compare.csv", *_comparison_table(comparison))
        summary["max_abs_deviation"] = comparison.max_abs_deviation
    out.emit(summary)
    return 0


def cmd_figures(args) -> int:
    config = _config_from_args(args)
    out = _Artifacts(args, "figures")

    demo = _curve_table(synthesize(LinearProfile(0.0, 2.0, 1.0), Pose(), config))
    out.table("fig1_curve.csv", *demo)
    profile_lines, curve_lines, lcg_lines, gradient_lines = [], [], [], []
    labels = [f"r={r:g}" for r in R_SWEEP]
    for r in R_SWEEP:
        profile = GcsProfile(0.0, 2.0, math.pi, r)
        try:
            curve = synthesize(profile, Pose(), config)
        except QuadratureError as exc:
            raise QuadratureError(f"curve synthesis failed at r={r:g}: {exc}") from None
        kappa_trace = np.column_stack((curve.s, curve.kappa))
        lcg = _lcg_table(lcg_gcs_points(profile, curve.s)[0])
        gradient = _gradient_table(np.column_stack((curve.s, gradient_gcs(profile, curve.s))))
        out.table(f"fig2_profile_r{r:g}.csv", "s,kappa", kappa_trace)
        out.table(f"fig3_curve_r{r:g}.csv", *_curve_table(curve))
        out.table(f"fig4_lcg_r{r:g}.csv", *lcg)
        out.table(f"fig5_gradient_r{r:g}.csv", *gradient)
        profile_lines.append(kappa_trace)
        curve_lines.append(np.column_stack((curve.x, curve.y)))
        lcg_lines.append(lcg[1][:, 1:])
        gradient_lines.append(gradient[1])

    for name, lines, title, line_labels in (
        ("fig1.svg", [demo[1][:, 1:3]], "linear curvature demo curve", None),
        ("fig2.svg", profile_lines, "curvature profiles over the r sweep", labels),
        ("fig3.svg", curve_lines, "curve traces over the r sweep", labels),
        ("fig4.svg", lcg_lines, "logarithmic curvature graphs over the r sweep", labels),
        ("fig5.svg", gradient_lines, "LCG gradients over the r sweep", labels),
    ):
        out.svg(name, polyline_svg, lines, labels=line_labels, title=title)
    out.emit({"csv_count": len(out.tables), "r_values": list(R_SWEEP)})
    return 0


# -- built-in self-checks ------------------------------------------------

def run_seed_check() -> int:
    """Quick oracle suite: circle endpoint, gradient-line identity, FD gradient."""
    checks: dict[str, bool] = {}

    c, s_total = 1.3, 2.0
    circle = ConstantProfile(c, s_total)
    end = endpoint(circle)
    expect = (math.sin(c * s_total) / c, (1.0 - math.cos(c * s_total)) / c)
    checks["circle_endpoint"] = (
        abs(end.x - expect[0]) <= 1e-9 and abs(end.y - expect[1]) <= 1e-9
    )

    ok = True
    for k0, k1, s_len, r in ((0.0, 2.0, math.pi, 1.0), (0.5, -2.0, 3.0, 4.0), (2.0, 0.3, 1.5, -0.7)):
        profile = GcsProfile(k0, k1, s_len, r)
        grid = np.linspace(0.0, s_len, 17)
        value = gradient_gcs(profile, grid)
        deviation = np.abs(value - gradient_line(profile)(grid))
        ok &= bool(np.all(deviation <= 1e-10 * np.maximum(1.0, np.abs(value))))
    checks["gradient_line_identity"] = ok

    profile = GcsProfile(0.1, 2.0, math.pi, 2.0)
    h = 1e-5 * profile.arc_length
    t = np.linspace(0.2, profile.arc_length - 0.2, 9)
    lo = _lcg_table(lcg_gcs_points(profile, t - h)[0])[1]
    hi = _lcg_table(lcg_gcs_points(profile, t + h)[0])[1]
    fd = (hi[:, 2] - lo[:, 2]) / (hi[:, 1] - lo[:, 1])
    exact = lcg_gradient_numeric(profile, t)
    checks["finite_difference_gradient"] = bool(np.all(np.abs(fd - exact) <= 1e-6))

    passed = all(checks.values())
    print(json.dumps({"checks": checks, "ok": passed}, sort_keys=True))
    return 0 if passed else 1


# -- entry ---------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code  # 2 for a usage error, 0 after --help
    try:
        if args.seed_check:
            return run_seed_check()
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a command is required (or --seed-check)", file=sys.stderr)
            return 2
        return args.run(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
