"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Random draws are seeded so every run exercises identical inputs.
"""

import contextlib
import json
import math
import time

import numpy as np

from gcspiral import (
    ConstantProfile,
    GcsProfile,
    LinearProfile,
    QuadratureConfig,
    endpoint,
    gradient_from_samples,
    gradient_gcs,
    gradient_line,
    inflection,
    lcg_gradient_numeric,
    lcg_numeric,
    lddc_histogram,
    lddc_vs_lcg,
    synthesize,
)
from gcspiral.cli import main as cli_main
from tutil import FIG_SWEEP_R, fig_sweep_profiles, lcg_point, random_gcs

RNG_SEED = 20260814

# Independently computed with 40-digit arithmetic.
COS_T2_01 = 0.90452423790027208147
SIN_T2_01 = 0.31026830172338110181


@contextlib.contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number:02d}: FAIL - {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:02d}: PASS - {label}", flush=True)


def test_criterion_01_endpoint_curvature_interpolation(capsys):
    with criterion(capsys, 1, "curvature interpolates its endpoint values"):
        rng = np.random.default_rng(RNG_SEED)
        start = time.perf_counter()
        for _ in range(1000):
            p = random_gcs(rng)
            assert abs(p.kappa(0.0) - p.kappa0) <= 1e-12 * max(1.0, abs(p.kappa0))
            assert abs(p.kappa(p.arc_length) - p.kappa1) <= 1e-12 * max(1.0, abs(p.kappa1))
        assert time.perf_counter() - start < 1.0


def test_criterion_02_gradient_linear_in_arc_length(capsys):
    with criterion(capsys, 2, "LCG gradient is a linear function of arc length"):
        rng = np.random.default_rng(RNG_SEED)
        start = time.perf_counter()
        for _ in range(200):
            p = random_gcs(rng, min_kappa_gap=0.1)
            line = gradient_line(p)
            for t in np.linspace(0.0, p.arc_length, 50).tolist():
                g = gradient_gcs(p, t)
                assert abs(g - line(t)) <= 1e-10 * max(1.0, abs(g))
        assert time.perf_counter() - start < 1.0


def test_criterion_03_constant_gradient_families(capsys):
    with criterion(capsys, 3, "zero shape factor gives gradient -1, reciprocal-linear gives +1"):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            base = random_gcs(rng, min_kappa_gap=0.1)
            p = GcsProfile(base.kappa0, base.kappa1, base.arc_length, 0.0)
            for t in np.linspace(0.0, p.arc_length, 17).tolist():
                assert abs(gradient_gcs(p, t) - (-1.0)) <= 1e-12
        # kappa0 = kappa1*(1+r) with exactly representable products zeroes
        # the curvature numerator's slope coefficient.
        for k1, r in ((1.5, 2.0), (-2.25, 0.5), (0.75, 3.0), (4.0, 0.25)):
            p = GcsProfile(k1 * (1.0 + r), k1, 2.0, r)
            assert p.n1 == 0.0
            for t in np.linspace(0.0, p.arc_length, 17).tolist():
                assert abs(gradient_gcs(p, t) - 1.0) <= 1e-12


def test_criterion_04_sign_structure_zero_start_curvature(capsys):
    with criterion(capsys, 4, "gradient-line slope sign tracks the shape factor, intercept -1"):
        for r in FIG_SWEEP_R:
            line = gradient_line(GcsProfile(0.0, 2.0, math.pi, r))
            assert abs(line.intercept_b - (-1.0)) <= 1e-12, f"r={r}"
            if r > 0.0:
                assert line.slope_a < -1e-12, f"r={r}"
            elif r == 0.0:
                assert abs(line.slope_a) <= 1e-12
            else:
                assert line.slope_a > 1e-12, f"r={r}"


def test_criterion_05_curvature_ordering_across_sweep(capsys):
    with criterion(capsys, 5, "interior curvature strictly increases with the shape factor"):
        profiles = [GcsProfile(0.0, 2.0, math.pi, r) for r in sorted(FIG_SWEEP_R)]
        for s in (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
            values = [p.kappa(s) for p in profiles]
            for lo, hi in zip(values, values[1:]):
                assert lo < hi, f"s={s}"


def test_criterion_06_numeric_analytic_agreement(capsys):
    with criterion(capsys, 6, "numeric route reproduces the closed forms"):
        rng = np.random.default_rng(RNG_SEED)
        drawn = 0
        while drawn < 100:
            p = random_gcs(rng, min_kappa_gap=0.1)
            t = float(rng.uniform(0.0, p.arc_length))
            s_star = inflection(p)
            if s_star is not None and abs(t - s_star) < 1e-3 * p.arc_length:
                continue
            drawn += 1
            exact = lcg_point(p, t)
            points, skipped = lcg_numeric(p, [t])
            assert skipped == []
            assert abs(points[0].log_rho - exact.log_rho) <= 1e-10 * max(1.0, abs(exact.log_rho))
            assert abs(points[0].log_freq - exact.log_freq) <= 1e-10 * max(1.0, abs(exact.log_freq))
            g_exact = gradient_gcs(p, t)
            g_numeric = lcg_gradient_numeric(p, t)
            assert abs(g_numeric - g_exact) <= 1e-10 * max(1.0, abs(g_exact))
        drawn = 0
        while drawn < 20:
            p = random_gcs(rng, min_kappa_gap=0.5)
            t = float(rng.uniform(0.15 * p.arc_length, 0.85 * p.arc_length))
            s_star = inflection(p)
            if s_star is not None and abs(t - s_star) < 0.1 * p.arc_length:
                continue
            drawn += 1
            h = 1e-5 * p.arc_length
            hi = lcg_point(p, t + h)
            lo = lcg_point(p, t - h)
            fd = (hi.log_freq - lo.log_freq) / (hi.log_rho - lo.log_rho)
            assert abs(fd - gradient_gcs(p, t)) <= 1e-6


def test_criterion_07_synthesis_oracles(capsys):
    with criterion(capsys, 7, "synthesis endpoint oracles and scheme independence"):
        start = time.perf_counter()
        for c, s_total in ((1.0, math.pi), (1.3, 2.0), (-0.7, 5.0)):
            end = endpoint(ConstantProfile(c, s_total))
            assert abs(end.x - math.sin(c * s_total) / c) <= 1e-10
            assert abs(end.y - (1.0 - math.cos(c * s_total)) / c) <= 1e-10
        for length in (1.0, 7.5):
            end = endpoint(ConstantProfile(0.0, length))
            assert abs(end.x - length) <= 1e-14
            assert abs(end.y) <= 1e-14
        end = endpoint(LinearProfile(0.0, 2.0, 1.0))
        assert abs(end.x - COS_T2_01) <= 1e-8
        assert abs(end.y - SIN_T2_01) <= 1e-8
        for p in fig_sweep_profiles():
            a = endpoint(p, scheme="simpson")
            b = endpoint(p, scheme="gauss")
            assert abs(a.x - b.x) <= 1e-9 and abs(a.y - b.y) <= 1e-9, f"r={p.r}"
        assert time.perf_counter() - start < 5.0


def test_criterion_08_sampled_pipeline_second_order(capsys):
    with criterion(capsys, 8, "sampled gradient fit is accurate and second-order in N"):
        p = GcsProfile(0.1, 2.0, math.pi, 2.0)
        exact = gradient_line(p)

        def fit_error(n):
            curve = synthesize(p, config=QuadratureConfig(samples_per_curve=n))
            _, line = gradient_from_samples(curve)
            return max(abs(line.slope_a - exact.slope_a), abs(line.intercept_b - exact.intercept_b))

        err = {n: fit_error(n) for n in (2000, 1000, 500)}
        assert err[2000] <= 1e-3
        # Halving N doubles the admissible error budget...
        assert err[1000] <= 2e-3
        assert err[500] <= 4e-3
        # ...while the observed growth factor is ~4: the stencils are
        # second order, which is what this convergence ratio certifies.
        assert 3.0 <= err[1000] / err[2000] <= 5.0
        assert 3.0 <= err[500] / err[1000] <= 5.0


def test_criterion_09_histogram_conservation_convergence(capsys):
    with criterion(capsys, 9, "histogram conserves arc length and converges to the analytic law"):
        p = GcsProfile(0.5, 2.0, math.pi, 0.0)
        line = gradient_line(p)
        curve = synthesize(p, config=QuadratureConfig(samples_per_curve=4096))
        hist = lddc_histogram(curve, 16)
        total = float(np.sum(hist.lengths)) + hist.excluded_length
        assert abs(total - math.pi) <= 1e-9 * math.pi
        # Fixed bin edges keep the N sweep comparable bin by bin.
        edges = np.linspace(math.log10(0.5), math.log10(2.0), 9)
        deviations = []
        for n in (512, 1024, 2048, 4096):
            curve = synthesize(p, config=QuadratureConfig(samples_per_curve=n))
            hist = lddc_histogram(curve, 8, edges=edges)
            deviations.append(lddc_vs_lcg(hist, line, p).max_abs_deviation)
        for coarse, fine in zip(deviations, deviations[1:]):
            assert fine < coarse
            assert coarse / fine >= 1.4
        assert deviations[0] / deviations[-1] >= 5.0


def test_criterion_10_figure_gallery_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "figure gallery emits 33 datasets, byte-identical on rerun"):
        summaries = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["figures", "--out", str(out)]) == 0
            summaries.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
        assert all(s["csv_count"] == 33 for s in summaries)
        a_files = sorted((tmp_path / "a").iterdir())
        assert sum(1 for f in a_files if f.suffix == ".csv") == 33
        assert sum(1 for f in a_files if f.suffix == ".svg") == 5
        for path_a in a_files:
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
