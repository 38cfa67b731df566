"""Every profile a constructor accepts runs every route without a floating-point warning.

A fixed, seeded draw of profile parameters of all four kinds, each either
+-10**u with u uniform on [-300, 308] or one of 0, 0.5 and 1, goes through
every library route and every CLI command with RuntimeWarning raised as an
error. The only outcomes allowed are success and the package's own errors:
InputError or QuadratureError from the library, exit 0, 2 or 3 from the CLI.
No draw is left out, rejected ones included. A few fixed profiles the draw
cannot reach ride along.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gcspiral as g
from gcspiral import cli
from gcspiral.errors import InputError
from tutil import profile_document

SEED = 2024
DRAWS_PER_KIND = 120
SAMPLES = 16


def _draw_value(rng: np.random.Generator) -> float:
    u = rng.random()
    if u < 0.15:
        return (0.0, 0.5, 1.0)[int(u / 0.05)]
    magnitude = 10.0 ** rng.uniform(-300.0, 308.0)
    return float(-magnitude if rng.random() < 0.5 else magnitude)


def _draws() -> list[dict]:
    rng = np.random.default_rng(SEED)
    return [
        {"type": kind, **{key: _draw_value(rng) for key in keys}}
        for _ in range(DRAWS_PER_KIND)
        for kind, (_cls, keys) in cli.PROFILE_KINDS.items()
    ]


# Profiles with r closer to -1 than any draw comes, whose constructor must reject
# them: the first four put the curvature pole on the curve (r*S + S rounds to 0
# at S), and the last has kappa(S), as kappa forms it, overflow.
NEAR_POLE = [
    {"type": "gcs", "kappa0": k0, "kappa1": k1, "arc_length": S, "r": r}
    for k0, k1, S, r in (
        (1.0, 2.0, 2.2250738585072014e-308, float(np.nextafter(-1.0, 0.0))),
        (-0.999999, 1e300, 5e-324, -0.999999),
        (5e-324, -0.9999999999, 1e-320, -0.999999),
        (2.2e-308, 1e-154, 1e-320, -0.999999),
        (1e300, 1.7e308, 1.03392538465531e-295, -0.9999999999999998),
    )
]
# Accepted profiles with r next to -1 that once raised a warning: the curvature
# samples of this one differ by more than the largest float, so np.diff overflowed
# in gradient_from_samples.
NEAR_MINUS_ONE = [
    {"type": "gcs", "kappa0": -6.124378457644288e307, "kappa1": 1.1775611453585143e308,
     "arc_length": 1.9834257926793924e-273, "r": -0.9999999999999998},
]
DRAWS = _draws() + NEAR_POLE + NEAR_MINUS_ONE


def _routes(p):
    """(name, call) for every library route that reads a profile."""
    S = p.arc_length
    grid = np.linspace(0.0, S, SAMPLES)
    for method in ("kappa", "kappa_prime", "kappa_double_prime", "theta"):
        f = getattr(p, method)
        yield method, lambda f=f: f(grid)
        yield f"{method}(float)", lambda f=f: (f(0.0), f(S / 3.0), f(S))
    yield "document", lambda: cli.profile_from_json(json.dumps(profile_document(p)))
    yield "synthesize", lambda: g.synthesize(p, config=g.QuadratureConfig(samples_per_curve=SAMPLES))
    yield "endpoint(simpson)", lambda: g.endpoint(p)
    yield "endpoint(gauss)", lambda: g.endpoint(p, scheme="gauss")
    yield "lcg_numeric", lambda: g.lcg_numeric(p, grid)
    yield "lcg_gradient_numeric", lambda: g.lcg_gradient_numeric(p, grid)
    yield "gradient_from_samples", lambda: g.gradient_from_samples((grid, p.kappa(grid)))
    yield "lddc_histogram", lambda: g.lddc_histogram((grid, p.kappa(grid)), 8)
    yield "to_gcs", lambda: g.to_gcs(p)
    try:
        q = g.to_gcs(p)
    except InputError:
        return
    if q is None:
        return

    def line_and_residual():
        line = g.gradient_line(q)
        residual = g.line_residual(q, line)
        return line, residual, g.classify_aesthetic(line, residual)

    yield "classify_degenerate", lambda: g.classify_degenerate(q)
    yield "inflection", lambda: g.inflection(q)
    yield "lcg_gcs_points", lambda: g.lcg_gcs_points(q, grid)
    yield "gradient_gcs", lambda: g.gradient_gcs(q, grid)
    yield "gradient_line", line_and_residual
    yield "lddc_vs_lcg", lambda: g.lddc_vs_lcg(
        g.lddc_histogram((grid, q.kappa(grid)), 8), g.gradient_line(q), q
    )


def test_every_library_route():
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for doc in DRAWS:
            try:
                profile = cli.profile_from_dict(doc)
            except InputError:
                continue
            except Exception as exc:  # any other outcome is a finding
                failures.append(("construct", doc, repr(exc)))
                continue
            for name, call in _routes(profile):
                try:
                    call()
                except (InputError, g.QuadratureError):
                    pass
                except Exception as exc:
                    failures.append((name, doc, repr(exc)))
    assert failures == []


COMMANDS = (
    ["synth"],
    ["lcg"],
    ["gradient"],
    ["gradient", "--sampled"],
    ["classify"],
    ["lddc", "--compare"],
)


def test_every_cli_command(tmp_path):
    failures = []
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for doc in DRAWS:
            for command in COMMANDS:
                argv = [*command, "--profile", json.dumps(doc), "--out", str(tmp_path)]
                argv += ["--formats", "csv,json,svg"]
                if command[0] != "classify":
                    argv += ["--samples", str(SAMPLES)]
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        code = cli.main(argv)
                except Exception as exc:
                    code = repr(exc)
                if code not in (0, 2, 3):
                    failures.append((command, doc, code))
    assert failures == []


def test_near_pole_profiles_are_rejected():
    messages = ["pole on the curve"] * 4 + ["overflow the curvature coefficients"]
    for doc, message in zip(NEAR_POLE, messages):
        with pytest.raises(g.DomainError, match=message):
            cli.profile_from_dict(doc)


def test_mended_sampled_gradient_overflow(capsys):
    # kappa runs from -6.1e307 to 1.2e308, so a difference of two samples is +inf:
    # the monotonicity check reads its sign, with no overflow warning.
    profile = cli.profile_from_dict(NEAR_MINUS_ONE[0])
    grid = np.linspace(0.0, profile.arc_length, SAMPLES)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(g.DegenerateDataError, match="not strictly monotone"):
            g.gradient_from_samples((grid, profile.kappa(grid)))
        argv = ["gradient", "--profile", json.dumps(NEAR_MINUS_ONE[0]), "--sampled"]
        assert cli.main([*argv, "--samples", str(SAMPLES)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: curvature is not strictly monotone (interior extremum or flat run)\n"


def test_mended_theta_overflow(tmp_path):
    # (1 + r)*(kappa1 - kappa0) overflows while theta is finite: theta at t = 0 was nan.
    theta = g.GcsProfile(1e10, 0.0, 1e-10, 1e300).theta([0.0, 1e-11, 1e-10])
    assert np.all(np.abs(theta) <= 1e-15)
    # The same overflow with r < 1, which theta's log form for r >= 1 does not take.
    theta = g.GcsProfile(-1.79e308, -5.4e307, 0.5, 0.9).theta([0.0, 0.25, 0.5])
    assert theta[0] == 0.0 and np.all(np.isfinite(theta))
    src = str(Path(g.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["-W", "error::RuntimeWarning", "-m", "gcspiral", "synth", "--gcs=1e10,0,1e-10,1e300"]
    proc = subprocess.run(
        [sys.executable, *argv, "--formats", "csv"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 2, 3), proc.stderr
