"""End-to-end command-line behavior: outputs, formats, exit codes, determinism."""

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import gcspiral
from gcspiral import (
    ConstantProfile,
    DomainError,
    GcsProfile,
    LinearProfile,
    QuadratureConfig,
    gradient_from_samples,
    gradient_gcs,
    gradient_line,
    lcg_gcs_points,
    lddc_histogram,
    lddc_vs_lcg,
    synthesize,
)
from gcspiral import cli, synthesis, tables
from gcspiral.cli import OUT_ENV_VAR, PROFILE_KINDS, R_SWEEP, build_parser, main
from gcspiral.errors import QuadratureError
from gcspiral.tables import read_table

PI = repr(math.pi)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_of(out_text):
    return json.loads(out_text.strip().splitlines()[-1])


class TestSynth:
    def test_half_circle(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "synth", "--constant", f"1.0,{PI}", "--out", str(tmp_path)
        )
        assert code == 0
        summary = summary_of(out)
        assert summary["endpoint"]["x"] == pytest.approx(0.0, abs=1e-9)
        assert summary["endpoint"]["y"] == pytest.approx(2.0, abs=1e-9)
        assert summary["samples"] == 256
        assert (tmp_path / "curve.csv").is_file()
        assert (tmp_path / "curve.svg").is_file()

    def test_full_circle_closes(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "synth", "--constant", f"1.0,{2.0 * math.pi!r}",
            "--out", str(tmp_path), "--formats", "csv",
        )
        assert code == 0
        summary = summary_of(out)
        assert abs(summary["endpoint"]["x"]) <= 1e-9
        assert abs(summary["endpoint"]["y"]) <= 1e-9
        assert not (tmp_path / "curve.svg").exists()

    def test_pose_and_prefix(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "synth", "--gcs", f"0,0,5,0.3", "--pose", "1,1," + repr(math.pi / 2.0),
            "--out", str(tmp_path), "--prefix", "segment",
        )
        assert code == 0
        summary = summary_of(out)
        assert summary["endpoint"]["x"] == pytest.approx(1.0, abs=1e-9)
        assert summary["endpoint"]["y"] == pytest.approx(6.0, abs=1e-9)
        assert (tmp_path / "segment.csv").is_file()

    def test_svg_text_is_escaped(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--gcs", "0.5,2,3,1", "--prefix", "a<b&c", "--formats", "svg",
            "--out", str(tmp_path),
        )
        assert code == 0, err
        root = ET.parse(str(tmp_path / "a<b&c.svg")).getroot()
        assert root.find("{http://www.w3.org/2000/svg}title").text == "a<b&c"

    def test_svg_viewbox_has_margin(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--constant", f"1.0,{PI}", "--formats", "svg",
            "--out", str(tmp_path),
        )
        assert code == 0, err
        curve = synthesize(ConstantProfile(1.0, math.pi))
        text = (tmp_path / "curve.svg").read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text
        view = text.split('viewBox="')[1].split('"')[0]
        x_lo, y_lo, width, height = (float(v) for v in view.split())
        data_x_lo, data_x_hi = float(np.min(curve.x)), float(np.max(curve.x))
        span = data_x_hi - data_x_lo
        assert x_lo == pytest.approx(data_x_lo - 0.05 * span, rel=1e-6)
        assert width == pytest.approx(1.1 * span, rel=1e-6)

    def test_json_format_writes_summary_file(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "synth", "--constant", "1.0,1.0",
            "--out", str(tmp_path), "--formats", "json",
        )
        assert code == 0
        on_disk = json.loads((tmp_path / "curve.json").read_text())
        assert on_disk["endpoint"] == summary_of(out)["endpoint"]

    def test_deterministic_reruns(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            code, _, _ = run(
                capsys,
                "synth", "--gcs", f"0,2,{PI},1", "--out", str(d), "--formats", "csv",
            )
            assert code == 0
        assert (a_dir / "curve.csv").read_bytes() == (b_dir / "curve.csv").read_bytes()

    def test_env_var_output_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "from_env"))
        code, _, _ = run(capsys, "synth", "--constant", "1.0,1.0")
        assert code == 0
        assert (tmp_path / "from_env" / "curve.csv").is_file()

    def test_explicit_out_beats_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "ignored"))
        code, _, _ = run(
            capsys,
            "synth", "--constant", "1.0,1.0",
            "--out", str(tmp_path / "explicit"),
        )
        assert code == 0
        assert (tmp_path / "explicit" / "curve.csv").is_file()
        assert not (tmp_path / "ignored").exists()


class TestProfileInputs:
    def test_inline_json_profile(self, tmp_path, capsys):
        doc = json.dumps(
            {"type": "gcs", "kappa0": 0.0, "kappa1": 2.0, "arc_length": math.pi, "r": 1.0}
        )
        code, out, _ = run(capsys, "synth", "--profile", doc, "--out", str(tmp_path))
        assert code == 0
        assert summary_of(out)["arc_length"] == pytest.approx(math.pi, abs=0.0)

    def test_profile_file(self, tmp_path, capsys):
        doc = {"type": "constant", "kappa": 1.0, "arc_length": 2.0}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "synth", "--profile", str(path), "--out", str(tmp_path))
        assert code == 0
        assert summary_of(out)["arc_length"] == pytest.approx(2.0, abs=0.0)

    def test_missing_profile_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--profile", str(tmp_path / "nope.json"), "--out", str(tmp_path)
        )
        assert code == 2
        assert "nope.json" in err

    def test_flag_missing_a_key_rejected(self, tmp_path, capsys):
        # A --<kind> flag holds every key of its document, arc_length included.
        code, out, err = run(capsys, "synth", "--constant", "1", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert "error: --constant expects 2 comma-separated numbers, got '1'" in err
        assert list(tmp_path.iterdir()) == []

    def test_flag_with_a_non_numeric_field_rejected(self, tmp_path, capsys):
        code, out, err = run(capsys, "synth", "--gcs=a,b,c,d", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: --gcs holds a non-numeric field: 'a,b,c,d'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["synth", "lcg", "gradient", "classify", "lddc"])
    def test_length_is_not_an_option(self, tmp_path, capsys, command):
        code, out, err = run(
            capsys, command, "--constant", "1,2", "--length", "5", "--out", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --length 5" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_document_key_rejected(self, tmp_path, capsys):
        doc = {"type": "gcs", "kappa0": 0.0, "kappa1": 1.0, "arc_length": 1.0, "r": 0.0}
        code, _, err = run(
            capsys, "synth", "--profile", json.dumps(dict(doc, extra=2)), "--out", str(tmp_path)
        )
        assert code == 2
        assert "error: profile document has unknown field 'extra'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag_args, doc",
        [
            (
                ["--gcs", "0.5,2,3,1"],
                {"type": "gcs", "kappa0": 0.5, "kappa1": 2, "arc_length": 3, "r": 1},
            ),
            (
                ["--constant", "1.25,2.5"],
                {"type": "constant", "kappa": 1.25, "arc_length": 2.5},
            ),
            (
                ["--constant=-1,2"],
                {"type": "constant", "kappa": -1, "arc_length": 2},
            ),
            (
                ["--linear=-0.75,2,1.5"],
                {"type": "linear", "kappa0": -0.75, "kappa1": 2, "arc_length": 1.5},
            ),
            (
                ["--quadratic", "0.3,-0.1,1.1,4"],
                {"type": "quadratic", "a": 0.3, "kappa0": -0.1, "kappa1": 1.1, "arc_length": 4},
            ),
        ],
        ids=["gcs", "constant", "negative-constant", "linear", "quadratic"],
    )
    def test_flag_and_document_write_identical_files(self, tmp_path, capsys, flag_args, doc):
        outputs = []
        for name, profile_args in (("flag", flag_args), ("doc", ["--profile", json.dumps(doc)])):
            out_dir = tmp_path / name
            code, out, err = run(
                capsys, "synth", *profile_args, "--formats", "csv,json,svg",
                "--samples", "64", "--out", str(out_dir),
            )
            assert code == 0, err
            # The summary and curve.json name the output directory; mask it.
            files = {
                p.name: p.read_bytes().replace(str(out_dir).encode(), b"OUT")
                for p in out_dir.iterdir()
            }
            outputs.append((out.replace(str(out_dir), "OUT"), files))
        assert sorted(outputs[0][1]) == ["curve.csv", "curve.json", "curve.svg"]
        assert outputs[0] == outputs[1]

    def test_conflicting_profiles_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "synth", "--constant", "1.0", "--linear", "0,1,1.0",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "exactly one" in err

    def test_no_profile_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path))
        assert code == 2
        assert "exactly one" in err

    def test_invalid_shape_factor_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--gcs", "0,2,1,-1", "--out", str(tmp_path))
        assert code == 2
        assert "r" in err

    def test_malformed_pose_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "synth", "--constant", "1.0,1.0", "--pose", "1,2",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "--pose" in err

    def test_invalid_format_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "synth", "--constant", "1.0,1.0",
            "--formats", "csv,bogus", "--out", str(tmp_path),
        )
        assert code == 2
        assert "--formats" in err


class TestLcgCommand:
    def test_inflection_start_reported_as_skipped(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "lcg", "--gcs", f"0,2,{PI},1", "--out", str(tmp_path)
        )
        assert code == 0
        summary = summary_of(out)
        assert summary["points"] == 255
        assert len(summary["skipped"]) == 1
        assert summary["skipped"][0]["t"] == 0.0
        assert (tmp_path / "lcg.csv").read_text().splitlines()[0] == "t,log_rho,log_freq"

    def test_generic_profile_uses_numeric_route(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "lcg", "--quadratic", "1,0.5,2,1.0", "--out", str(tmp_path),
        )
        assert code == 0
        assert summary_of(out)["points"] == 256

    def test_tiny_curvature_keeps_both_ends(self, tmp_path, capsys):
        # kappa = t^2/2 - t + 1e-170: kappa^2 underflows at both ends, and
        # the LCG is taken from kappa/kappa' without squaring kappa.
        code, out, _ = run(
            capsys,
            "lcg", "--quadratic=0.5,1e-170,2e-170,2", "--out", str(tmp_path),
        )
        assert code == 0
        summary = summary_of(out)
        assert summary["points"] == 256 and summary["skipped"] == []

    def test_circle_has_no_graph(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "lcg", "--constant", "1.0,1.0", "--out", str(tmp_path)
        )
        assert code == 2
        assert "kappa0" in err

    def test_graph_undefined_at_every_grid_value(self, tmp_path, capsys):
        # A GCS with r = 0 and kappa0 = -kappa1 = -6e-13 on [0, 1]: every sample's
        # curvature is below REL_TOL * scale, so the LCG skips them all.
        code, out, err = run(
            capsys, "lcg", "--gcs=-6e-13,6e-13,1,0", "--samples", "8", "--out", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert err == "error: the LCG is undefined at every grid value for this profile\n"
        assert list(tmp_path.iterdir()) == []


class TestGradientCommand:
    def test_closed_form_constant_gradient(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gradient", "--gcs", f"0,2,{PI},0", "--out", str(tmp_path)
        )
        assert code == 0
        line = summary_of(out)["line"]
        assert line["A"] == 0.0
        assert line["B"] == -1.0
        assert line["class"] == "log_aesthetic"
        rows = (tmp_path / "gradient.csv").read_text().splitlines()
        assert rows[0] == "s,gradient"
        assert all(row.split(",")[1] == "-1" for row in rows[1:])

    def test_closed_form_linear_gradient(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gradient", "--gcs", f"0,2,{PI},1", "--out", str(tmp_path)
        )
        assert code == 0
        line = summary_of(out)["line"]
        assert line["A"] == pytest.approx(-2.0 / math.pi, rel=1e-12)
        assert line["B"] == -1.0
        assert line["class"] == "gcs"
        assert line["residual"] <= 1e-12

    def test_sampled_estimate_matches_closed_form(self, tmp_path, capsys):
        code, closed_out, _ = run(
            capsys, "gradient", "--gcs", f"0.5,2,{PI},1", "--out", str(tmp_path)
        )
        assert code == 0
        code, sampled_out, _ = run(
            capsys,
            "gradient", "--gcs", f"0.5,2,{PI},1", "--sampled", "--samples", "2000",
            "--out", str(tmp_path),
        )
        assert code == 0
        closed = summary_of(closed_out)["line"]
        sampled = summary_of(sampled_out)["line"]
        assert abs(sampled["A"] - closed["A"]) <= 1e-3
        assert abs(sampled["B"] - closed["B"]) <= 1e-3
        assert sampled["class"] == "gcs"

    def test_sampled_estimate_through_inflection(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "gradient", "--gcs=-1,2,3,1", "--sampled", "--samples", "2000",
            "--out", str(tmp_path),
        )
        assert code == 0
        line = summary_of(out)["line"]
        assert abs(line["A"] + 5.0 / 9.0) <= 1e-3
        assert abs(line["B"] + 2.0 / 3.0) <= 1e-3
        assert line["class"] == "gcs"

    def test_line_document_shape(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gradient", "--gcs", f"0,2,{PI},1", "--formats", "json", "--out", str(tmp_path)
        )
        assert code == 0
        payload = json.loads((tmp_path / "gradient.json").read_text())
        assert payload == summary_of(out)["line"]
        assert set(payload) == {"A", "B", "domain", "residual", "class"}
        assert payload["class"] == "gcs"
        assert payload["B"] == -1.0
        assert payload["domain"] == [0.0, math.pi]

    def test_closed_form_requires_rational_linear(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gradient", "--quadratic", "1,0,2,1", "--out", str(tmp_path)
        )
        assert code == 2
        assert "error: gradient without --sampled needs a rational-linear profile" in err


class TestClassifyCommand:
    def cases(self):
        return [
            (f"0,2,{PI},0", "clothoid", "log_aesthetic"),
            (f"0,2,{PI},1", "general_gcs", "gcs"),
            ("3,1,1,2", "log_spiral", "log_aesthetic"),
            ("1,1,1,0", "circular_arc", "lcg_undefined"),
        ]

    def test_examples(self, tmp_path, capsys):
        for profile_arg, degenerate, aesthetic in self.cases():
            code, out, _ = run(capsys, "classify", "--gcs", profile_arg, "--out", str(tmp_path))
            assert code == 0, profile_arg
            verdict = summary_of(out)
            assert verdict["degenerate"] == degenerate
            assert verdict["class"] == aesthetic

    def test_undefined_reports_reason(self, tmp_path, capsys):
        code, out, _ = run(capsys, "classify", "--gcs", "1,1,1,0", "--out", str(tmp_path))
        assert code == 0
        verdict = summary_of(out)
        assert verdict["lcg_line"] is None
        assert verdict["reason"] == (
            "LCG closed forms divide by kappa0 - kappa1; profile has kappa0 = 1.0, kappa1 = 1.0"
        )

    @pytest.mark.parametrize("profile", ["--gcs=1,1,1,0", "--constant=0,1"])
    def test_undefined_reason_is_the_gradient_error(self, tmp_path, capsys, profile):
        # classify reads GcsProfile.circular; gradient raises the closed forms' error.
        code, out, _ = run(capsys, "classify", profile, "--out", str(tmp_path))
        assert code == 0
        verdict = summary_of(out)
        assert verdict["class"] == "lcg_undefined"
        code, _, err = run(capsys, "gradient", profile, "--out", str(tmp_path))
        assert code == 2
        assert err == f"error: {verdict['reason']}\n"

    def test_json_file_written(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "classify", "--gcs", f"0,2,{PI},1", "--formats", "json", "--out", str(tmp_path),
        )
        assert code == 0
        on_disk = json.loads((tmp_path / "classify.json").read_text())
        assert on_disk["class"] == "gcs"

    @pytest.mark.parametrize(
        "gcs",
        [
            "1,1.00000000001,1,1",  # A and B near -1e11, residual 6.1e-5 on 256 points
            "-2.8539802664230876,-2.853980274899395,4.073060214714459,12.392081689195669",
            # r near -1: n1's rounding, up to 2*eps/(1 + r), is not in the line
            "1.5247325607913807e-12,-5.930895186477008,0.5023679157726169,-0.9999999999767342",
        ],
    )
    def test_closed_form_rounding_is_a_fit(self, tmp_path, capsys, gcs):
        # A closed-form line is exact, so both commands call it a fit by construction,
        # whatever rounding gradient's reported residual shows.
        classes = []
        for command in ("classify", "gradient"):
            code, out, err = run(capsys, command, f"--gcs={gcs}", "--out", str(tmp_path))
            assert code == 0, err
            verdict = summary_of(out)
            classes.append(verdict["class"] if command == "classify" else verdict["line"]["class"])
        assert classes == ["gcs", "gcs"]

    def test_general_quadratic_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "classify", "--quadratic", "1,0,2,1", "--out", str(tmp_path)
        )
        assert code == 2
        assert "error: classify needs a rational-linear profile" in err

    def test_agrees_with_gradient_on_bench_profiles(self, tmp_path, capsys, monkeypatch):
        # classify and gradient judge one closed-form line, each with a residual of 0.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs  # bench/inputs.py: the benchmark's seeded profile sets
        profiles = [
            p
            for seed in range(6)
            for p in inputs.cli_profiles(seed) + inputs.interrogate_profiles(seed)
        ]
        for p in profiles:
            summaries = []
            for command in ("classify", "gradient"):
                code, out, err = run(capsys, command, p.cli_arg(), "--out", str(tmp_path))
                assert code == 0, err
                summaries.append(summary_of(out))
            verdict, line = summaries[0], summaries[1]["line"]
            assert verdict["lcg_line"] == {"A": line["A"], "B": line["B"]}, p
            assert verdict["class"] == line["class"], p


class TestLddcCommand:
    def test_circle_single_bin(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "lddc", "--constant", f"2.0,{PI}", "--bins", "5",
            "--out", str(tmp_path),
        )
        assert code == 0
        summary = summary_of(out)
        assert summary["bins"] == 5
        assert summary["total_length"] == pytest.approx(math.pi, abs=1e-12)
        assert summary["excluded_length"] == 0.0
        rows = (tmp_path / "lddc.csv").read_text().splitlines()[1:]
        lengths = [float(r.split(",")[2]) for r in rows]
        assert sum(1 for v in lengths if v > 0.0) == 1

    def test_compare_against_analytic(self, tmp_path, capsys):
        n = 4096
        code, out, _ = run(
            capsys,
            "lddc", "--gcs", f"0.5,2,{PI},0", "--bins", "16", "--samples", str(n),
            "--compare", "--out", str(tmp_path),
        )
        assert code == 0
        summary = summary_of(out)
        assert summary["max_abs_deviation"] <= 4.0 * math.pi / (n - 1)
        assert (tmp_path / "lddc_compare.csv").is_file()

    def test_svg_output(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "lddc", "--gcs", f"0.5,2,{PI},0", "--bins", "8", "--formats", "svg",
            "--out", str(tmp_path),
        )
        assert code == 0, err
        curve = synthesize(GcsProfile(0.5, 2.0, math.pi, 0.0))
        hist = lddc_histogram(curve, 8)
        text = (tmp_path / "lddc.svg").read_text()
        assert text.startswith("<?xml")
        assert text.count("<rect") >= 1 + int(np.count_nonzero(hist.lengths))

    def test_compare_requires_rational_linear(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "lddc", "--quadratic", "1,0.5,2,1", "--compare",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "--compare" in err

    @pytest.mark.parametrize(
        "profile", [["--gcs", "1e308,1e308,1,0"], ["--constant", "1e308,1"]]
    )
    def test_curvature_near_the_float_limit(self, tmp_path, capsys, profile):
        # Each midpoint curvature is halved before the sum, which stays finite.
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "lddc", *profile, "--out", str(tmp_path))
        assert code == 0
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert summary_of(out)["total_length"] == 1.0
        rows = read_table(tmp_path / "lddc.csv", "bin_lo_log10rho,bin_hi_log10rho,length", "lddc")
        assert rows[:, 2].sum() == 1.0
        assert np.all(rows[rows[:, 2] > 0.0, :2] == [[-308.0, -307.9375]])


class TestFiguresCommand:
    def test_gallery_contents(self, tmp_path, capsys):
        code, out, _ = run(capsys, "figures", "--out", str(tmp_path))
        assert code == 0
        summary = summary_of(out)
        assert summary["csv_count"] == 33
        assert summary["r_values"] == list(R_SWEEP)
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(csvs) == 33
        assert "fig1_curve.csv" in csvs
        for r in R_SWEEP:
            for stem in ("fig2_profile_r", "fig3_curve_r", "fig4_lcg_r", "fig5_gradient_r"):
                assert f"{stem}{r:g}.csv" in csvs
        svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert svgs == ["fig1.svg", "fig2.svg", "fig3.svg", "fig4.svg", "fig5.svg"]

    def test_formats_govern_every_file(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "figures", "--samples", "32", "--formats", "svg", "--out", str(tmp_path / "s")
        )
        assert code == 0
        assert summary_of(out)["csv_count"] == 0
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["fig1.svg", "fig2.svg", "fig3.svg", "fig4.svg", "fig5.svg"]

        code, out, _ = run(
            capsys, "figures", "--samples", "32", "--formats", "json", "--out", str(tmp_path / "j")
        )
        assert code == 0
        assert [p.name for p in (tmp_path / "j").iterdir()] == ["figures.json"]
        on_disk = json.loads((tmp_path / "j" / "figures.json").read_text())
        assert on_disk == {"csv_count": 0, "files": [], "r_values": list(R_SWEEP)}
        assert summary_of(out)["files"] == [str(tmp_path / "j" / "figures.json")]

    def test_numbers_are_formatted_in_few_kernel_calls(self, tmp_path, capsys, monkeypatch):
        calls = collections.Counter()
        kernel = tables._format

        def spy(values, ends, layout):
            calls[layout.digits] += 1
            return kernel(values, ends, layout)

        monkeypatch.setattr(tables, "_format", spy)
        code, _, err = run(capsys, "figures", "--out", str(tmp_path))
        assert code == 0, err
        assert calls[17] <= 7 and calls[8] <= 4, calls

    def test_svg_only_formats_no_table(self, tmp_path, capsys, monkeypatch):
        passes = []
        texts = tables._texts

        def spy(pieces, digits):
            passes.append(pieces)
            return texts(pieces, digits)

        monkeypatch.setattr(tables, "_texts", spy)
        code, _, err = run(
            capsys, "figures", "--samples", "32", "--formats", "svg", "--out", str(tmp_path)
        )
        assert code == 0, err
        assert passes == [[]]

    def test_failed_sweep_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def failing(profile, *rest):
            if isinstance(profile, GcsProfile) and profile.r == 0.0:
                raise QuadratureError("work ceiling")
            return synthesize(profile, *rest)

        monkeypatch.setattr(cli, "synthesize", failing)
        code, out, err = run(
            capsys, "figures", "--formats", "csv,svg,json", "--out", str(tmp_path / "g")
        )
        assert code == 3
        assert "r=0" in err and out == ""
        assert not (tmp_path / "g").exists()

    def test_prefix_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "figures", "--prefix", "zz", "--out", str(tmp_path))
        assert code == 2
        assert "--prefix" in err
        assert not any(tmp_path.iterdir())

    def test_writer_bytes_match_golden_digests(self, tmp_path, capsys):
        # These files need only +, -, *, / and formatting, so their bytes do
        # not depend on the platform's libm.
        code, _, err = run(capsys, "figures", "--out", str(tmp_path))
        assert code == 0, err
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS
        }
        assert digests == GOLDEN_DIGESTS

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            code, _, _ = run(capsys, "figures", "--out", str(d))
            assert code == 0
        for path_a in sorted(a_dir.iterdir()):
            path_b = b_dir / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


class TestExitPaths:
    def test_tolerance_below_float_floor_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "synth", "--constant", "0,1e6", "--abs-tol", "1e-10",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "float floor" in err
        assert list(tmp_path.iterdir()) == []

    def test_input_errors_are_exit_2(self, tmp_path, capsys):
        doc = json.dumps({"type": "gcs", "kappa0": "1", "kappa1": 2, "arc_length": 3, "r": 0})
        code, _, err = run(capsys, "synth", "--profile", doc, "--out", str(tmp_path))
        assert code == 2
        assert "kappa0 must be a finite real number, got '1'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [["synth"], ["lcg"], ["lddc"], ["gradient", "--sampled"], ["classify"], ["gradient"]],
    )
    @pytest.mark.parametrize(
        "profile",
        [
            ["--linear=-1e308,1e308,1"],
            ["--quadratic", "1e308,0,0,10"],
            ["--quadratic", "1e308,0,0,1"],
            ["--gcs=1e308,1e307,1,0"],
            ["--gcs=0,1e10,1e300,0"],
        ],
    )
    def test_overflowing_coefficients_are_exit_2(self, tmp_path, capsys, command, profile):
        # kappa1 - kappa0, a*S*S, kappa'' = 2a, or a GCS's c = S*(1 + r)*(kappa0 - kappa1)
        # or 2*n1*(r*s + S) overflows: rejected when the profile is built, not met
        # later as an infinite gradient or residual.
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *command, *profile, "--out", str(tmp_path))
        assert code == 2
        assert "profile parameters overflow the curvature coefficients" in err
        assert list(tmp_path.iterdir()) == []
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", [["classify"], ["gradient"], ["lddc", "--compare"]])
    @pytest.mark.parametrize("profile", ["--gcs=1,1e-90,1e-10,1e200", "--gcs=1e10,0,1e-10,1e300"])
    def test_overflowing_gradient_line_is_exit_2(self, tmp_path, capsys, command, profile):
        code, _, err = run(capsys, *command, profile, "--out", str(tmp_path))
        assert code == 2
        assert "profile parameters overflow the LCG gradient line" in err
        assert list(tmp_path.iterdir()) == []

    def test_work_ceiling_is_exit_3(self, tmp_path, capsys):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "synth", "--constant", "1e9,1", "--out", str(tmp_path)
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "quadrature failure: integration needs" in err
        assert "above the ceiling" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            # Synthesizing the first passes the work ceiling; for the other two
            # the default abs_tol is below the float floor S*eps.
            ["lddc", "--constant", "1e9,1"],
            ["lddc", "--linear", "1e-6,2e-6,1e6"],
            ["gradient", "--gcs", "0.5,2,1e6,1", "--sampled"],
        ],
    )
    def test_curvature_commands_need_no_integral(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0, err
        assert len(summary_of(out)["files"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--quadratic", "1,0.5,2,1"], "--compare needs a rational-linear profile"),
            (["--constant", "2,1"], "LCG closed forms divide by kappa0 - kappa1"),
        ],
    )
    def test_rejected_lddc_comparison_writes_nothing(self, tmp_path, capsys, argv, message):
        # As with synth, a rejected input leaves no partial output behind.
        argv = ["lddc", *argv, "--compare", "--out", str(tmp_path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert message in err
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_is_exit_2(self, capsys):
        # A value starting with "-" reads as an option unless given as --gcs=...
        code, _, err = run(capsys, "classify", "--gcs", "-1,2,3,1")
        assert code == 2
        assert "--gcs" in err

    def test_module_entry_point(self, tmp_path):
        src = str(Path(gcspiral.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "gcspiral", "classify", "--gcs", "0,2,3,1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["class"] == "gcs"
        assert not any(tmp_path.iterdir())

    def test_import_loads_neither_html_nor_numpy_polynomial(self):
        # Each was loaded only for work at import: the SVG escapes and the Gauss tail.
        src = str(Path(gcspiral.__file__).resolve().parents[1])
        code = (
            "import sys, numpy; before = set(sys.modules); import gcspiral.cli; "
            "print(sorted({'html', 'numpy.polynomial'} & (set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_command_is_exit_2(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "command is required" in err

    def test_seed_check_passes(self, capsys):
        code, out, _ = run(capsys, "--seed-check")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["ok"] is True
        assert all(payload["checks"].values())
        assert set(payload["checks"]) == {
            "circle_endpoint",
            "gradient_line_identity",
            "finite_difference_gradient",
        }


# sha256 of the gallery files at the default --samples.
GOLDEN_DIGESTS = {
    "fig2_profile_r-0.5.csv": "ff03107ebf52f63c5da458205bfbf02a01bc23a0b9abf7b878f605877b66e78a",
    "fig2_profile_r-0.9.csv": "b3efa3b71538b8d25f5cd9cdbc8c5d6a1fea54647909dea17f3fa3e33ec8a389",
    "fig2_profile_r-0.99.csv": "7da78bea2f79becada67de554a1bad38cfea2e6535102a88a4a3a1aecd3c9356",
    "fig2_profile_r0.csv": "c0457d38fbcdf877b8cb9defbeb03e331d4c0070e3c6faca6372c14a51472599",
    "fig2_profile_r1.csv": "d17bab8e93b5d6af3be430d8a29b5ad6ac47f2ccb6882570ba1b4c0b66b5ceff",
    "fig2_profile_r100.csv": "cc57fe1ec1e90a76860471076def087ce27a48d0edded12a469f6822143ec145",
    "fig2_profile_r2.csv": "2796ed45382b8a2399d919902ba0b33071b0497f384e8b96cb95e29726836d4d",
    "fig2_profile_r5.csv": "6feb11f5defd0bb4d8c63007520bb78cacbb506ccebeadb0a4be9f05ed75700f",
    "fig5_gradient_r-0.5.csv": "81717b8379281318ab0a514e295043c29ba75344bf44ac5c89efd62472394405",
    "fig5_gradient_r-0.9.csv": "7faa74e15a8521f9a811d3a846ba0cd0ac2354b923ffb20393fc07b48f636939",
    "fig5_gradient_r-0.99.csv": "7800d4619063396d0ec57ddc0684205dfc967dd745833cbfb380ff56653bd7c4",
    "fig5_gradient_r0.csv": "fda5a849d136ab17b1705ce255f2c9eb8a0832361392feadf85ebae5e4c911bc",
    "fig5_gradient_r1.csv": "c52a7df42e02b0486952866e32f5e2b7e5f5d9f6a52c677a4d7b464fc3b3d2b3",
    "fig5_gradient_r100.csv": "005158b2175ad38b2b36f3201e9c5182ad7992a1c89d7d672257e4a9aa4669d1",
    "fig5_gradient_r2.csv": "dc4eedd756d4499abdc4ee02794ba194622a10feb4f642789b06ddd6ea3ba270",
    "fig5_gradient_r5.csv": "1e99d246e925517d8948c22eda42405801f20ddad8119ea1e1fd795fe21dab9a",
    "fig2.svg": "129766389096988bf5979f097f7231be568a6cf58a0b9aef5b4adcbbc59bf6f3",
    "fig5.svg": "630dcd3f995473e9c82d36aa28c18f9ee0b53747d7c41b35106a35133648e5fd",
}


CURVE = "s,x,y,theta,kappa"
LCG = "t,log_rho,log_freq"
GRADIENT = "s,gradient"


def curve_rows(curve):
    return np.column_stack((curve.s, curve.x, curve.y, curve.theta, curve.kappa))


def lcg_rows(profile, grid):
    points, _ = lcg_gcs_points(profile, grid)
    return np.array([(p.t, p.log_rho, p.log_freq) for p in points])


def gradient_rows(profile, grid):
    return np.array([(t, gradient_gcs(profile, t)) for t in grid.tolist()])


class TestOptions:
    """Each command takes the options it reads, and only those."""

    PROFILE = ["--gcs", "--constant", "--linear", "--quadratic", "--profile"]
    OUTPUT = ["--out", "--prefix", "--formats"]
    OPTIONS = {
        "synth": PROFILE + OUTPUT + ["--abs-tol", "--samples", "--pose"],
        "lcg": PROFILE + OUTPUT + ["--samples"],
        "gradient": PROFILE + OUTPUT + ["--samples", "--sampled"],
        "classify": PROFILE + OUTPUT,
        "lddc": PROFILE + OUTPUT + ["--samples", "--bins", "--compare"],
        "figures": ["--out", "--formats", "--abs-tol", "--samples"],
    }

    class Recorder:
        """The parsed arguments, noting each one a command reads."""

        def __init__(self, args):
            self.__dict__.update(parsed=vars(args), read=set())

        def __getattr__(self, name):
            self.read.add(name)
            return self.parsed[name]

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_the_options_the_command_reads(self, tmp_path, capsys, command):
        code, help_text, _ = run(capsys, command, "--help")
        assert code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", help_text)) - {"--help"}
        assert listed == set(self.OPTIONS[command])
        argv = [command, "--out", str(tmp_path), "--formats", "csv"]
        argv += [] if command == "figures" else ["--gcs", "0.5,2,3,1"]
        parsed = build_parser().parse_args(argv)
        args = self.Recorder(parsed)
        with contextlib.redirect_stdout(io.StringIO()):
            assert parsed.run(args) == 0
        assert {"--" + name.replace("_", "-") for name in args.read} == listed

    @pytest.mark.parametrize(
        "argv",
        [
            ["lddc", "--max-subdivisions", "3"],
            ["lcg", "--abs-tol", "1e-9"],
            ["gradient", "--sampled", "--abs-tol", "1e-9"],
            ["classify", "--samples", "64"],
            # The MAX_PANELS ceiling is the one work limit: no subdivision cap to set.
            ["synth", "--max-subdivisions", "2"],
            ["figures", "--max-subdivisions", "2"],
        ],
    )
    def test_options_a_command_does_not_read_are_usage_errors(self, tmp_path, capsys, argv):
        argv = argv + ([] if argv[0] == "figures" else ["--gcs", "0.5,2,3,1"])
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert re.search(r"unrecognized arguments: --[a-z-]+ \S+$", err.strip())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["synth", "lcg", "gradient", "lddc", "figures"])
    def test_fewer_than_two_samples_rejected(self, tmp_path, capsys, command):
        argv = [command, "--samples", "1", "--out", str(tmp_path)]
        argv += [] if command == "figures" else ["--gcs", "0.5,2,3,1"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "samples_per_curve must be an integer >= 2, got 1" in err
        assert list(tmp_path.iterdir()) == []


class TestCurvatureCommands:
    """lddc and gradient --sampled read the profile's curvature on the sample grid."""

    def test_they_integrate_nothing(self, tmp_path, capsys, monkeypatch):
        calls = collections.Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            synthesis, "tangent_integrals", counting("tangent_integrals", synthesis.tangent_integrals)
        )
        for cls, _keys in PROFILE_KINDS.values():
            monkeypatch.setattr(cls, "theta", counting("theta", cls.theta))
        for argv in (
            ["lddc", "--gcs", "0.5,2,3,1", "--samples", "4096", "--compare"],
            ["lddc", "--quadratic", "1,0.5,2,1"],
            ["lddc", "--constant", "2,1"],
            ["gradient", "--gcs", "0.5,2,3,1", "--sampled", "--samples", "2000"],
            ["gradient", "--linear", "0.5,2,3", "--sampled"],
        ):
            code, _, err = run(capsys, *argv, "--out", str(tmp_path))
            assert code == 0, err
        assert calls == {}
        code, _, err = run(capsys, "synth", "--gcs", "0.5,2,3,1", "--out", str(tmp_path))
        assert code == 0, err
        assert calls["tangent_integrals"] == 1 and calls["theta"] >= 2  # the wrappers count


class TestLazySvg:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--gcs", "0.5,2,3,1"],
            ["lcg", "--gcs", "0.5,2,3,1"],
            ["gradient", "--gcs", "0.5,2,3,1"],
            ["lddc", "--gcs", "0.5,2,3,1", "--compare"],
            ["figures", "--samples", "16"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_only_draws_no_svg(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVG was rendered for --formats csv")

        monkeypatch.setattr(cli, "polyline_svg", refuse)
        monkeypatch.setattr(cli, "bar_chart_svg", refuse)
        code, _, err = run(capsys, *argv, "--formats", "csv", "--out", str(tmp_path))
        assert code == 0, err
        assert not list(tmp_path.glob("*.svg"))


class TestOneTablePass:
    """Each command formats all its tables in one 17-digit pass of the text kernel."""

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["synth", "--gcs", "0.5,2,3,1"], 1),
            (["lcg", "--gcs", "0.5,2,3,1"], 1),
            (["gradient", "--gcs", "0.5,2,3,1"], 1),
            (["lddc", "--gcs", "0.5,2,3,1", "--compare"], 2),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else str(value),
    )
    def test_tables_are_formatted_in_one_pass(self, tmp_path, capsys, monkeypatch, argv, count):
        passes = []
        texts = tables._texts

        def spy(pieces, digits):
            passes.append((digits, len(pieces)))
            return texts(pieces, digits)

        monkeypatch.setattr(tables, "_texts", spy)
        code, _, err = run(capsys, *argv, "--formats", "csv,svg,json", "--out", str(tmp_path))
        assert code == 0, err
        assert [p for p in passes if p[0] == 17] == [(17, count)]
        assert len(list(tmp_path.glob("*.csv"))) == count


class TestParserReuse:
    SESSION = (
        ("classify", "--gcs", "-1,2,3,1"),  # a usage error
        ("--help",),
        ("synth", "--gcs", "0.5,2,3,1", "--out", "out", "--formats", "csv,json,svg"),
        ("lcg", "--gcs", "0.5,2,3,-0.5", "--out", "out", "--prefix", "spiral"),
    )

    def session(self, capsys, monkeypatch, directory):
        directory.mkdir()
        monkeypatch.chdir(directory)
        runs = [run(capsys, *argv) for argv in self.SESSION]
        files = {path.name: path.read_bytes() for path in sorted((directory / "out").iterdir())}
        return runs, files

    def test_one_parser_serves_a_session_like_fresh_ones(self, tmp_path, capsys, monkeypatch):
        cli._parser.cache_clear()
        reused = self.session(capsys, monkeypatch, tmp_path / "reused")
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = self.session(capsys, monkeypatch, tmp_path / "fresh")
        assert reused == fresh
        runs, files = reused
        assert [code for code, _, _ in runs] == [2, 0, 0, 0]
        assert "usage: gcspiral" in runs[1][1]
        assert len(files) == 5

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestWrittenTablesRoundTrip:
    """Every CSV the CLI writes reads back bit for bit as the library's values."""

    def assert_tables(self, out_dir, expected):
        assert sorted(p.name for p in out_dir.glob("*.csv")) == sorted(expected)
        for name, (header, rows) in expected.items():
            read = read_table(str(out_dir / name), header, name)
            assert read.shape == rows.shape, name
            assert np.array_equal(read, rows), name

    def test_commands(self, tmp_path, capsys):
        profile = GcsProfile(0.5, 2.0, math.pi, 1.0)
        gcs = "0.5,2," + PI + ",1"
        grid = np.linspace(0.0, math.pi, 256)
        for argv in (
            ["synth", "--gcs", gcs],
            ["lcg", "--gcs", gcs],
            ["gradient", "--gcs", gcs],
            ["lddc", "--gcs", gcs, "--compare", "--samples", "1024"],
            ["gradient", "--gcs", gcs, "--sampled", "--samples", "2000", "--prefix", "sampled"],
        ):
            code, _, err = run(capsys, *argv, "--formats", "csv", "--out", str(tmp_path))
            assert code == 0, err

        curve = synthesize(profile, config=QuadratureConfig(samples_per_curve=1024))
        hist = lddc_histogram(curve, 16)
        comparison = lddc_vs_lcg(hist, gradient_line(profile), profile)
        edges = hist.bin_edges
        sampled, _ = gradient_from_samples(
            synthesize(profile, config=QuadratureConfig(samples_per_curve=2000))
        )
        self.assert_tables(tmp_path, {
            "curve.csv": (CURVE, curve_rows(synthesize(profile))),
            "lcg.csv": (LCG, lcg_rows(profile, grid)),
            "gradient.csv": (GRADIENT, gradient_rows(profile, grid)),
            "lddc.csv": (
                "bin_lo_log10rho,bin_hi_log10rho,length",
                np.column_stack((edges[:-1], edges[1:], hist.lengths)),
            ),
            "lddc_compare.csv": (
                "bin_lo_log10rho,bin_hi_log10rho,measured_length,predicted_length",
                np.column_stack((edges[:-1], edges[1:], comparison.measured, comparison.predicted)),
            ),
            "sampled.csv": (GRADIENT, sampled),
        })

    def test_figures(self, tmp_path, capsys):
        n = 64
        code, _, err = run(capsys, "figures", "--samples", str(n), "--out", str(tmp_path))
        assert code == 0, err
        config = QuadratureConfig(samples_per_curve=n)
        demo = synthesize(LinearProfile(0.0, 2.0, 1.0), config=config)
        expected = {"fig1_curve.csv": (CURVE, curve_rows(demo))}
        for r in R_SWEEP:
            profile = GcsProfile(0.0, 2.0, math.pi, r)
            grid = np.linspace(0.0, math.pi, n)
            kappas = [(t, profile.kappa(t)) for t in grid.tolist()]
            expected[f"fig2_profile_r{r:g}.csv"] = ("s,kappa", np.array(kappas))
            curve = synthesize(profile, config=config)
            expected[f"fig3_curve_r{r:g}.csv"] = (CURVE, curve_rows(curve))
            expected[f"fig4_lcg_r{r:g}.csv"] = (LCG, lcg_rows(profile, grid))
            expected[f"fig5_gradient_r{r:g}.csv"] = (GRADIENT, gradient_rows(profile, grid))
        self.assert_tables(tmp_path, expected)
