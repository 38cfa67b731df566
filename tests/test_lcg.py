"""LCG coordinates, gradients, linear-gradient classification, sampled fits."""

import io
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcspiral import (
    AestheticClass,
    ConstantProfile,
    DomainError,
    GcsProfile,
    LcgLine,
    LcgPoint,
    LinearProfile,
    PlanarCurve,
    QuadratureConfig,
    QuadraticProfile,
    SkippedPoint,
    classify_aesthetic,
    gradient_from_samples,
    gradient_gcs,
    gradient_line,
    gradient_to_csv,
    inflection,
    lcg,
    lcg_gcs_points,
    lcg_gradient_numeric,
    lcg_numeric,
    lcg_points_to_csv,
    lddc_histogram,
    line_residual,
    synthesize,
)
from gcspiral.profiles import REL_TOL
from tutil import FIG_SWEEP_R, gcs_profiles, lcg_point, random_gcs, unit_fractions

EPS = sys.float_info.epsilon

# n1 = kappa1 - kappa0 + r*kappa1 = 0: reciprocal-linear curvature.
LOG_SPIRAL = GcsProfile(3.0, 1.0, 1.0, 2.0)
CLOTHOID = GcsProfile(0.0, 2.0, math.pi, 0.0)
INFLECTING = GcsProfile(-1.0, 1.0, 2.0, 0.0)


def grid(profile, num=33):
    return np.linspace(0.0, profile.arc_length, num)


def _reference_lcg_numeric(profile, t_grid):
    """A per-point loop over lcg_numeric's formulas, on float t and math.log."""
    points, skipped = [], []
    for t in t_grid:
        k, kp = profile.kappa(t), profile.kappa_prime(t)
        if k == 0.0:
            skipped.append((t, "rho is not finite (inflection)"))
        elif kp == 0.0:
            skipped.append((t, "rho' = 0 (curvature extremum)"))
        else:
            points.append((t, -math.log(abs(k)), math.log(abs(k / kp))))
    return points, skipped


class TestNumericGraph:
    @pytest.mark.parametrize(
        "profile",
        [INFLECTING, LOG_SPIRAL, QuadraticProfile(1.0, 0.5, 2.0, 1.0),
         QuadraticProfile(-1.0, 0.5, 0.5, 2.0), ConstantProfile(1.5, 2.0)],
        ids=repr,
    )
    def test_matches_per_point_reference(self, profile):
        # Same arithmetic as the loop; np.log and math.log may differ by 1 ulp.
        t_grid = grid(profile, 65).tolist()
        points, skipped = lcg_numeric(profile, t_grid)
        expect_points, expect_skipped = _reference_lcg_numeric(profile, t_grid)
        assert skipped == expect_skipped
        assert [p.t for p in points] == [p[0] for p in expect_points]
        got, want = np.array(points).reshape(-1, 3), np.array(expect_points).reshape(-1, 3)
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))

    def test_constant_rho_skips_everything(self):
        points, skipped = lcg_numeric(ConstantProfile(1.0, 1.0), [0.0, 0.5, 1.0])
        assert points == []
        assert len(skipped) == 3
        assert all("rho'" in sk.reason for sk in skipped)

    def test_inflection_skipped_with_cause(self):
        points, skipped = lcg_numeric(INFLECTING, [0.0, 1.0, 2.0])
        assert [p.t for p in points] == [0.0, 2.0]
        assert len(skipped) == 1 and skipped[0].t == 1.0
        assert "inflection" in skipped[0].reason

    def test_reciprocal_linear_offset_identity(self):
        # rho = (r*t+S)/n0 is linear, so log_freq - log_rho = log(n0/r) at
        # every sample; nothing is skipped.
        points, skipped = lcg_numeric(LOG_SPIRAL, grid(LOG_SPIRAL))
        assert skipped == []
        offset = math.log(LOG_SPIRAL.n0 / LOG_SPIRAL.r)
        for p in points:
            assert p.log_freq == pytest.approx(p.log_rho + offset, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            lcg_numeric(CLOTHOID, [])
        with pytest.raises(DomainError):
            lcg_numeric(CLOTHOID, [0.0, 0.0])
        with pytest.raises(DomainError):
            lcg_numeric(CLOTHOID, [0.0, math.nan])
        # The closed-form route checks its grid the same way.
        for bad in ([], [2.0, 1.0, 0.5], [1.0, 1.0], [[0.5, 1.0]], ["0", "1"], [0.0, [1.0]]):
            with pytest.raises(DomainError):
                lcg_numeric(CLOTHOID, bad)
            with pytest.raises(DomainError):
                lcg_gcs_points(CLOTHOID, bad)
        with pytest.raises(DomainError, match=re.escape("s=2.5 outside")):
            lcg_numeric(INFLECTING, [0.0, 2.5])

    def test_kappa_and_slope_evaluated_once_per_grid(self, monkeypatch):
        calls = {"kappa": 0, "kappa_prime": 0}

        def counted(name):
            method = getattr(GcsProfile, name)

            def wrapper(self, s):
                calls[name] += 1
                return method(self, s)

            return wrapper

        for name in calls:
            monkeypatch.setattr(GcsProfile, name, counted(name))
        points, skipped = lcg_numeric(INFLECTING, grid(INFLECTING))
        assert calls == {"kappa": 1, "kappa_prime": 1}
        assert len(points) == 32 and [sp.t for sp in skipped] == [1.0]

    def test_skip_reasons_keep_first_match_order(self):
        # kappa = (t - 1)^2: at t = 1 both kappa and kappa' vanish, and the
        # inflection reason comes first.
        points, skipped = lcg_numeric(QuadraticProfile(1.0, 1.0, 1.0, 2.0), [0.0, 1.0, 2.0])
        assert [p.t for p in points] == [0.0, 2.0]
        assert skipped == [(1.0, "rho is not finite (inflection)")]
        # kappa = -t^2 + 2t + 0.5 peaks at t = 1.
        points, skipped = lcg_numeric(QuadraticProfile(-1.0, 0.5, 0.5, 2.0), [0.0, 1.0, 2.0])
        assert skipped == [(1.0, "rho' = 0 (curvature extremum)")]
        # kappa/kappa' underflows to 0 at t = 0, so log|rho/rho'| is -inf.
        points, skipped = lcg_numeric(LinearProfile(5e-324, 1e10, 1.0), [0.0, 1.0])
        assert [p.t for p in points] == [1.0]
        assert skipped == [(0.0, "LCG coordinate is not finite")]


class TestClosedForm:
    def test_matches_numeric_on_clothoid(self):
        p = GcsProfile(0.1, 2.0, math.pi, 0.0)
        numeric, _ = lcg_numeric(p, grid(p))
        for np_point in numeric:
            cf = lcg_point(p, np_point.t)
            assert cf.log_rho == pytest.approx(np_point.log_rho, abs=1e-12)
            assert cf.log_freq == pytest.approx(np_point.log_freq, abs=1e-12)

    def test_grid_matches_per_point_closed_form(self):
        # kappa = (t - 1) exactly, so the grid hits the inflection at t = 1.
        p = GcsProfile(-1.0, 1.0, 2.0, 0.0)
        points, skipped = lcg_gcs_points(p, np.linspace(0.0, 2.0, 9))
        expect_points, expect_reasons = [], []
        for t in np.linspace(0.0, 2.0, 9).tolist():
            try:
                expect_points.append(lcg_point(p, t))
            except DomainError as exc:
                expect_reasons.append((t, str(exc)))
        assert points == expect_points
        assert [(sp.t, sp.reason) for sp in skipped] == expect_reasons
        assert [sp.t for sp in skipped] == [1.0]

    def test_unit_curvature_point(self):
        # kappa(pi/2) = 1 for this profile, so log|rho| = 0 there.
        point = lcg_point(CLOTHOID, math.pi / 2.0)
        assert point.log_rho == pytest.approx(0.0, abs=1e-15)

    @given(gcs_profiles(min_kappa_gap=0.1), unit_fractions)
    def test_matches_numeric_everywhere(self, profile, frac):
        t = frac * profile.arc_length
        s_star = inflection(profile)
        if s_star is not None:
            assume(abs(t - s_star) > 1e-3 * profile.arc_length)
        try:
            cf = lcg_point(profile, t)
        except DomainError:
            assume(False)
        numeric, skipped = lcg_numeric(profile, [t])
        assert skipped == []
        assert cf.log_rho == pytest.approx(numeric[0].log_rho, rel=1e-10, abs=1e-10)
        assert cf.log_freq == pytest.approx(numeric[0].log_freq, rel=1e-10, abs=1e-10)

    def test_numeric_route_within_rounding(self):
        # Both routes form nu = n1*t + n0 and den = r*t + S as the same floats.
        # lcg_numeric logs kappa = nu/den and kappa/kappa' with kappa' =
        # -c/den/den, lcg_gcs_points den/nu and den*nu/c: the arguments differ
        # by 2 and 6 roundings of eps/2. NumPy validates float64 log to one
        # ulp, at most eps*|v| on each side.
        # Both routes clamp the grid to [0, S], so they label a point past S alike.
        u = EPS / 2.0
        rng = np.random.default_rng(2608)
        draws = [(p, grid(p)) for p in (random_gcs(rng, min_kappa_gap=1e-9) for _ in range(3000))]
        for p, t in draws + [(GcsProfile(0.5, 2.0, 3.0, 1.7), [0.0, 1.5, 3.0 + 3e-13])]:
            numeric = {point.t: point for point in lcg_numeric(p, t)[0]}
            for point in lcg_gcs_points(p, t)[0]:
                other = numeric[point.t]
                assert abs(other.log_rho - point.log_rho) <= u * (2.0 + 4.0 * abs(point.log_rho)), p
                assert abs(other.log_freq - point.log_freq) <= u * (6.0 + 4.0 * abs(point.log_freq))

    def test_circular_profile_rejected(self):
        with pytest.raises(DomainError, match="^LCG closed forms divide by kappa0 - kappa1"):
            lcg_point(GcsProfile(1.0, 1.0, 1.0, 0.5), 0.5)
        with pytest.raises(DomainError, match="kappa'"):
            lcg_gradient_numeric(GcsProfile(2.0, 2.0, 3.0, 0.0), 1.5)

    def test_inflection_point_rejected(self):
        points, skipped = lcg_gcs_points(INFLECTING, [1.0])
        assert points == []
        assert skipped == [
            (1.0, "curvature vanishes at t=1.0 (inflection); LCG point undefined")
        ]

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            lcg_point(CLOTHOID, -0.5)
        with pytest.raises(DomainError):
            lcg_point(CLOTHOID, 2.0 * math.pi)

    def test_grid_wrapper_collects_diagnostics(self):
        points, skipped = lcg_gcs_points(INFLECTING, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert [p.t for p in points] == [0.0, 0.5, 1.5, 2.0]
        assert len(skipped) == 1 and skipped[0].t == 1.0


def _assert_lcg_rows(points, skipped):
    assert points and skipped
    for q in points:
        assert type(q) is LcgPoint and len(q) == 3
        assert (q.t, q.log_rho, q.log_freq) == tuple(q) == LcgPoint(*q)
        assert q._asdict() == {"t": q[0], "log_rho": q[1], "log_freq": q[2]}
    for sp in skipped:
        assert type(sp) is SkippedPoint and len(sp) == 2
        assert (sp.t, sp.reason) == tuple(sp) == SkippedPoint(*sp)
        assert isinstance(sp.t, float) and isinstance(sp.reason, str)


class TestRowTypes:
    def test_closed_form_rows_are_named_tuples(self):
        _assert_lcg_rows(*lcg_gcs_points(INFLECTING, grid(INFLECTING)))

    def test_numeric_rows_are_named_tuples(self):
        _assert_lcg_rows(*lcg_numeric(INFLECTING, grid(INFLECTING)))


class TestGradient:
    def test_reciprocal_linear_gradient_is_one(self):
        for t in grid(LOG_SPIRAL).tolist():
            assert gradient_gcs(LOG_SPIRAL, t) == 1.0

    def test_clothoid_gradient_is_minus_one(self):
        for t in grid(CLOTHOID).tolist():
            assert gradient_gcs(CLOTHOID, t) == -1.0

    def test_matches_numeric_route(self):
        p = GcsProfile(0.3, 1.7, 2.0, 1.5)
        for t in grid(p).tolist():
            numeric = lcg_gradient_numeric(p, t)
            assert gradient_gcs(p, t) == pytest.approx(numeric, rel=1e-10, abs=1e-10)

    def test_finite_through_inflection(self):
        value = gradient_gcs(INFLECTING, 1.0)
        assert math.isfinite(value)

    @pytest.mark.parametrize("profile", [
        INFLECTING,
        GcsProfile(-1.0, 2.0, 2.0, 0.5),  # inflects with r > 0
        GcsProfile(2.0, 0.3, 1.5, -0.99),
        GcsProfile(-0.5, 1.5, 3.0, -0.7),  # inflects with r < 0
        GcsProfile(0.5, -2.0, 3.0, 100.0),
        GcsProfile(0.1, 2.0, math.pi, 1e6),
    ])
    def test_float_calls_equal_array_call_bit_for_bit(self, profile):
        S = profile.arc_length
        t = np.concatenate(([-1e-15], np.linspace(0.0, S, 257), [S * (1.0 + 1e-16)]))
        whole = gradient_gcs(profile, t)
        single = [gradient_gcs(profile, v) for v in t.tolist()]
        assert all(type(v) is float for v in single)
        assert np.array_equal(whole.view(np.int64), np.array(single).view(np.int64))

    def test_out_of_domain_float_named(self):
        S = INFLECTING.arc_length
        for bad in (math.nan, math.inf, -math.inf, -0.5, S + 0.5):
            with pytest.raises(DomainError, match=re.escape(f"s={bad!r} outside")):
                gradient_gcs(INFLECTING, bad)

    def test_matches_log_space_finite_differences(self):
        for r in FIG_SWEEP_R:
            p = GcsProfile(0.0, 2.0, math.pi, r)
            h = 1e-5 * p.arc_length
            for t in np.linspace(0.15 * p.arc_length, 0.85 * p.arc_length, 9).tolist():
                hi = lcg_point(p, t + h)
                lo = lcg_point(p, t - h)
                fd = (hi.log_freq - lo.log_freq) / (hi.log_rho - lo.log_rho)
                assert gradient_gcs(p, t) == pytest.approx(fd, abs=1e-6)

    def test_numeric_singularities_raise(self):
        with pytest.raises(DomainError, match=r"^kappa'\(0\.5\) = 0"):
            lcg_gradient_numeric(ConstantProfile(1.0, 1.0), 0.5)

    def test_numeric_array_equals_per_element_calls(self):
        p = GcsProfile(0.3, 1.7, 2.0, 1.5)
        t = grid(p)
        whole = lcg_gradient_numeric(p, t)
        assert whole.dtype == np.float64 and whole.shape == t.shape
        single = [lcg_gradient_numeric(p, v) for v in t.tolist()]
        assert all(type(v) is float for v in single)
        assert whole.tolist() == single

    def test_numeric_finite_through_inflection(self):
        value = lcg_gradient_numeric(INFLECTING, 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(gradient_gcs(INFLECTING, 1.0), rel=1e-12, abs=1e-12)

    def test_numeric_names_first_singular_t(self):
        # kappa = -t^2 + 2t + 0.5 has kappa' = 0 at t = 1.
        p = QuadraticProfile(-1.0, 0.5, 0.5, 2.0)
        with pytest.raises(DomainError, match=r"^kappa'\(1\.0\) = 0"):
            lcg_gradient_numeric(p, [0.0, 0.5, 1.0, 1.5, 2.0])
        with pytest.raises(DomainError, match=r"^kappa'\(1\.0\) = 0"):
            lcg_gradient_numeric(p, 1.0)
        assert lcg_gradient_numeric(p, [0.0, 0.5, 1.5, 2.0]).shape == (4,)


class TestGradientLine:
    def test_clothoid_line(self):
        line = gradient_line(CLOTHOID)
        assert line.slope_a == 0.0
        assert line.intercept_b == -1.0
        assert line.domain == (0.0, math.pi)

    def test_reciprocal_linear_line(self):
        line = gradient_line(LOG_SPIRAL)
        assert line.slope_a == 0.0
        assert line.intercept_b == pytest.approx(1.0, abs=1e-15)

    def test_zero_start_curvature_line(self):
        line = gradient_line(GcsProfile(0.0, 2.0, math.pi, 1.0))
        assert line.slope_a == pytest.approx(-2.0 / math.pi, rel=1e-15)
        assert line.intercept_b == -1.0

    @pytest.mark.parametrize("r", FIG_SWEEP_R)
    def test_zero_start_curvature_sweep(self, r):
        p = GcsProfile(0.0, 2.0, math.pi, r)
        line = gradient_line(p)
        assert line.intercept_b == -1.0
        assert line.slope_a == pytest.approx(-2.0 * r / math.pi, rel=1e-12, abs=1e-300)

    @given(gcs_profiles(min_kappa_gap=0.1), unit_fractions)
    @settings(max_examples=80)
    def test_line_reproduces_gradient(self, profile, frac):
        t = frac * profile.arc_length
        line = gradient_line(profile)
        g = gradient_gcs(profile, t)
        assert line(t) == pytest.approx(g, rel=1e-12, abs=1e-12 * (1.0 + abs(g)))

    @pytest.mark.parametrize("args", [(1.0, 1e-90, 1e-10, 1e200), (1e10, 0.0, 1e-10, 1e300)])
    def test_overflowing_line_rejected(self, args):
        # 2*r*n1 and 2*r*kappa0 overflow although the gradient is finite at both ends.
        p = GcsProfile(*args)
        assert np.all(np.isfinite(gradient_gcs(p, [0.0, p.arc_length])))
        with pytest.raises(DomainError, match="profile parameters overflow the LCG gradient line"):
            gradient_line(p)

    def test_residual_of_exact_line_vanishes(self):
        p = GcsProfile(0.3, 1.7, 2.0, 1.5)
        assert line_residual(p, gradient_line(p)) <= 1e-12

    def test_residual_grid_validated(self):
        p = GcsProfile(0.3, 1.7, 2.0, 1.5)
        for num in (1, 2.5):
            with pytest.raises(DomainError):
                line_residual(p, gradient_line(p), num=num)


class TestLcgLineModel:
    def test_evaluates_as_affine_map(self):
        line = LcgLine(2.0, -1.0, (0.0, 1.0))
        assert line(0.5) == 0.0

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(DomainError):
            LcgLine(math.nan, 0.0, (0.0, 1.0))
        with pytest.raises(DomainError):
            LcgLine("1", 0, (0, 1))
        for residual in (-1.0, math.nan, math.inf, True, "0"):
            with pytest.raises(DomainError, match="residual"):
                LcgLine(0.0, 1.0, (0.0, 1.0), residual=residual)
        assert LcgLine(0.0, 1.0, (0.0, 1.0), residual=np.float32(0.5)).residual == 0.5

    def test_rejects_empty_domain(self):
        for bad in ((1.0, 1.0), (0.0, 1.0, 2.0), 5.0):
            with pytest.raises(DomainError):
                LcgLine(1.0, 0.0, bad)


class TestClassification:
    def test_constant_gradient_is_log_aesthetic(self):
        line = gradient_line(CLOTHOID)
        assert classify_aesthetic(line, 0.0) is AestheticClass.LOG_AESTHETIC

    def test_linear_gradient_is_gcs(self):
        line = gradient_line(GcsProfile(0.0, 2.0, math.pi, 1.0))
        assert classify_aesthetic(line, 0.0) is AestheticClass.GCS

    def test_large_residual_is_other(self):
        line = LcgLine(0.0, 1.0, (0.0, 1.0))
        assert classify_aesthetic(line, 0.5) is AestheticClass.OTHER

    def test_slope_tolerance_is_relative_to_domain_span(self):
        line = LcgLine(5e-7, 1.0, (0.0, 1.0))
        assert classify_aesthetic(line, 0.0) is AestheticClass.LOG_AESTHETIC
        # On a span of 100 the slope tolerance is 1e-8.
        wide = LcgLine(5e-7, 1.0, (0.0, 100.0))
        assert classify_aesthetic(wide, 0.0) is AestheticClass.GCS

    def test_tolerance_validation(self):
        line = LcgLine(0.0, 1.0, (0.0, 1.0))
        for tol_fit in (0.0, "x"):
            with pytest.raises(DomainError):
                classify_aesthetic(line, 0.0, tol_fit=tol_fit)
        for residual in (-1.0, True):
            with pytest.raises(DomainError):
                classify_aesthetic(line, residual)

    def test_fit_is_residual_at_most_tol_fit(self):
        # The plain rule, however steep the line: A t + B is 1e11 and -1e11 at the steep ends.
        steep = LcgLine(-1e11, 1e11, (0.0, 2.0))
        for line in (steep, LcgLine(1.0, 0.0, (0.0, 1.0))):
            assert classify_aesthetic(line, 1e-6) is AestheticClass.GCS
            assert classify_aesthetic(line, math.nextafter(1e-6, 1.0)) is AestheticClass.OTHER


class TestFamilyMaps:
    """Exact maps within the GCS family, on seeded draws over tutil's ranges.

    Mirror, (-kappa0, -kappa1, S, r), negates n1, n0 and c exactly, so the
    LCG, the gradient line and the LDDC histogram keep every bit. Reversal,
    (kappa1, kappa0, S, -r/(1+r)), reads the same curvature from the other
    end and maps the gradient line A*t + B to -A*t + (A*S + B); read on
    S - t, its LCG points are p's in reverse order and its LDDC histogram
    is p's. Scaling by
    lam, (kappa0/lam, kappa1/lam, lam*S, r), multiplies rho by lam: both LCG
    coordinates shift by log(lam), A becomes A/lam and B stays, and the LDDC
    edges shift by log10(lam) while its lengths scale by lam.

    The scaling bounds are first order in u = eps/2 and carry the condition
    numbers of what the rounded kappa0/lam and kappa1/lam feed:
    K = (|kappa0| + |kappa1|)/|kappa0 - kappa1| for kappa0 - kappa1, and
    (P*t + |n0|)/|nu| for nu = n1*t + n0, with P = |kappa0| + |kappa1| +
    |r*kappa1|, which is unbounded at an inflection. NumPy validates float64
    log and log10 to one ulp, at most 2*u*|v| for a result v.
    """

    DRAWS = 3000

    def test_mirror_keeps_every_bit(self):
        rng = np.random.default_rng(2604)
        for _ in range(self.DRAWS):
            p = random_gcs(rng, min_kappa_gap=1e-9)
            q = GcsProfile(-p.kappa0, -p.kappa1, p.arc_length, p.r)
            t = np.linspace(0.0, p.arc_length, 33)
            assert repr(lcg_gcs_points(q, t)) == repr(lcg_gcs_points(p, t)), p
            assert repr(gradient_line(q)) == repr(gradient_line(p)), p
            hp, hq = (lddc_histogram((t, f.kappa(t)), 8) for f in (p, q))
            assert hq.bin_edges.tobytes() == hp.bin_edges.tobytes(), p
            assert hq.lengths.tobytes() == hp.lengths.tobytes(), p
            assert (hq.total_length, hq.excluded_length) == (hp.total_length, hp.excluded_length)

    @staticmethod
    def reversal_rounding(p, line):
        """First-order rounding bound on either coefficient of the reversed line.

        With u = eps/2, W = max(1, |A|*S, |B|) and rho = |r|/(1+r): A*S
        rounds by at most u*(8*W + 4*rho) (n1 cancels, the rest rounds
        once each) and B by 11*u*W; the reversed profile, whose W is at
        most 2W and whose rho is |r|, by u*(16*W + 4*|r|) and 17*u*W.
        -r/(1+r) rounds twice, by 2*u*|q|, which moves the reversed A*S
        by u*(8 + 6*(1+r))*W and B by 6*u*(1+r)*W. Forming A*S + B adds
        3*u*W.
        """
        W = max(1.0, abs(line.slope_a) * p.arc_length, abs(line.intercept_b))
        r = abs(p.r)
        return EPS / 2.0 * ((39.0 + 6.0 * (1.0 + p.r)) * W + 4.0 * r + 4.0 * r / (1.0 + p.r))

    def test_reversal_maps_the_gradient_line(self):
        rng = np.random.default_rng(2605)
        for _ in range(self.DRAWS):
            p = random_gcs(rng, min_kappa_gap=1e-9)
            line = gradient_line(p)
            back = gradient_line(GcsProfile(p.kappa1, p.kappa0, p.arc_length, -p.r / (1.0 + p.r)))
            S = p.arc_length
            bound = self.reversal_rounding(p, line)
            assert abs(back.slope_a + line.slope_a) * S <= bound, p
            assert abs(back.intercept_b - (line.slope_a * S + line.intercept_b)) <= bound, p
            assert back.domain == line.domain

    @staticmethod
    def scaled(p, lam):
        return GcsProfile(p.kappa0 / lam, p.kappa1 / lam, lam * p.arc_length, p.r)

    def draws(self, seed):
        """(p, lam) pairs: tutil's profiles, lam log-uniform over [0.01, 100]."""
        rng = np.random.default_rng(seed)
        for _ in range(self.DRAWS):
            yield random_gcs(rng, min_kappa_gap=1e-9), 10.0 ** rng.uniform(-2.0, 2.0)

    @staticmethod
    def scaling_rounding(p, line):
        """Bounds on the scaled line's change in A*S and in B.

        With d = kappa0 - kappa1, A*S = -T1 + T2*sign and B + 1 = X, where
        T1 = 2|r|/(1+r), T2 = 2*r^2*|kappa1|/((1+r)|d|) and X = 2*r*kappa0/
        ((1+r)*d). n1 rounds by u*(|d| + |r*kappa1| + |n1|), which moves A*S
        by u*(T1 + T2 + |A*S|); A's formula rounds 6 times and the test's *S
        once. B + 1 rounds 5 times and B once more. The scaled profile
        repeats all of it, and its rounded kappas move kappa1/d and
        kappa0/d by u*(1 + K).
        """
        k0, k1, r = p.kappa0, p.kappa1, p.r
        d = abs(k0 - k1)
        K = (abs(k0) + abs(k1)) / d
        a_s, b = abs(line.slope_a) * p.arc_length, line.intercept_b
        t1, t2 = 2.0 * abs(r) / (1.0 + r), 2.0 * r * r * abs(k1) / ((1.0 + r) * d)
        u = EPS / 2.0
        bound_a_s = u * (16.0 * a_s + 2.0 * t1 + (3.0 + K) * t2)
        return bound_a_s, u * ((11.0 + K) * abs(b + 1.0) + 2.0 * abs(b))

    def test_scaling_maps_the_gradient_line(self):
        for p, lam in self.draws(2606):
            q = self.scaled(p, lam)
            line, scaled = gradient_line(p), gradient_line(q)
            bound_a_s, bound_b = self.scaling_rounding(p, line)
            a_s = line.slope_a * p.arc_length
            assert abs(scaled.slope_a * q.arc_length - a_s) <= bound_a_s, (p, lam)
            assert abs(scaled.intercept_b - line.intercept_b) <= bound_b, (p, lam)
            assert scaled.domain == (0.0, q.arc_length)

    @staticmethod
    def quotient_rounding(p, t):
        """Relative bounds, p's and the scaled profile's rounding together, on
        nu = n1*t + n0 and den = r*t + S at p's grid t.

        linspace puts t within 2u of i*S/(n-1) and the scaled grid within
        3u of lam times it. n1*t then rounds by u*5*P*t, n0 = kappa0*S by
        u*|n0| and the sum by u*|nu|; the scaled profile adds u*2*P*t for
        its rounded kappas and t and u*2*|n0| for its rounded kappa0 and S.
        den rounds by u*(3|r|t + den) and, scaled, by u*(4|r|t + S + den);
        den >= S*min(1, 1 + r) never cancels.
        """
        k0, k1, r, S = p.kappa0, p.kappa1, p.r, p.arc_length
        nu, den = p.n1 * t + p.n0, r * t + S
        magnitude = (abs(k0) + abs(k1) + abs(r * k1)) * t + abs(p.n0)
        u = EPS / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_nu = u * (12.0 * magnitude + 2.0 * np.abs(nu)) / np.abs(nu)
        return rel_nu, u * (7.0 * abs(r) * t + S + 2.0 * den) / den

    @staticmethod
    def log_shift(rel):
        """The largest |log(x/y)| for |x/y - 1| <= rel; inf where rel >= 1/2."""
        with np.errstate(invalid="ignore"):
            return np.where(rel < 0.5, -np.log1p(-np.minimum(rel, 0.5)), np.inf)

    def test_scaling_shifts_the_lcg_points(self):
        u = EPS / 2.0
        for p, lam in self.draws(2607):
            q = self.scaled(p, lam)
            t = np.linspace(0.0, p.arc_length, 33)
            rel_nu, rel_den = self.quotient_rounding(p, t)
            rel = rel_nu + rel_den + 2.0 * u  # and den/nu rounds once on each side
            points = {round(v.t * 32 / p.arc_length): v for v in lcg_gcs_points(p, t)[0]}
            t_scaled = np.linspace(0.0, q.arc_length, 33)
            scaled = {round(v.t * 32 / q.arc_length): v for v in lcg_gcs_points(q, t_scaled)[0]}
            # A point near an inflection is kept on one side only when |nu/den|
            # is within rounding of the threshold (scale rounds by 2u, scaled).
            nu_den = np.abs(p.n1 * t + p.n0) / (p.r * t + p.arc_length) / (REL_TOL * p.scale)
            for i in points.keys() ^ scaled.keys():
                assert abs(nu_den[i] - 1.0) <= rel[i] + 4.0 * u, (p, lam, i)
            # den*nu/c rounds twice a side and c = S*(1+r)*d 4 times; the scaled d
            # moves by u*K and S by u.
            K = (abs(p.kappa0) + abs(p.kappa1)) / abs(p.kappa0 - p.kappa1)
            rho_shift, freq_shift = self.log_shift(rel), self.log_shift(rel + u * (11.0 + K))
            log_lam = math.log(lam)
            for i in points.keys() & scaled.keys():
                v, w = points[i], scaled[i]
                assert abs(w.t - lam * v.t) <= 6.0 * u * lam * p.arc_length
                # Three logs of one ulp, and the test's subtraction.
                for a, b, shift in (
                    (v.log_rho, w.log_rho, rho_shift[i]),
                    (v.log_freq, w.log_freq, freq_shift[i]),
                ):
                    logs = 2.0 * u * (abs(a) + abs(b) + abs(log_lam)) + u * abs(a)
                    assert abs(b - log_lam - a) <= shift + logs, (p, lam, i)

    def test_scaling_shifts_the_lddc_histogram(self):
        for p, lam in self.draws(2608):
            q = self.scaled(p, lam)
            t = np.linspace(0.0, p.arc_length, 256)
            kappa = p.kappa(t)
            hist = lddc_histogram((t, kappa), 16)
            t_scaled = np.linspace(0.0, q.arc_length, 256)
            scaled = lddc_histogram((t_scaled, q.kappa(t_scaled)), 16)
            assert scaled.total_length == lam * hist.total_length
            self.assert_histogram_maps(p, lam, kappa, hist, scaled, *self.quotient_rounding(p, t))

    def assert_histogram_maps(self, p, lam, kappa, hist, mapped, rel_nu, rel_den):
        """`mapped`, the 16-bin histogram of a map of p on its own 256-point
        grid, holds the bins of `hist`, p's over its grid t with curvatures
        `kappa`, with edges shifted by log10(lam) and lengths times lam.
        rel_nu and rel_den bound both sides' rounding of nu and den at t, and
        a grid point is within 5u*lam*S of its place on both grids together.

        Each side bins 255 segments by its own default edges.
        kappa_mid = kappa_i/2 + kappa_(i+1)/2 adds u*|kappa_mid| of rounding a
        side to half the kappas' own, and a segment whose log10 rho lies
        within its bound plus the edges' bound of an interior edge may bin
        either side of it. Segment lengths are exact differences of the grid
        (Sterbenz), so a bin, which holds at most two runs of segments as
        |kappa| is monotone either side of an inflection, differs by the grid
        error at four run ends, 5u*lam*S each, plus bincount's sum, n*u of
        the bin on each side, plus each segment that moved. With |kappa0 -
        kappa1| >= 1e-9 and |kappa| <= 10, the log10 rho span exceeds 4e-11,
        so neither side pads its edges (below a 1e-12 span).
        """
        u = EPS / 2.0
        err = (rel_nu + rel_den + 2.0 * u) * np.abs(kappa)
        mid = 0.5 * kappa[:-1] + 0.5 * kappa[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_mid = (0.5 * (err[:-1] + err[1:]) + 2.0 * u * np.abs(mid)) / np.abs(mid)
        threshold = REL_TOL * max(np.max(np.abs(kappa)), 1.0 / p.arc_length)
        rel_threshold = np.max(rel_nu + rel_den) + 4.0 * u
        if np.any(np.abs(np.abs(mid) / threshold - 1.0) <= rel_mid + rel_threshold):
            return  # which segments are excluded, and so the edges, is rounding's choice
        log_rho = -np.log10(np.abs(mid[np.abs(mid) >= threshold]))
        log_lam = math.log10(lam)
        reach = self.log_shift(rel_mid[np.abs(mid) >= threshold]) / math.log(10.0)
        reach += 2.0 * u * (2.0 * np.abs(log_rho) + abs(log_lam))
        # Each end of the edges is some segment's value; linspace rounds
        # each edge by u*(2*|hi - lo| + |edge|) a side.
        edges, span = hist.bin_edges, np.ptp(log_rho)
        edge_reach = reach.max() + 2.0 * u * (2.0 * span + 2.0 * np.abs(edges) + abs(log_lam))
        assert np.all(np.abs(mapped.bin_edges - log_lam - edges) <= edge_reach), (p, lam)
        near = np.abs(log_rho[:, None] - edges[1:-1]) <= reach[:, None] + edge_reach[1:-1]
        step = p.arc_length / 255
        counts = np.rint(hist.lengths / step)
        moved = np.abs(np.rint(mapped.lengths / (lam * step)) - counts)
        assert moved.sum() <= 2 * np.count_nonzero(near.any(axis=1)), (p, lam)
        grid_ends = 20.0 * u * lam * p.arc_length
        bound = (moved * step + 2.0 * u * counts * hist.lengths) * lam
        bound += grid_ends * (1.0 + moved)
        assert np.all(np.abs(mapped.lengths - lam * hist.lengths) <= bound), (p, lam)
        bound = 2.0 * u * 255 * lam * hist.excluded_length + grid_ends
        assert abs(mapped.excluded_length - lam * hist.excluded_length) <= bound, (p, lam)

    @staticmethod
    def reversed_profile(p):
        return GcsProfile(p.kappa1, p.kappa0, p.arc_length, -p.r / (1.0 + p.r))

    @staticmethod
    def reversal_quotient_rounding(p, t):
        """Relative bounds, p's rounding at its grid t and the reversed
        profile's at fl(S - t) together, on nu = n1*t + n0 and den = r*t + S.

        The reversed profile q, with r' = -r/(1+r), has nu' = nu/(1+r) and
        den' = den/(1+r) at S - t, so the same quotient. p's n1 rounds by
        u*(|kappa1 - kappa0| + |r*kappa1| + |n1|) <= 2u*P, with P = |kappa0| +
        |kappa1| + |r*kappa1|; n1*t rounds by u*P*t, n0 by u*|n0| and the sum
        by u*|nu|. den rounds by u*(|r|*t + den). q's n1' = -n1/(1+r) rounds
        by 2u*P' with P' = |kappa0| + |kappa1| + |r'*kappa0|, its product by
        u*P'*t', n0' = kappa1*S by u*|n0'| and the sum by u*|nu'|, at t' =
        fl(S - t), within u*t' of S - t, which moves nu' by u*P'*t' more and
        den' by u*|r'|*t'. r' rounds twice, by 2u*|r'|: that moves nu' by
        2u*|r'*kappa0|*t' and den' by 2u*|r'|*t', which r'*t' and the sum
        round by u*|r'|*t' and u*den' more.
        """
        k0, k1, r, S = p.kappa0, p.kappa1, p.r, p.arc_length
        r_back = -r / (1.0 + r)
        nu, den, t_back = p.n1 * t + p.n0, r * t + S, S - t
        nu_back, den_back = nu / (1.0 + r), den / (1.0 + r)
        magnitude = 3.0 * (abs(k0) + abs(k1) + abs(r * k1)) * t + abs(p.n0)
        magnitude_back = 4.0 * (abs(k0) + abs(k1) + abs(r_back * k0)) * t_back + abs(k1 * S)
        magnitude_back += 2.0 * abs(r_back * k0) * t_back
        u = EPS / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_nu = u * ((magnitude + np.abs(nu)) / np.abs(nu)
                          + (magnitude_back + np.abs(nu_back)) / np.abs(nu_back))
        rel_den = u * ((abs(r) * t + den) / den + (4.0 * abs(r_back) * t_back + den_back) / den_back)
        return rel_nu, rel_den

    def test_reversal_reverses_the_lcg_points(self):
        u = EPS / 2.0
        rng = np.random.default_rng(2609)
        for _ in range(self.DRAWS):
            p = random_gcs(rng, min_kappa_gap=1e-9)
            q, S = self.reversed_profile(p), p.arc_length
            t = np.linspace(0.0, S, 33)
            rel_nu, rel_den = self.reversal_quotient_rounding(p, t)
            rel = rel_nu + rel_den + 2.0 * u  # and den/nu rounds once on each side
            points = {round(v.t * 32 / S): v for v in lcg_gcs_points(p, t)[0]}
            # q's points, in q's order, keyed by the index of p's grid point they read.
            back = {32 - round(v.t * 32 / S): v for v in lcg_gcs_points(q, S - t[::-1])[0]}
            assert list(back) == sorted(back, reverse=True)
            # A point near an inflection is kept on one side only when |nu/den|
            # is within rounding of the threshold, which both sides share.
            nu_den = np.abs(p.n1 * t + p.n0) / (p.r * t + S) / (REL_TOL * p.scale)
            for i in points.keys() ^ back.keys():
                assert abs(nu_den[i] - 1.0) <= rel[i] + 4.0 * u, (p, i)
            # den*nu/c rounds twice a side. c = S*(1+r)*(kappa0 - kappa1) rounds 4
            # times a side, and q's 1 + r' = 1/(1+r) carries r' to it as 2u*|r|.
            rho_shift = self.log_shift(rel)
            freq_shift = self.log_shift(rel + u * (12.0 + 2.0 * abs(p.r)))
            for i in points.keys() & back.keys():
                v, w = points[i], back[i]
                assert abs((S - w.t) - v.t) <= 2.0 * u * S
                # Two logs of one ulp, and the test's subtraction.
                for a, b, shift in (
                    (v.log_rho, w.log_rho, rho_shift[i]),
                    (v.log_freq, w.log_freq, freq_shift[i]),
                ):
                    assert abs(b - a) <= shift + 2.0 * u * (abs(a) + abs(b)) + u * abs(a), (p, i)

    def test_reversal_keeps_the_lddc_histogram(self):
        # fl(S - t) adds u*S to the grid error of a reversed run end: 5u*S, as scaling's.
        rng = np.random.default_rng(2610)
        for _ in range(self.DRAWS):
            p = random_gcs(rng, min_kappa_gap=1e-9)
            q, S = self.reversed_profile(p), p.arc_length
            t = np.linspace(0.0, S, 256)
            kappa = p.kappa(t)
            hist = lddc_histogram((t, kappa), 16)
            t_back = S - t[::-1]
            back = lddc_histogram((t_back, q.kappa(t_back)), 16)
            assert back.total_length == hist.total_length
            rounding = self.reversal_quotient_rounding(p, t)
            self.assert_histogram_maps(p, 1.0, kappa, hist, back, *rounding)

    @staticmethod
    def reversal_stencil_rounding(f, rel, h):
        """First-order bound, both sides' rounding together, on |g' - g| per
        sample, where g is the gradient gradient_from_samples takes from the
        stencil input f (kappa, or rho = 1/kappa) on p's grid of step h, g'
        the one it takes from the reversed profile's input, which differs
        from f by at most rel*|f| per sample, and the two sides read in
        opposite orders.

        Each stencil of _stencil_derivatives is its own mirror image: f'
        changes sign, f'' does not, and h cancels from f*f''/f'**2. So the
        stencils' truncation maps with the samples, and in exact arithmetic
        the two sides' gradients agree. With u = eps/2, d = rel*|f| and
        F = |f| + d, which bounds both sides' |f|: D1 = 2*h*f' moves by its
        inputs' d times the stencil weights and rounds by u*(|a| + |b|) a
        side in the interior, 3u*(3|a| + 4|b| + |c|) at an end;
        D2 = h*h*f'' by 2u*(|a| + 2|b| + |c|) and 4u*(2|a| + 5|b| + 4|c| +
        |d|). f*f''/f'**2 then rounds 7 times a side (the /h*h, the /2h
        squared, the product, the square and the quotient), its f moves by
        rel, its D1 counts twice, and g = +-(Q - 1) rounds once more.
        """
        u = EPS / 2.0
        d = rel * np.abs(f)
        F = np.abs(f) + d
        d_1 = np.empty(len(f))
        d_2 = np.empty(len(f))
        d_1[1:-1] = d[2:] + d[:-2] + 2.0 * u * (F[2:] + F[:-2])
        d_2[1:-1] = d[2:] + 2.0 * d[1:-1] + d[:-2] + 4.0 * u * (F[2:] + 2.0 * F[1:-1] + F[:-2])
        for end, run in ((0, slice(0, 4)), (-1, slice(-1, -5, -1))):
            (a, b, c, e), (fa, fb, fc, fe) = d[run], F[run]
            d_1[end] = 3.0 * a + 4.0 * b + c + 6.0 * u * (3.0 * fa + 4.0 * fb + fc)
            d_2[end] = 2.0 * a + 5.0 * b + 4.0 * c + e
            d_2[end] += 8.0 * u * (2.0 * fa + 5.0 * fb + 4.0 * fc + fe)
        f_p, f_pp = lcg._stencil_derivatives(f, h)
        q = np.abs(f * f_pp / (f_p * f_p))
        bound = q * (14.0 * u + rel + d_1 / (h * np.abs(f_p))) + F * d_2 / (h * h * f_p * f_p)
        return bound + 2.0 * u * (q + 1.0)

    def test_reversal_maps_the_sampled_gradient(self):
        """Read on S - s, the reversed profile's sampled gradient trace is p's
        in reverse order, and its fitted line is (-A, A*S + B).

        The fit is linear in the interior trace: with weights w_i = (s_i -
        mean s)/sum((s_j - mean s)**2), A moves by at most sum |w_i|*e_i for
        trace bounds e_i, and the line's value at S by mean(e) + (S - mean
        s) times that. e_i adds to the stencils' bound |A| times the
        reversed grid's 2u*S, and both sides' least-squares solve, m*u*16 of
        max|g| each over m samples: a backward-stable solve of the
        column-scaled [s, 1], whose condition number is below 4 on a uniform
        grid. A*S + B rounds in the test.
        """
        u = EPS / 2.0
        n = 2001
        rng = np.random.default_rng(2611)
        for _ in range(self.DRAWS):
            p = random_gcs(rng, min_kappa_gap=1e-9)
            q, S = self.reversed_profile(p), p.arc_length
            t = np.linspace(0.0, S, n)
            kappa = p.kappa(t)
            trace, line = gradient_from_samples((t, kappa))
            t_back = S - t[::-1]
            back_trace, back = gradient_from_samples((t_back, q.kappa(t_back)))
            # No draw puts a sample within REL_TOL*scale of an inflection, so
            # both sides keep every sample.
            assert len(trace) == len(back_trace) == n, p
            rel_nu, rel_den = self.reversal_quotient_rounding(p, t)
            rel = rel_nu + rel_den + 2.0 * u  # and nu/den rounds once on each side
            if kappa.min() < 0.0 < kappa.max():
                bound = self.reversal_stencil_rounding(kappa, rel, t[1] - t[0])
            else:  # rho = 1/kappa rounds once more on each side
                bound = self.reversal_stencil_rounding(1.0 / kappa, rel + 2.0 * u, t[1] - t[0])
            assert np.all(np.abs((S - back_trace[::-1, 0]) - t) <= 2.0 * u * S), p
            assert np.all(np.abs(back_trace[::-1, 1] - trace[:, 1]) <= bound), p
            A, B = line.slope_a, line.intercept_b
            s, g = t[1:-1], trace[1:-1, 1]
            e = bound[1:-1] + 2.0 * u * S * abs(A) + 32.0 * len(s) * u * np.max(np.abs(g))
            w = (s - s.mean()) / np.sum((s - s.mean()) ** 2)
            bound_a = float(np.sum(np.abs(w) * e))
            assert abs(back.slope_a + A) <= bound_a, p
            bound_b = e.mean() + bound_a * (S - s.mean()) + u * (abs(A) * S + abs(A * S + B))
            assert abs(back.intercept_b - (A * S + B)) <= bound_b, p
            assert back.domain == line.domain


class TestSampledGradient:
    def test_recovers_known_line(self):
        # Curvature bounded away from zero keeps the rho stencils accurate.
        p = GcsProfile(0.5, 2.0, math.pi, 1.0)
        exact = gradient_line(p)
        curve = synthesize(p, config=QuadratureConfig(samples_per_curve=2000))
        trace, line = gradient_from_samples(curve)
        assert abs(line.slope_a - exact.slope_a) <= 1e-4
        assert abs(line.intercept_b - exact.intercept_b) <= 1e-4
        assert line.residual <= 1e-3
        assert len(trace) == 2000

    @pytest.mark.parametrize(
        "p",
        [
            GcsProfile(-1.0, 2.0, 3.0, 1.0),
            GcsProfile(2.0, -1.0, 3.0, -0.5),
            GcsProfile(-2.0, 1.0, 2.0, 0.5),
        ],
        ids=repr,
    )
    def test_recovers_line_through_inflection(self, p):
        # rho = 1/kappa diverges at the sign change; the kappa form does not.
        assert inflection(p) is not None
        exact = gradient_line(p)
        curve = synthesize(p, config=QuadratureConfig(samples_per_curve=2000))
        trace, line = gradient_from_samples(curve)
        assert abs(line.slope_a - exact.slope_a) <= 1e-3
        assert abs(line.intercept_b - exact.intercept_b) <= 1e-3
        assert classify_aesthetic(line, line.residual, tol_fit=1e-2) == AestheticClass.GCS
        assert type(trace) is np.ndarray and trace.dtype == np.float64
        assert trace.ndim == 2 and trace.shape[1] == 2 and len(trace) > 1900

    def test_reciprocal_linear_fit_is_exact_for_stencils(self):
        # rho is linear in s, so second differences vanish and the
        # estimated gradient is 1 at machine precision.
        curve = synthesize(LOG_SPIRAL, config=QuadratureConfig(samples_per_curve=500))
        _, line = gradient_from_samples(curve)
        assert abs(line.slope_a) <= 1e-3
        assert abs(line.intercept_b - 1.0) <= 1e-3
        assert line.residual <= 1e-6

    def test_circle_rejected(self):
        curve = synthesize(ConstantProfile(2.0, math.pi))
        with pytest.raises(DomainError, match=r"^curvature is constant \(circular arc\)"):
            gradient_from_samples(curve)

    def test_interior_extremum_rejected(self):
        p = QuadraticProfile(-1.0, 0.5, 0.5, 2.0)
        curve = synthesize(p, config=QuadratureConfig(samples_per_curve=200))
        with pytest.raises(DomainError, match="^curvature is not strictly monotone"):
            gradient_from_samples(curve)

    def test_too_few_samples_rejected(self):
        s = [0.0, 0.25, 0.5, 0.75, 1.0]
        curve = PlanarCurve(s, s, [0.0] * 5, [0.0] * 5, [1.0, 1.1, 1.2, 1.3, 1.4])
        with pytest.raises(DomainError):
            gradient_from_samples(curve)

    def test_too_few_interior_samples_rejected(self):
        # Three usable samples, but the near-zero run leaves one of them interior.
        kappa = [-1.0, -0.5, -3e-13, -2e-13, -1e-13, 1e-13, 1.0]
        with pytest.raises(DomainError, match="too few interior samples"):
            gradient_from_samples((np.arange(7.0), kappa))

    def test_non_uniform_sampling_rejected(self):
        s = [0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        kappa = [1.0 + v for v in s]
        curve = PlanarCurve(s, s, [0.0] * 8, [0.0] * 8, kappa)
        with pytest.raises(DomainError):
            gradient_from_samples(curve)

    @pytest.mark.parametrize("step", [1.0, 1e-3, 7.5])
    def test_uniform_step_bound_is_a_relative_1e9(self, step):
        # The last gap is off by 0.5e-9 (kept) or 2e-9 (rejected) of the first.
        s = step * np.arange(8.0)
        for offset, uniform in ((0.5e-9, True), (-0.5e-9, True), (2e-9, False), (-2e-9, False)):
            given = s.copy()
            given[-1] += offset * step
            gaps = np.diff(given)
            assert (abs(gaps[-1] - gaps[0]) <= 1e-9 * gaps[0]) == uniform
            curve = (given, 1.0 + given)
            if uniform:
                trace, _line = gradient_from_samples(curve)
                assert len(trace) == 8
            else:
                with pytest.raises(DomainError, match="uniform arc-length sampling"):
                    gradient_from_samples(curve)


class TestSerialization:
    def test_points_csv_round_trip(self):
        points, _ = lcg_gcs_points(CLOTHOID, grid(CLOTHOID, 9))
        buffer = io.StringIO()
        lcg_points_to_csv(points, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "t,log_rho,log_freq"
        assert len(lines) == 1 + len(points)
        first = [float(v) for v in lines[1].split(",")]
        assert first == [points[0].t, points[0].log_rho, points[0].log_freq]

    def test_gradient_csv_header(self):
        buffer = io.StringIO()
        gradient_to_csv([(0.0, -1.0), (1.0, -1.0)], buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "s,gradient"
        assert lines[1] == "0,-1"
