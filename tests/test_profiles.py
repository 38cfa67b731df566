"""Curvature profile families: construction, evaluation, classification, serde."""

import dataclasses
import json
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gcspiral import (
    ConstantProfile,
    DegenerateClass,
    DomainError,
    GcsProfile,
    LinearProfile,
    QuadraticProfile,
    classify_degenerate,
    gradient_gcs,
    inflection,
    lcg_gradient_numeric,
    to_gcs,
)
from gcspiral.cli import PROFILE_KINDS, profile_from_dict, profile_from_json
from gcspiral.profiles import (
    _clamp_s,
    _log1p_remainder,
    _remainder_series,
    _series_terms,
)
from tutil import (
    arc_lengths,
    gcs_profiles,
    kappas,
    profile_document,
    shape_factors,
    unit_fractions,
)

FIG_R_VALUES = [-0.99, -0.9, -0.5, 0.0, 1.0, 2.0, 5.0, 100.0]


class TestConstruction:
    def test_numerator_coefficients_cached(self):
        p = GcsProfile(0.0, 2.0, math.pi, 1.0)
        assert p.n1 == 4.0
        assert p.n0 == 0.0

    def test_constant_curvature_special_case(self):
        p = GcsProfile(1.0, 1.0, 1.0, 0.0)
        for s in (0.0, 0.3, 0.71, 1.0):
            assert p.kappa(s) == 1.0

    def test_shape_factor_boundary_rejected(self):
        with pytest.raises(DomainError):
            GcsProfile(0.0, 2.0, math.pi, -1.0)

    def test_shape_factor_below_boundary_rejected(self):
        with pytest.raises(DomainError):
            GcsProfile(0.0, 2.0, math.pi, -1.5)

    @pytest.mark.parametrize("bad_len", [0.0, -1.0, math.nan, math.inf])
    def test_bad_arc_length_rejected(self, bad_len):
        with pytest.raises(DomainError):
            GcsProfile(0.0, 2.0, bad_len, 1.0)
        with pytest.raises(DomainError):
            ConstantProfile(1.0, bad_len)

    def test_non_finite_curvature_rejected(self):
        with pytest.raises(DomainError):
            GcsProfile(math.nan, 2.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            LinearProfile(0.0, math.inf, 1.0)
        for bad in ((True, 2, 3, 0), ("1", "2", "3", "0"), (10**400, 2, 3, 0)):
            with pytest.raises(DomainError):
                GcsProfile(*bad)

    def test_overflowing_coefficients_rejected(self):
        message = "profile parameters overflow the curvature coefficients"
        for build in (
            lambda: GcsProfile(-1e308, 1e308, 1.0, 0.0),
            lambda: LinearProfile(-1e308, 1e308, 1.0),  # kappa1 - kappa0
            lambda: QuadraticProfile(1e308, 0.0, 0.0, 10.0),  # a*S*S
            lambda: QuadraticProfile(0.0, -1e308, 1e308, 1.0),  # b
            lambda: QuadraticProfile(1e308, 0.0, 0.0, 1.0),  # kappa'' = 2a
            lambda: QuadraticProfile(8e307, 0.0, 0.0, 1.2),  # kappa'(S) = 2aS + b
            lambda: GcsProfile(1e308, 1e307, 1.0, 0.0),  # 2*n1 in the LCG gradient
            lambda: GcsProfile(0.0, 1e10, 1e300, 0.0),  # c = S*(1 + r)*(kappa0 - kappa1)
        ):
            with pytest.raises(DomainError, match=message):
                build()
        assert LinearProfile(-1e307, 1e307, 1.0).kappa_prime(0.5) == 2e307
        assert QuadraticProfile(1e306, 0.0, 0.0, 10.0).b == -1e307
        # Just inside: 2*n1 = -9e307 is finite and the gradient exact.
        assert np.all(gradient_gcs(GcsProfile(5e307, 5e306, 1.0, 0.0), [0.0, 0.5, 1.0]) == -1.0)

    def test_profiles_are_immutable(self):
        p = GcsProfile(0.0, 2.0, math.pi, 1.0)
        with pytest.raises(Exception):
            p.kappa0 = 5.0


def _circular_reference(k0, k1, s_total):
    """The circular test written out from the endpoint data."""
    return abs(k0 - k1) <= 1e-12 * max(abs(k0), abs(k1), 1.0 / s_total)


class TestCachedConstants:
    @given(kappas, kappas, arc_lengths, shape_factors)
    @example(0.0, 2.0, math.pi, 1.0)
    @example(0.5, -2.0, 3.0, 1e6)
    @example(1e-3, 2e-3, 1e4, 0.0)
    @example(3.0, 3.0, 1.0, 2.0)
    def test_constants_match_their_expressions_bit_for_bit(self, k0, k1, s_total, r):
        p = GcsProfile(k0, k1, s_total, r)
        assert p.scale == max(abs(k0), abs(k1), 1.0 / s_total)
        assert p.c == s_total * (1.0 + r) * (k0 - k1)
        assert p.circular is _circular_reference(k0, k1, s_total)

    def test_replace_recomputes_cached_fields(self):
        p = GcsProfile(3.0, 3.0, 1.0, 2.0)
        q = dataclasses.replace(p, kappa1=-1.0, arc_length=0.25)
        fresh = GcsProfile(3.0, -1.0, 0.25, 2.0)
        assert p.circular and not q.circular
        for name in ("n1", "n0", "scale", "c", "circular"):
            assert getattr(q, name) == getattr(fresh, name)

    def test_equality_and_hash_ignore_cached_fields(self):
        p = GcsProfile(0.5, -2.0, 3.0, 4.0)
        q = GcsProfile(0.5, -2.0, 3.0, 4.0)
        compared = [f.name for f in dataclasses.fields(p) if f.compare]
        assert compared == ["kappa0", "kappa1", "arc_length", "r"]
        for name, value in (("scale", 7.0), ("c", 0.0), ("circular", True)):
            object.__setattr__(q, name, value)
        assert p == q and hash(p) == hash(q)
        assert "scale" not in repr(p) and "circular" not in repr(p)

    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        arc_lengths,
        shape_factors,
        st.integers(min_value=-1, max_value=1),
    )
    @example(0.0, 1.0, 1.0, 0.0, 0)  # |k0 - k1| = 1e-12*scale exactly
    @example(0.0, 1.0, 1.0, 0.0, 1)
    @example(0.0, 1.0, 1.0, 0.0, -1)
    @example(2.0, 2.0, 0.5, 1.0, 1)
    @settings(max_examples=300)
    def test_circular_matches_old_expression(self, k0, gap, s_total, r, ulps):
        # Put kappa1 at the threshold gap*1e-12*scale, then one ulp either side.
        k1 = k0 + gap * 1e-12 * max(abs(k0), 1.0 / s_total)
        k1 = {-1: math.nextafter(k1, -math.inf), 0: k1, 1: math.nextafter(k1, math.inf)}[ulps]
        assert GcsProfile(k0, k1, s_total, r).circular is _circular_reference(k0, k1, s_total)

    def test_threshold_edges(self):
        assert GcsProfile(0.0, 1e-12, 1.0, 0.0).circular
        assert GcsProfile(0.0, math.nextafter(1e-12, 0.0), 1.0, 0.0).circular
        assert not GcsProfile(0.0, math.nextafter(1e-12, 1.0), 1.0, 0.0).circular


class TestKappa:
    def test_linear_midpoint(self):
        assert GcsProfile(0.0, 2.0, math.pi, 0.0).kappa(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_endpoint_value(self):
        assert GcsProfile(0.0, 2.0, math.pi, 1.0).kappa(math.pi) == pytest.approx(2.0, abs=1e-15)

    def test_linear_profile_quarter_point(self):
        assert LinearProfile(0.0, 2.0, 1.0).kappa(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_domain_rejected(self):
        p = GcsProfile(0.0, 2.0, math.pi, 1.0)
        with pytest.raises(DomainError):
            p.kappa(-0.1)
        with pytest.raises(DomainError):
            p.kappa(math.pi + 0.1)

    def test_roundoff_slack_at_endpoints(self):
        p = GcsProfile(0.0, 2.0, math.pi, 1.0)
        assert p.kappa(-1e-15) == p.kappa(0.0)
        assert p.kappa(math.pi * (1.0 + 1e-16)) == p.kappa(math.pi)

    @given(
        st.floats(min_value=-2e-12, max_value=2e-12, allow_nan=False),
        st.sampled_from([0.05, 1.0, math.pi, 20.0]),
        st.booleans(),
    )
    @example(-0.0, 1.0, False)
    @example(-1e-15, math.pi, False)
    @example(1e-16, math.pi, True)
    def test_scalar_clamp_matches_min_max(self, offset, s_total, at_end):
        # Within the slack the result equals min(max(s, 0), S), signed zero included.
        s = s_total + offset * s_total if at_end else offset
        slack = 1e-12 * max(1.0, s_total)
        if -slack <= s <= s_total + slack:
            expect = min(max(s, 0.0), s_total)
            got = _clamp_s(s, s_total)
            assert type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, expect)
            assert got == expect
        else:
            with pytest.raises(DomainError):
                _clamp_s(s, s_total)


ARRAY_CASES = [
    ConstantProfile(-1.25, 2.5),
    LinearProfile(-0.75, 2.0, 1.5),
    QuadraticProfile(0.3, -0.1, 1.1, 4.0),
    GcsProfile(0.5, -2.0, 3.0, 4.0),  # both branches of the log1p remainder
    GcsProfile(2.0, 0.3, 1.5, -0.99),
    GcsProfile(0.0, 2.0, math.pi, 0.0),
    GcsProfile(1e8, 1.0, 1.0, 1e8),  # theta's log form: r >= 1, |kappa0| > |kappa1|
]


class TestArrayEvaluation:
    @pytest.mark.parametrize("method", ["kappa", "kappa_prime", "kappa_double_prime", "theta"])
    @pytest.mark.parametrize("profile", ARRAY_CASES, ids=lambda p: type(p).__name__)
    def test_array_equals_scalar_calls_bit_for_bit(self, profile, method):
        S = profile.arc_length
        s = np.concatenate(([-1e-15], np.linspace(0.0, S, 101), [S * (1.0 + 1e-16)]))
        values = getattr(profile, method)(s)
        scalar = np.array([getattr(profile, method)(v) for v in s.tolist()])
        assert isinstance(values, np.ndarray) and values.shape == s.shape
        assert np.array_equal(values.view(np.int64), scalar.view(np.int64))
        grid = s[:102].reshape(6, 17)
        assert np.array_equal(getattr(profile, method)(grid), values[:102].reshape(6, 17))

    @pytest.mark.parametrize("profile", ARRAY_CASES, ids=lambda p: type(p).__name__)
    def test_out_of_domain_scalar_value_named(self, profile):
        S = profile.arc_length
        for bad in (math.nan, math.inf, -math.inf, -0.5, S + 0.5):
            for method in (
                profile.kappa, profile.kappa_prime, profile.kappa_double_prime, profile.theta
            ):
                with pytest.raises(DomainError, match=re.escape(f"s={bad!r} outside")):
                    method(bad)

    @pytest.mark.parametrize("profile", ARRAY_CASES, ids=lambda p: type(p).__name__)
    def test_out_of_domain_array_value_named(self, profile):
        S = profile.arc_length
        for bad in (-0.5, S + 0.5, math.nan):
            s = np.array([0.0, 0.5 * S, bad, S])
            for method in (
                profile.kappa, profile.kappa_prime, profile.kappa_double_prime, profile.theta
            ):
                with pytest.raises(DomainError, match=f"s={bad!r} outside"):
                    method(s)


class TestArcLengthArguments:
    """An arc length is a real number (not a bool) or a column of numbers."""

    P = GcsProfile(0.5, -2.0, 3.0, 4.0)

    @pytest.mark.parametrize(
        "bad", ["0.5", True, np.bool_(True), np.array(["0.5"]), [True], None, [[0.5], [1.0, 2.0]]],
        ids=["str", "bool", "np-bool", "str-array", "bool-list", "none", "ragged"],
    )
    def test_non_numbers_rejected(self, bad):
        for call in (
            self.P.kappa, self.P.kappa_prime, self.P.kappa_double_prime, self.P.theta,
            ConstantProfile(1.0, 3.0).kappa,
            lambda t: gradient_gcs(self.P, t),
            lambda t: lcg_gradient_numeric(self.P, t),
        ):
            with pytest.raises(DomainError, match="must hold only numbers"):
                call(bad)

    def test_huge_integer_rejected(self):
        with pytest.raises(DomainError):
            self.P.kappa(10**400)

    @pytest.mark.parametrize(
        "column", [[0.5, 1.0], (0.5, 1.0), [0, 1]], ids=["list", "tuple", "ints"]
    )
    def test_sequences_evaluate_as_arrays(self, column):
        expect = np.array([float(v) for v in column])
        for method in ("kappa", "kappa_prime", "kappa_double_prime", "theta"):
            values = getattr(self.P, method)(column)
            assert isinstance(values, np.ndarray)
            assert np.array_equal(values, getattr(self.P, method)(expect))
        assert np.array_equal(gradient_gcs(self.P, column), gradient_gcs(self.P, expect))
        assert np.array_equal(
            lcg_gradient_numeric(self.P, column), lcg_gradient_numeric(self.P, expect)
        )

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1), np.float64(0.25), 1])
    def test_numpy_and_int_scalars_evaluate_as_floats(self, value):
        for method in ("kappa", "kappa_prime", "kappa_double_prime", "theta"):
            got = getattr(self.P, method)(value)
            assert type(got) is float
            assert got == getattr(self.P, method)(float(value))
        assert gradient_gcs(self.P, value) == gradient_gcs(self.P, float(value))
        assert lcg_gradient_numeric(self.P, value) == lcg_gradient_numeric(self.P, float(value))


def _reference_clamp(s, arc_length):
    """The mask-and-clip path every array took before the in-range fast path (the reference)."""
    s = np.asarray(s, dtype=float)
    slack = 1e-12 * max(1.0, arc_length)
    bad = ~((s >= -slack) & (s <= arc_length + slack))
    if bad.any():
        raise DomainError(f"arc length s={float(s[bad][0])!r} outside [0, {arc_length}]")
    return np.clip(s, 0.0, arc_length)


@st.composite
def arc_length_columns(draw, slack: bool = False):
    """(S, s): a 1-D or (n, 16) float array s of 0.0, -0.0, S and values inside [0, S].

    With `slack`, one value of s lies just outside [0, S], within the 1e-12 roundoff slack.
    """
    S = draw(st.sampled_from([0.05, 1.0, math.pi, 20.0]))
    inside = st.one_of(st.sampled_from([0.0, -0.0, S]), st.floats(min_value=0.0, max_value=S))
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 4), st.just(16))
    ))
    values = draw(st.lists(inside, min_size=math.prod(shape), max_size=math.prod(shape)))
    if slack:
        pad = 1e-12 * max(1.0, S)
        outside = st.one_of(
            st.floats(min_value=-pad, max_value=-5e-324),
            st.floats(min_value=math.nextafter(S, math.inf), max_value=S + pad),
        )
        values[draw(st.integers(0, len(values) - 1))] = draw(outside)
    return S, np.array(values).reshape(shape)


class TestArrayClamp:
    """An array already inside [0, S] skips the mask and the clip, with the clip's bits."""

    @given(arc_length_columns())
    @example((1.0, np.array([-0.0, 0.0, 1.0])))
    @example((math.pi, np.full((1, 16), -0.0)))
    def test_in_range_array_returned_as_is(self, case):
        S, s = case
        got = _clamp_s(s, S)
        assert got is s
        assert np.array_equal(got.view(np.int64), _reference_clamp(s, S).view(np.int64))

    @given(arc_length_columns(slack=True))
    @example((math.pi, np.array([-1e-15, 0.5, math.nextafter(math.pi, 4.0)])))
    def test_slack_values_come_back_clipped(self, case):
        S, s = case
        got = _clamp_s(s, S)
        assert got is not s and ((got >= 0.0) & (got <= S)).all()
        assert np.array_equal(got.view(np.int64), _reference_clamp(s, S).view(np.int64))

    @pytest.mark.parametrize("shape", [(4,), (2, 16)])
    def test_rejected_values_keep_their_message(self, shape):
        S = math.pi
        pad = 1e-12 * S
        for bad in (math.nan, math.inf, -math.inf, -2.0 * pad, S + 2.0 * pad, -0.5, S + 0.5):
            s = np.full(shape, 0.5 * S)
            s.flat[:3] = (-0.0, S, bad)
            with pytest.raises(DomainError) as expected:
                _reference_clamp(s, S)
            assert str(expected.value) == f"arc length s={bad!r} outside [0, {S}]"
            with pytest.raises(DomainError, match=f"^{re.escape(str(expected.value))}$"):
                _clamp_s(s, S)

    @pytest.mark.parametrize(
        "bad", [np.array(["0.5"]), np.array([True, False]), np.array([0.5 + 0j]), [0.5, None]],
        ids=["str", "bool", "complex", "object"],
    )
    def test_non_numeric_dtypes_rejected(self, bad):
        with pytest.raises(DomainError, match="^arc length s must hold only numbers$"):
            _clamp_s(bad, 1.0)

    @pytest.mark.parametrize(
        "empty", [[], np.empty(0), np.empty((0, 16)), np.empty(0, dtype=np.int64)],
        ids=["list", "1-D", "(0, 16)", "int"],
    )
    def test_empty_array_as_before(self, empty):
        got = _clamp_s(empty, 2.0)
        assert got.dtype == np.float64 and got.shape == _reference_clamp(empty, 2.0).shape
        for profile in ARRAY_CASES:
            for method in ("kappa", "kappa_prime", "kappa_double_prime", "theta"):
                values = getattr(profile, method)(empty)
                assert isinstance(values, np.ndarray) and values.shape == np.shape(empty)

    @pytest.mark.parametrize("profile", ARRAY_CASES, ids=lambda p: type(p).__name__)
    def test_methods_never_return_the_argument(self, profile):
        S = profile.arc_length
        for s in (np.linspace(0.0, S, 9), np.linspace(0.0, S, 32).reshape(2, 16)):
            before = s.copy()
            for method in ("kappa", "kappa_prime", "kappa_double_prime", "theta"):
                assert not np.shares_memory(getattr(profile, method)(s), s)
            assert np.array_equal(s, before)


def _reference_series(u):
    """The former fixed 32-term series, kept verbatim as the bit-exact reference."""
    total = 0.0
    power = 1.0
    for k in range(32):
        total = total + power / (k + 2)
        power = power * -u
    return total


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


QUARTER_BELOW = math.nextafter(0.25, 0.0)
SERIES_CASES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
    -1e-17, 1e-9, -0.1, 0.1, 0.2415, -0.2415, QUARTER_BELOW, -QUARTER_BELOW,
]
small_u = st.floats(min_value=-QUARTER_BELOW, max_value=QUARTER_BELOW, allow_nan=False)


class TestRemainderSeries:
    @pytest.mark.parametrize("u", SERIES_CASES)
    def test_one_element_matches_reference(self, u):
        (value,) = _remainder_series(np.array([u]))
        assert _bits(value) == _bits(_reference_series(u))

    @given(small_u)
    def test_one_element_matches_reference_property(self, u):
        (value,) = _remainder_series(np.array([u]))
        assert _bits(value) == _bits(_reference_series(u))

    @given(st.lists(small_u, max_size=40))
    def test_array_matches_reference_property(self, values):
        u = np.array(values, dtype=float)
        assert np.array_equal(_bits(_remainder_series(u)), _bits(_reference_series(u)))

    @pytest.mark.parametrize(
        "u",
        [
            np.array(SERIES_CASES),
            np.array(SERIES_CASES[:14]).reshape(2, 7),
            np.array([]),
            np.zeros(9),
            np.array([1e-300, 0.24, -3e-8, -0.2, 5e-324, 0.0]),
        ],
        ids=["1d", "2d", "empty", "zeros", "mixed"],
    )
    def test_array_matches_reference(self, u):
        values = _remainder_series(u)
        assert values.shape == u.shape
        assert np.array_equal(_bits(values), _bits(_reference_series(u)))

    def test_term_count_follows_the_data(self):
        assert _series_terms(0.0) == 1
        assert _series_terms(1e-300) == 1
        assert _series_terms(QUARTER_BELOW) <= 26


class TestLog1pRemainder:
    @pytest.mark.parametrize(
        "u",
        [
            np.array([0.0, -1e-12, 0.1, -0.2, QUARTER_BELOW]),
            np.array([-0.99, -0.25, 0.25, 1.0, 100.0, 1e300]),
            np.array([-0.5, 0.0, 0.3, -QUARTER_BELOW, 1e10, 1e-20, 0.25]).reshape(1, 7),
        ],
        ids=["all-small", "all-big", "mixed"],
    )
    def test_array_equals_one_element_calls(self, u):
        values = _log1p_remainder(u)
        assert values.shape == u.shape
        single = np.concatenate([_log1p_remainder(np.array([v])) for v in u.ravel().tolist()])
        assert np.array_equal(_bits(values.ravel()), _bits(single))


class TestKappaPrime:
    def test_clothoid_slope(self):
        p = GcsProfile(0.0, 2.0, math.pi, 0.0)
        for s in (0.0, 1.0, math.pi):
            assert p.kappa_prime(s) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_constant_profile_zero_slope(self):
        p = GcsProfile(1.0, 1.0, 1.0, 0.0)
        assert p.kappa_prime(0.5) == 0.0

    def test_decreasing_curvature_negative_slope(self):
        assert GcsProfile(2.0, 0.0, math.pi, 1.0).kappa_prime(0.0) < 0.0

    @given(gcs_profiles(), st.floats(min_value=0.05, max_value=0.95))
    def test_matches_finite_differences(self, p, frac):
        s = frac * p.arc_length
        h = 1e-6 * max(1.0, p.arc_length)
        assume(h < s < p.arc_length - h)
        fd = (p.kappa(s + h) - p.kappa(s - h)) / (2.0 * h)
        assert p.kappa_prime(s) == pytest.approx(fd, abs=1e-6, rel=1e-6)


class TestKappaDoublePrime:
    def test_exact_values(self):
        assert ConstantProfile(-1.25, 2.5).kappa_double_prime(1.0) == 0.0
        assert LinearProfile(-0.75, 2.0, 1.5).kappa_double_prime(1.0) == 0.0
        assert QuadraticProfile(0.3, -0.1, 1.1, 4.0).kappa_double_prime(1.0) == 0.6
        # n1 = -10.5, n0 = 1.5: -2*r*(n1*S - n0*r)/S^3 = -8 * -37.5 / 27.
        assert GcsProfile(0.5, -2.0, 3.0, 4.0).kappa_double_prime(0.0) == 300.0 / 27.0

    @given(gcs_profiles(), st.floats(min_value=0.05, max_value=0.95))
    def test_matches_finite_differences(self, p, frac):
        s = frac * p.arc_length
        h = 1e-6 * max(1.0, p.arc_length)
        assume(h < s < p.arc_length - h)
        fd = (p.kappa_prime(s + h) - p.kappa_prime(s - h)) / (2.0 * h)
        assert p.kappa_double_prime(s) == pytest.approx(fd, abs=1e-6, rel=1e-6)


class TestTheta:
    def test_constant_profile(self):
        assert ConstantProfile(1.0, math.pi).theta(math.pi) == pytest.approx(math.pi, abs=1e-15)

    def test_clothoid_total_angle(self):
        p = GcsProfile(0.0, 2.0, math.pi, 0.0)
        assert p.theta(math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_curved_profile_frozen_value(self):
        # Independently computed with 40-digit arithmetic from the rational
        # curvature antiderivative.
        p = GcsProfile(0.0, 2.0, math.pi, 1.0)
        assert p.theta(math.pi) == pytest.approx(3.8560262531447644318, abs=1e-12)

    def test_matches_quadrature_example(self):
        p = GcsProfile(0.0, 2.0, math.pi, 1.0)
        oracle, err = quad(p.kappa, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-10
        assert p.theta(math.pi) == pytest.approx(oracle, abs=1e-10)

    def test_stable_through_removable_singularity(self):
        # The closed form has a 0/0 limit at r=0; values must vary smoothly
        # across it instead of blowing up.
        base = GcsProfile(0.5, 2.0, 3.0, 0.0)
        for r in (1e-15, 1e-12, 1e-9, -1e-9, -1e-12):
            perturbed = GcsProfile(0.5, 2.0, 3.0, r)
            assert perturbed.theta(2.0) == pytest.approx(base.theta(2.0), abs=1e-8)

    def test_quadratic_profile_antiderivative(self):
        p = QuadraticProfile(0.7, 0.2, 1.5, 2.0)
        assert p.kappa(0.0) == pytest.approx(0.2, abs=1e-15)
        assert p.kappa(2.0) == pytest.approx(1.5, abs=1e-12)
        oracle, _ = quad(p.kappa, 0.0, 1.3, epsabs=1e-12)
        assert p.theta(1.3) == pytest.approx(oracle, abs=1e-10)

    def test_dominant_kappa0_at_large_r_matches_mpmath(self):
        # For r >= 1 and |kappa0| >> |kappa1|, kappa0*s cancels against the
        # rest of theta, so theta is held to a few eps of the terms that do
        # not cancel, |kappa1|*s and |theta - kappa1*s|, not of |kappa0|*s.
        rng = np.random.default_rng(2026)
        shape_factors = np.concatenate(([1.0, 1e12], 10.0 ** rng.uniform(0.0, 12.0, 48)))
        for shape in shape_factors:
            kappa1 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
            kappa0 = rng.choice([-1.0, 1.0]) * abs(kappa1) * 10.0 ** rng.uniform(2.0, 12.0)
            p = GcsProfile(kappa0, kappa1, 10.0 ** rng.uniform(-1.0, 1.0), shape)
            s = p.arc_length * np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0])
            with mpmath.workdps(40):
                k0, k1, S, r = (mpmath.mpf(v) for v in (p.kappa0, p.kappa1, p.arc_length, p.r))
                n1 = k1 - k0 + r * k1
                for t, value in zip(s.tolist(), p.theta(s)):
                    # The rational curvature's antiderivative, from theta(0) = 0.
                    exact = n1 / r * t + (k0 * S - n1 * S / r) / r * mpmath.log1p(r * t / S)
                    scale = abs(k1) * t + abs(exact - k1 * t)
                    assert abs(value - exact) <= 8.0 * sys.float_info.epsilon * scale, (p, t)

    @given(gcs_profiles(), unit_fractions)
    @settings(max_examples=100)
    def test_matches_quadrature_property(self, p, frac):
        s = frac * p.arc_length
        oracle, _ = quad(p.kappa, 0.0, s, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert abs(p.theta(s) - oracle) <= 1e-9


class TestInvariants:
    @given(gcs_profiles())
    @settings(max_examples=200)
    def test_endpoint_interpolation(self, p):
        assert abs(p.kappa(0.0) - p.kappa0) <= 1e-12 * max(1.0, abs(p.kappa0))
        assert abs(p.kappa(p.arc_length) - p.kappa1) <= 1e-12 * max(1.0, abs(p.kappa1))

    @given(gcs_profiles(), unit_fractions, unit_fractions)
    def test_curvature_monotonicity(self, p, f1, f2):
        s1, s2 = sorted((f1 * p.arc_length, f2 * p.arc_length))
        assume(s2 - s1 >= 1e-3 * p.arc_length)
        diff = p.kappa(s2) - p.kappa(s1)
        drive = p.n1 * p.arc_length - p.n0 * p.r
        scale = max(abs(p.kappa0), abs(p.kappa1), 1.0)
        if abs(diff) <= 1e-12 * scale:
            return
        assert math.copysign(1.0, diff) == math.copysign(1.0, drive)

    def test_sweep_ordering_in_shape_factor(self):
        # With kappa0 = 0 the curvature at any interior s grows strictly
        # with r.
        for s in np.linspace(0.1, math.pi - 0.1, 7):
            values = [GcsProfile(0.0, 2.0, math.pi, r).kappa(float(s)) for r in FIG_R_VALUES]
            assert all(a < b for a, b in zip(values, values[1:]))

    @given(gcs_profiles())
    def test_at_most_one_sign_change(self, p):
        grid = np.linspace(0.0, p.arc_length, 80)
        scale = max(abs(p.kappa0), abs(p.kappa1), 1.0 / p.arc_length)
        signs = [
            1.0 if v > 0 else -1.0
            for v in (p.kappa(float(s)) for s in grid)
            if abs(v) > 1e-9 * scale
        ]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips <= 1


class TestClassification:
    def test_straight_line(self):
        assert classify_degenerate(GcsProfile(0.0, 0.0, 1.0, 0.5)) is DegenerateClass.STRAIGHT_LINE

    def test_circular_arc(self):
        assert classify_degenerate(GcsProfile(1.0, 1.0, 2.0, 0.0)) is DegenerateClass.CIRCULAR_ARC

    def test_log_spiral(self):
        p = GcsProfile(3.0, 1.0, 1.0, 2.0)
        assert p.n1 == 0.0
        assert classify_degenerate(p) is DegenerateClass.LOG_SPIRAL

    def test_clothoid(self):
        assert classify_degenerate(GcsProfile(0.0, 2.0, math.pi, 0.0)) is DegenerateClass.CLOTHOID

    def test_general_profile(self):
        assert classify_degenerate(GcsProfile(0.0, 2.0, math.pi, 1.0)) is DegenerateClass.GENERAL_GCS

    @given(gcs_profiles())
    def test_classification_total(self, p):
        assert classify_degenerate(p) in DegenerateClass


class TestInflection:
    def test_zero_start_curvature(self):
        assert inflection(GcsProfile(0.0, 2.0, math.pi, 0.0)) == 0.0

    def test_interior_root(self):
        p = GcsProfile(-1.0, 1.0, 2.0, 0.0)
        s_star = inflection(p)
        assert s_star == pytest.approx(1.0, abs=1e-15)
        assert p.kappa(s_star) == pytest.approx(0.0, abs=1e-15)

    def test_no_sign_change(self):
        assert inflection(GcsProfile(1.0, 2.0, 1.0, 0.0)) is None

    def test_constant_numerator(self):
        assert inflection(GcsProfile(3.0, 1.0, 1.0, 2.0)) is None

    @given(gcs_profiles())
    def test_returned_location_nulls_curvature(self, p):
        s_star = inflection(p)
        if s_star is None:
            return
        scale = max(abs(p.kappa0), abs(p.kappa1), 1.0 / p.arc_length)
        assert abs(p.kappa(s_star)) <= 1e-9 * scale


class TestConversion:
    def test_constant_to_rational(self):
        g = to_gcs(ConstantProfile(1.5, 2.0))
        assert g is not None
        assert (g.kappa0, g.kappa1, g.arc_length, g.r) == (1.5, 1.5, 2.0, 0.0)

    def test_linear_to_rational(self):
        g = to_gcs(LinearProfile(0.0, 2.0, 1.0))
        assert g is not None
        for s in np.linspace(0.0, 1.0, 9):
            assert g.kappa(float(s)) == pytest.approx(2.0 * float(s), abs=1e-15)

    def test_degenerate_quadratic_converts(self):
        assert to_gcs(QuadraticProfile(0.0, 0.0, 2.0, 1.0)) is not None

    def test_general_quadratic_does_not_convert(self):
        assert to_gcs(QuadraticProfile(0.3, 0.0, 2.0, 1.0)) is None

    def test_rational_passthrough(self):
        p = GcsProfile(0.0, 2.0, math.pi, 1.0)
        assert to_gcs(p) is p


class TestSerialization:
    """Profile documents, read by the CLI's profile_from_dict and profile_from_json."""

    CASES = [
        ConstantProfile(1.25, 2.5),
        LinearProfile(-0.75, 2.0, 1.5),
        QuadraticProfile(0.3, -0.1, 1.1, 4.0),
        GcsProfile(0.1, 2.0, math.pi, -0.5),
    ]

    @pytest.mark.parametrize("profile", CASES, ids=lambda p: type(p).__name__)
    def test_round_trip_exact(self, profile):
        assert profile_from_json(json.dumps(profile_document(profile))) == profile
        assert profile_from_dict(profile_document(profile)) == profile

    @pytest.mark.parametrize(
        "profile, doc",
        [
            (
                GcsProfile(0.0, 2.0, math.pi, 1.0),
                {"type": "gcs", "kappa0": 0.0, "kappa1": 2.0, "arc_length": math.pi, "r": 1.0},
            ),
            (ConstantProfile(1.25, 2.5), {"type": "constant", "kappa": 1.25, "arc_length": 2.5}),
            (
                LinearProfile(-0.75, 2.0, 1.5),
                {"type": "linear", "kappa0": -0.75, "kappa1": 2.0, "arc_length": 1.5},
            ),
            (
                QuadraticProfile(0.3, -0.1, 1.1, 4.0),
                {"type": "quadratic", "a": 0.3, "kappa0": -0.1, "kappa1": 1.1, "arc_length": 4.0},
            ),
        ],
        ids=["gcs", "constant", "linear", "quadratic"],
    )
    def test_document_shape(self, profile, doc):
        assert list(profile_document(profile).items()) == list(doc.items())
        assert profile_from_dict(doc) == profile

    def test_unknown_type_rejected(self):
        with pytest.raises(DomainError):
            profile_from_dict({"type": "helix", "pitch": 1.0})

    def test_missing_field_rejected(self):
        with pytest.raises(DomainError):
            profile_from_dict({"type": "gcs", "kappa0": 0.0})

    def test_unknown_field_rejected(self):
        doc = {"type": "gcs", "kappa0": 0.0, "kappa1": 1.0, "arc_length": 1.0, "r": 0.0}
        assert profile_from_dict(doc) == GcsProfile(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="unknown field 'extra'"):
            profile_from_dict(dict(doc, extra=2))
        with pytest.raises(DomainError, match="unknown field 'kappa'"):
            profile_from_dict(dict(doc, kappa=1.0))

    @given(st.sampled_from(sorted(PROFILE_KINDS)), st.data())
    def test_round_trip_every_kind(self, kind, data):
        cls, keys = PROFILE_KINDS[kind]
        strategy = {"arc_length": arc_lengths, "r": shape_factors}
        doc = {"type": kind, **{key: data.draw(strategy.get(key, kappas)) for key in keys}}
        profile = profile_from_dict(doc)
        assert type(profile) is cls
        assert list(profile_document(profile).items()) == list(doc.items())
        assert profile_from_json(json.dumps(doc)) == profile

    def test_invalid_json_rejected(self):
        with pytest.raises(DomainError):
            profile_from_json("not json at all")

    def test_non_object_rejected(self):
        with pytest.raises(DomainError):
            profile_from_dict([1, 2, 3])

    @given(kappas, kappas, arc_lengths, shape_factors)
    def test_round_trip_property(self, k0, k1, s_total, r):
        p = GcsProfile(k0, k1, s_total, r)
        again = profile_from_json(json.dumps(profile_document(p)))
        assert (again.kappa0, again.kappa1, again.arc_length, again.r) == (
            p.kappa0,
            p.kappa1,
            p.arc_length,
            p.r,
        )
