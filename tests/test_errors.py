"""The input checks shared by every module: one policy for reals, counts and grids."""

import math

import numpy as np
import pytest

from gcspiral.errors import (
    DegenerateDataError,
    DomainError,
    InputError,
    MismatchedInputsError,
    QuadratureError,
    SingularPointError,
    SingularProfileError,
    count,
    increasing,
    real,
)


class TestHierarchy:
    def test_rejections_share_one_base(self):
        for error in (
            DomainError, SingularProfileError, SingularPointError,
            DegenerateDataError, MismatchedInputsError,
        ):
            assert issubclass(error, InputError)
            assert issubclass(error, ValueError)
        # A quadrature failure is not a rejected input.
        assert not issubclass(QuadratureError, InputError)


class TestReal:
    def test_accepts_any_real_as_float(self):
        for value in (1, 1.5, np.int64(3), np.float32(0.25), np.float64(-2.0)):
            got = real("x", value)
            assert type(got) is float
            assert got == float(value)

    def test_rejects_non_reals_bools_and_non_finite(self):
        for value in (True, False, np.bool_(True), "1", None, 1j, math.nan, math.inf,
                      -math.inf, 10**400, [1.0]):
            with pytest.raises(DomainError, match="x must be a finite real number"):
                real("x", value)

    def test_bounds(self):
        assert real("x", 0.0, least=0.0) == 0.0
        assert real("x", 1e-300, above=0.0) == 1e-300
        with pytest.raises(DomainError, match="> 0"):
            real("x", 0.0, above=0.0)
        with pytest.raises(DomainError, match=">= 1"):
            real("x", 0.5, least=1.0)


class TestCount:
    def test_accepts_integers_from_least(self):
        assert count("n", 1) == 1
        assert count("n", 0, least=0) == 0
        got = count("n", np.int64(7), least=2)
        assert type(got) is int and got == 7

    def test_rejects_bools_fractions_and_small_values(self):
        for value in (True, 2.0, 2.5, "3", 0, -1):
            with pytest.raises(DomainError, match="n must be an integer >= 1"):
                count("n", value)
        with pytest.raises(DomainError, match=">= 3"):
            count("n", 2, least=3)


class TestIncreasing:
    def test_returns_float_array(self):
        grid = increasing("t", [0, 1, 3], least=2)
        assert grid.dtype == float
        np.testing.assert_array_equal(grid, [0.0, 1.0, 3.0])

    @pytest.mark.parametrize(
        "values, message",
        [
            (["0", "1"], "only numbers"),
            ([0.0, [1.0]], "only numbers"),
            ([True, False], "only numbers"),
            ([[0.0, 1.0]], "one-dimensional"),
            ([0.0], "one-dimensional"),
            ([0.0, math.nan], "finite"),
            ([0.0, math.inf], "finite"),
            ([0.0, 0.0], "strictly increasing"),
            ([1.0, 0.5], "strictly increasing"),
        ],
    )
    def test_rejections(self, values, message):
        with pytest.raises(DomainError, match=message):
            increasing("t", values, least=2)
