"""The CSV table writer: its %.17g kernel writes Python's own bytes, and rows are checked."""

import io
import math
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gcspiral import DomainError, tables
from gcspiral.svg import polyline_svg
from gcspiral.tables import row_array, write_table


def reference_table(header: str, rows) -> str:
    """The writer the kernel replaced: one %.17g template over the flattened rows."""
    row_template = "\n" + ",".join(["%.17g"] * len(header.split(",")))
    return header + row_template * len(rows) % tuple(chain.from_iterable(rows)) + "\n"


def kernel_lines(values) -> list[str]:
    """The kernel's text of `values`, one value a line."""
    values = np.asarray(values, dtype=float)
    ends = np.full(len(values), ord("\n"), np.uint8)
    return tables._format(values, ends).decode("ascii").splitlines()


def with_neighbours(x: float) -> list[float]:
    """x and its two adjacent doubles, with both signs."""
    near = [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return near + [-v for v in near]


# Each power of ten whose neighbourhood the kernel decides: below, at and above
# 1e-6 it hands values to Python or keeps them, 1e-5 and 1e-4 switch notation,
# and 1e16 and 1e17 bound the digits of the integer part and the kernel.
POWERS_OF_TEN = [float(f"1e{e}") for e in range(-8, 20)]


def special_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Seeded values of every kind: random bit patterns, log-uniform numbers
    across the kernel's range and past both ends, short decimals and integers,
    and the values only Python formats."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    spread = 10.0 ** rng.uniform(-8.0, 19.0, n) * rng.choice([-1.0, 1.0], n)
    short = rng.integers(-10**6, 10**6, n) / rng.choice([1.0, 4.0, 1e3, 1e7], n)
    kinds = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e300]
    return np.choose(rng.integers(0, 4, n), [bits, spread, short, rng.choice(kinds, n)])


class TestKernel:
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(0.0)
    @example(5e-324)
    @example(1.7976931348623157e308)
    @example(1e-6)
    @example(1e-5)
    @example(1e-4)
    @example(1e16)
    @example(1e17)
    @example(1000000000000000.25)  # x * 10 is the tie 10000000000000002.5
    @example(9.9999999999999984e16)  # the largest double below 1e17
    def test_value_and_neighbours_match_percent_format(self, x):
        values = with_neighbours(x)
        assert kernel_lines(values) == ["%.17g" % v for v in values]

    @pytest.mark.parametrize("power", POWERS_OF_TEN, ids=lambda p: f"{p:g}")
    def test_powers_of_ten_and_their_neighbours(self, power):
        values = with_neighbours(power)
        values += with_neighbours(math.nextafter(values[0], -math.inf))
        assert kernel_lines(values) == ["%.17g" % v for v in values]

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_bit_patterns_match_percent_format(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert kernel_lines(values) == ["%.17g" % v for v in values.tolist()]

    def test_ties_round_half_to_even(self):
        ties = [1000000000000000.25, 1000000000000000.75, 1000000000000001.25, 100000000000000.125]
        for x in ties:  # x scaled to 17 integer digits lies halfway between two integers
            scaled = Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))
            assert scaled.denominator == 2
        ties += [-x for x in ties]
        assert kernel_lines(ties) == ["%.17g" % v for v in ties]

    def test_seeded_values_match_percent_format(self):
        values = special_values(np.random.default_rng(20240), 50_000)
        assert kernel_lines(values) == ["%.17g" % v for v in values.tolist()]


class TestWriteTable:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_tables_match_the_template_around_both_sizes(self, width):
        rng = np.random.default_rng(width)
        header = ",".join("abcde"[:width])
        small, block = tables._KERNEL_MIN_VALUES, tables._BLOCK_VALUES
        for total in (0, small - 1, small, small + width, block - 1, block, 2 * block + width):
            rows = special_values(rng, total // width * width).reshape(-1, width)
            expect = reference_table(header, rows.tolist())
            for given_rows in (rows, rows.tolist(), [tuple(row) for row in rows.tolist()]):
                buffer = io.StringIO()
                write_table(buffer, header, given_rows)
                assert buffer.getvalue() == expect, (width, total)

    def test_ragged_rows_are_rejected_not_reflowed(self):
        for rows in ([(1.0, 2.0, 3.0), (4.0,)], [(1.0, 2.0), (3.0,)], np.ones((2, 3)), np.ones(4)):
            with pytest.raises(DomainError, match="every row must hold 2 values"):
                write_table(io.StringIO(), "a,b", rows)

    def test_text_is_not_a_number(self):
        for rows in ([("1.5", "2")], [(1.0, b"2")], np.array([["1.5", "2"]])):
            with pytest.raises(DomainError, match="rows must hold only numbers"):
                write_table(io.StringIO(), "a,b", rows)


class TestRowArray:
    @pytest.mark.parametrize(
        "rows",
        [
            [("1.5", "2")],
            [(b"1.5", 2.0)],
            [(1.0, 2j)],
            [(None, 2.0)],
            [(1.0, 2.0), (3.0, "4")],
            np.array([["1.5", "2"]]),
            np.array([[b"1.5", b"2"]]),
            np.array([[1.0, 2j]]),
            np.array([[None, 2.0]], dtype=object),
        ],
    )
    def test_non_numbers_are_rejected(self, rows):
        with pytest.raises(DomainError, match="rows must hold only numbers"):
            row_array(rows, 2)
        with pytest.raises(DomainError, match="rows must hold only numbers"):
            polyline_svg([rows])

    def test_real_numbers_of_any_type_are_taken(self):
        rows = [(1, 2.5), (np.float32(0.25), np.int64(-3)), (True, 7.0)]
        got = row_array(rows, 2)
        assert got.dtype == np.float64
        assert got.tolist() == [[1.0, 2.5], [0.25, -3.0], [1.0, 7.0]]
        assert row_array(np.arange(4, dtype=np.int32).reshape(2, 2), 2).tolist() == [[0, 1], [2, 3]]
