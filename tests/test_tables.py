"""The text kernel writes Python's own %.17g and %.8g bytes; CSV rows are checked,
and read_table, the one table reader, reads every written table back bit for bit."""

import io
import math
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gcspiral import (
    DomainError,
    GcsProfile,
    PlanarCurve,
    Pose,
    curve_to_csv,
    lddc,
    lddc_histogram,
    lddc_to_csv,
    svg,
    synthesis,
    synthesize,
    tables,
)
from gcspiral.svg import polyline_svg
from gcspiral.tables import read_table, row_array, write_tables


def reference_table(header: str, rows) -> str:
    """The writer the kernel replaced: one %.17g template over the flattened rows."""
    row_template = "\n" + ",".join(["%.17g"] * len(header.split(",")))
    return header + row_template * len(rows) % tuple(chain.from_iterable(rows)) + "\n"


def reference_points(xy: np.ndarray) -> str:
    """The SVG point list the kernel replaced: one %.8g template over the points."""
    return " ".join(["%.8g,%.8g"] * len(xy)) % tuple(xy.ravel().tolist())


def kernel_lines(values, digits: int = 17) -> list[str]:
    """The kernel's text of `values` at `digits` digits, one value a line."""
    values = np.asarray(values, dtype=float)
    ends = np.full(len(values), ord("\n"), np.uint8)
    return tables._format(values, ends, tables._LAYOUTS[digits]).decode("ascii").splitlines()


def with_neighbours(x: float) -> list[float]:
    """x and its two adjacent doubles, with both signs."""
    near = [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return near + [-v for v in near]


# Each power of ten whose neighbourhood the kernel decides at 8 digits: below
# 1e-4 and from 1e8 on Python writes the value, in scientific notation.
POWERS_OF_TEN_8 = [float(f"1e{e}") for e in range(-5, 10)]

# Each power of ten whose neighbourhood the kernel decides: below 1e-4 and from
# 1e17 on Python writes the value, in scientific notation, and 1e16 bounds the
# digits of the integer part.
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


class TestKernel8:
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(99999999.5)  # rounds to 1e+08, past the kernel's fixed notation
    @example(math.nextafter(99999999.5, 0.0))
    @example(9.99999995)  # rounds up to 10, one more integer digit
    @example(1e-4)
    @example(0.000099999999995)  # rounds to 0.0001, but |x| < 1e-4
    @example(12345678.5)  # ties: half to even, down then up
    @example(12345677.5)
    @example(1e8)
    @example(5e-324)
    @example(-0.0)
    def test_value_and_neighbours_match_percent_format(self, x):
        values = with_neighbours(x)
        assert kernel_lines(values, 8) == ["%.8g" % v for v in values]

    @pytest.mark.parametrize("power", POWERS_OF_TEN_8, ids=lambda p: f"{p:g}")
    def test_powers_of_ten_and_their_neighbours(self, power):
        values = with_neighbours(power)
        assert kernel_lines(values, 8) == ["%.8g" % v for v in values]

    def test_seeded_values_match_percent_format(self):
        values = special_values(np.random.default_rng(20250), 50_000)
        assert kernel_lines(values, 8) == ["%.8g" % v for v in values.tolist()]


class TestPolylineSvg:
    @pytest.mark.parametrize("lines", [1, 2, 3])
    def test_documents_match_the_percent_template(self, lines, monkeypatch):
        rng = np.random.default_rng(lines)
        small, block = tables._KERNEL_MIN_VALUES[8] // 2, tables._BLOCK_VALUES // 2
        for points in (1, small - 1, small, block, block + 1, 2 * block + 3):
            polylines = [
                np.nan_to_num(special_values(rng, 2 * points), posinf=1e300, neginf=-1e300).reshape(-1, 2)
                for _ in range(lines)
            ]
            labels = [f"line <{i}>" for i in range(lines)]
            got = polyline_svg(polylines, labels=labels, title="t & u")
            with monkeypatch.context() as patch:
                patch.setattr(
                    svg, "_texts", lambda pieces, digits: [reference_points(xy) + " " for xy, _ in pieces]
                )
                expect = polyline_svg(polylines, labels=labels, title="t & u")
            assert got == expect, (lines, points)

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 16, 17, 33, 64, 1000, 4096])
    def test_signed_zero_bounds_match_the_axis_reduction(self, length):
        # The frame writes x_lo and the other bounds as text, so the bound
        # that min and max pick among 0.0 and -0.0 shows in the bytes.
        rng = np.random.default_rng(length)
        columns = [np.zeros(length), -np.zeros(length)]
        for _ in range(8):
            columns.append(rng.choice([0.0, -0.0], length))
        columns += [np.where(np.arange(length) % 2, 0.0, -0.0), np.where(np.arange(length) % 2, -0.0, 0.0)]
        for x in columns:
            for y in (x[::-1].copy(), -x, np.linspace(-1.0, 1.0, length)):
                for points in (np.column_stack((x, y)), np.column_stack((y, x))):
                    (x_lo, y_lo), (x_hi, y_hi) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
                    label = f"x:[{x_lo:.8g},{x_hi:.8g}] y:[{y_lo:.8g},{y_hi:.8g}]"
                    assert label in polyline_svg([points]), (length, points[:4].tolist())


def reference_piece(rows: np.ndarray, ends: str, digits: int) -> str:
    """One piece of a pass as the % template writes it."""
    template = "".join(f"%.{digits}g{end}" for end in ends)
    return template * len(rows) % tuple(rows.ravel().tolist())


def random_pass(rng: np.random.Generator, total: int, count: int, digits: int) -> list:
    """`count` pieces of 1-5 columns holding `total` values in all, each row
    ending in the pass's one terminator; the last piece is one column wide."""
    terminator = "\n" if digits == 17 else " "
    widths = rng.integers(1, 6, count - 1).tolist() + [1]
    rows = [int(rng.integers(0, total // (width * count) + 2)) for width in widths[:-1]]
    rows = rows if sum(w * n for w, n in zip(widths, rows)) <= total else [0] * (count - 1)
    rows.append(total - sum(w * n for w, n in zip(widths, rows)))
    return [
        (special_values(rng, n * width).reshape(n, width), "," * (width - 1) + terminator)
        for width, n in zip(widths, rows)
    ]


class TestTexts:
    @pytest.mark.parametrize("digits", [17, 8])
    def test_passes_match_the_template_around_both_sizes(self, digits):
        rng = np.random.default_rng(digits)
        small, block = tables._KERNEL_MIN_VALUES[digits], tables._BLOCK_VALUES
        for total in (0, 1, small - 1, small, block - 1, block, block + 1, 2 * block + 3):
            for count in (1, 2, 3, 4, 5):
                pieces = random_pass(rng, total, count, digits)
                assert sum(rows.size for rows, _ in pieces) == total
                expect = [reference_piece(rows, ends, digits) for rows, ends in pieces]
                assert tables._texts(pieces, digits) == expect, (digits, total, count)

    @pytest.mark.parametrize("digits", [17, 8])
    def test_pieces_straddling_a_block_boundary(self, digits):
        rng = np.random.default_rng(100 + digits)
        terminator = "\n" if digits == 17 else " "
        block = tables._BLOCK_VALUES
        for shape in ([(block // 3 + 1, 3), (block // 5, 5), (2, 2)], [(1, 4), (block // 2 + 1, 2)],
                      [(block - 1, 1), (3, 3), (block // 4, 4)]):
            pieces = [
                (special_values(rng, n * width).reshape(n, width), "," * (width - 1) + terminator)
                for n, width in shape
            ]
            total = sum(rows.size for rows, _ in pieces)
            blocks = -(-total // block)
            starts = np.cumsum([0] + [rows.size for rows, _ in pieces]).tolist()
            bounds = {total * i // blocks for i in range(1, blocks)}
            assert bounds and not bounds & set(starts)  # every block boundary falls inside a piece
            expect = [reference_piece(rows, ends, digits) for rows, ends in pieces]
            assert tables._texts(pieces, digits) == expect, shape


class TestWriteTable:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_tables_match_the_template_around_both_sizes(self, width):
        rng = np.random.default_rng(width)
        header = ",".join("abcde"[:width])
        small, block = tables._KERNEL_MIN_VALUES[17], tables._BLOCK_VALUES
        for total in (0, small - 1, small, small + width, block - 1, block, 2 * block + width):
            rows = special_values(rng, total // width * width).reshape(-1, width)
            expect = reference_table(header, rows.tolist())
            for given_rows in (rows, rows.tolist(), [tuple(row) for row in rows.tolist()]):
                buffer = io.StringIO()
                write_tables([(buffer, header, given_rows)])
                assert buffer.getvalue() == expect, (width, total)

    def test_no_kernel_call_is_left_with_a_few_values(self, monkeypatch):
        calls = []
        kernel = tables._format

        def spy(values, ends, layout):
            calls.append(len(values))
            return kernel(values, ends, layout)

        monkeypatch.setattr(tables, "_format", spy)
        rng = np.random.default_rng(7)
        for width in (1, 2, 3, 4, 5):
            header = ",".join("abcde"[:width])
            for blocks in (1, 2):
                for extra in range(1, 6):
                    total = tables._BLOCK_VALUES * blocks + extra
                    rows = special_values(rng, -(-total // width) * width)
                    rows = rows.reshape(-1, width)
                    buffer = io.StringIO()
                    write_tables([(buffer, header, rows)])
                    assert buffer.getvalue() == reference_table(header, rows.tolist())
        assert calls and min(calls) >= tables._KERNEL_MIN_VALUES[17]

    def test_write_tables_matches_write_table(self, tmp_path):
        rng = np.random.default_rng(11)
        tables_given = []
        for i, (n, width) in enumerate([(40, 2), (0, 3), (300, 5), (7, 1), (900, 4)]):
            header = ",".join("abcde"[:width])
            tables_given.append((f"t{i}.csv", header, special_values(rng, n * width).reshape(n, width)))
        one_by_one, together = tmp_path / "a", tmp_path / "b"
        one_by_one.mkdir()
        together.mkdir()
        streams = []
        for name, header, rows in tables_given:
            write_tables([(str(one_by_one / name), header, rows)])
            streams.append(io.StringIO())
            write_tables([(streams[-1], header, rows.tolist())])
        write_tables([(str(together / name), header, rows) for name, header, rows in tables_given])
        buffers = [io.StringIO() for _ in tables_given]
        pairs = zip(buffers, tables_given)
        write_tables([(buffer, header, rows.tolist()) for buffer, (_, header, rows) in pairs])
        for (name, _, _), stream, buffer in zip(tables_given, streams, buffers):
            assert (together / name).read_bytes() == (one_by_one / name).read_bytes(), name
            assert buffer.getvalue() == stream.getvalue() == (one_by_one / name).read_text(), name

    def test_write_tables_of_no_table_writes_nothing(self, monkeypatch):
        written = []
        monkeypatch.setattr(tables, "write_text", lambda target, text: written.append(target))
        write_tables([])
        assert written == []

    def test_ragged_rows_are_rejected_not_reflowed(self):
        for rows in ([(1.0, 2.0, 3.0), (4.0,)], [(1.0, 2.0), (3.0,)], np.ones((2, 3)), np.ones(4)):
            with pytest.raises(DomainError, match="every row must hold 2 values"):
                write_tables([(io.StringIO(), "a,b", rows)])

    def test_text_is_not_a_number(self):
        for rows in ([("1.5", "2")], [(1.0, b"2")], np.array([["1.5", "2"]])):
            with pytest.raises(DomainError, match="rows must hold only numbers"):
                write_tables([(io.StringIO(), "a,b", rows)])


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


class TestReadTable:
    # (header, the name the table is read as, a valid row) of the curve and LDDC tables.
    TABLES = {
        "curve": ("s,x,y,theta,kappa", "curve CSV", "0,0.5,-0.25,0.1,2"),
        "lddc": ("bin_lo_log10rho,bin_hi_log10rho,length", "LDDC CSV", "-1,0.5,3"),
    }
    # Each fault, as text around the header and a valid row, and the check that rejects it.
    FAULTS = {
        "wrong header": ("a,b,c\n{row}\n", "must start with header '{header}'"),
        "no text": ("", "must start with header '{header}'"),
        "short row": ("{header}\n{row}\n0,1\n", "row has 2 fields, expected {width}: '0,1'"),
        "long row": ("{header}\n{row},7\n", "row has {more} fields, expected {width}"),
        "non-numeric field": ("{header}\n{row}\n{row}x\n", "row is not numeric: '{row}x'"),
    }

    @pytest.mark.parametrize("table", list(TABLES))
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_faults_raise_naming_the_table(self, table, fault):
        header, what, row = self.TABLES[table]
        width = len(header.split(","))
        fields = {"header": header, "row": row, "width": width, "more": width + 1}
        text, message = (part.format(**fields) for part in self.FAULTS[fault])
        with pytest.raises(DomainError) as rejected:
            read_table(io.StringIO(text), header, what)
        assert str(rejected.value).startswith(f"{what} ")
        assert message in str(rejected.value)

    @pytest.mark.parametrize("table", list(TABLES))
    def test_blank_lines_are_skipped(self, table):
        header, what, row = self.TABLES[table]
        dense = read_table(io.StringIO(f"{header}\n{row}\n{row}\n"), header, what)
        spaced = f"\n{header}\n\n{row}\n  \n\t\n{row}\n\n"
        assert read_table(io.StringIO(spaced), header, what).tobytes() == dense.tobytes()
        assert dense.shape == (2, len(header.split(",")))

    def test_header_alone_is_a_table_of_no_rows(self):
        for header, what, _row in self.TABLES.values():
            rows = read_table(io.StringIO(header + "\n"), header, what)
            assert rows.shape == (0, len(header.split(",")))

    def test_curve_round_trips_bit_for_bit(self, tmp_path):
        curve = synthesize(GcsProfile(0.1, 2.0, math.pi, 2.0), Pose(0.5, -0.25, 0.1))
        buffer, path = io.StringIO(), tmp_path / "curve.csv"
        write_tables([(buffer, *synthesis._curve_table(curve))])
        curve_to_csv(curve, str(path))
        assert path.read_text() == buffer.getvalue()
        again = PlanarCurve(*read_table(str(path), "s,x,y,theta,kappa", "curve CSV").T)
        for name in ("s", "x", "y", "theta", "kappa"):
            assert getattr(again, name).tobytes() == getattr(curve, name).tobytes(), name

    def test_lddc_histogram_round_trips_bit_for_bit(self):
        p = GcsProfile(0.5, 2.0, math.pi, 0.0)
        s = np.linspace(0.0, p.arc_length, 512)
        hist = lddc_histogram((s, p.kappa(s)), 8)
        buffer, again = io.StringIO(), io.StringIO()
        write_tables([(buffer, *lddc._lddc_table(hist))])
        lddc_to_csv(hist, again)
        assert again.getvalue() == buffer.getvalue()
        again.seek(0)
        lo, hi, lengths = read_table(again, "bin_lo_log10rho,bin_hi_log10rho,length", "LDDC CSV").T
        assert lo[1:].tobytes() == hi[:-1].tobytes()
        assert np.append(lo, hi[-1]).tobytes() == hist.bin_edges.tobytes()
        assert lengths.tobytes() == hist.lengths.tobytes()
