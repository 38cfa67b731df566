"""Text output and the package's one CSV table format.

A table is a header line of comma-separated column names followed by one
line per row, every value written as ``%.17g`` (so it reads back bit for
bit), with LF line ends and a trailing newline. Rows are an (n, k)
array-like of real numbers; targets and sources are a path or an open
text stream.

At 17 digits CPython's ``%.17g`` leaves its fast path for bignum
arithmetic, so `write_table` formats all but small tables in a NumPy
kernel that writes the same bytes, a block of values at a time. For
1e-6 < |x| < 1e17 with decimal exponent E, x * 10**(16 - E) is exactly
hi + lo by Dekker's TwoProduct (10**k is an exact double for k <= 22), and
rounding hi + lo half to even gives the 17 digits. E comes from log10 and
is corrected by an exact range check on hi + lo. Each value is laid out
in one constant row (sign, "0.000", the digits, the point, the exponent
and the separator); a keep mask looked up by (E, last nonzero digit)
picks the characters that ``%.17g`` prints, and one boolean compress
joins the block. Any other value (0, -0, subnormals, |x| >= 1e17, inf,
nan) is formatted by Python itself.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import IO, Union

import numpy as np

from .errors import DomainError, numeric

__all__ = ["write_text", "write_table", "read_table", "row_array"]


def write_text(target: Union[str, IO[str]], text: str) -> None:
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_table(target: Union[str, IO[str]], header: str, rows) -> None:
    """Write `header`, then the (n, k) array-like `rows`, k the header's width."""
    width = len(header.split(","))
    values = row_array(rows, width).ravel()
    if len(values) < _KERNEL_MIN_VALUES:
        row_template = ",".join(["%.17g"] * width) + "\n"
        body = row_template * (len(values) // width) % tuple(values.tolist())
    else:
        step = max(_BLOCK_VALUES // width, 1) * width
        ends = np.full(step, ord(","), np.uint8)
        ends[width - 1 :: width] = ord("\n")
        blocks = (_format(values[i : i + step], ends) for i in range(0, len(values), step))
        body = b"".join(blocks).decode("ascii")
    write_text(target, header + "\n" + body)


# -- the %.17g kernel -----------------------------------------------------

# Below this many values a table is formatted by the % template, which is
# quicker there than the kernel's fixed cost per call (they break even near
# 200 values of 17 digits each).
_KERNEL_MIN_VALUES = 256
# Values formatted per kernel pass; bounds the scratch arrays to a few MB.
_BLOCK_VALUES = 4096

# 10**k for k = 0..22, each an exact double, and its Veltkamp split.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0
_POW10_HI -= _POW10_HI - _POW10
_POW10_LO = _POW10 - _POW10_HI


def _words(texts) -> np.ndarray:
    """Each 4-byte text as one little-endian word."""
    return np.frombuffer(b"".join(texts), "<u4")


# One value's row of 52 bytes, built as 13 little-endian 4-byte words:
#   0: sign   1-5: "0.000"   7: lead digit   8-23: digits 1-16
#   27: "."   28-43: digits 1-16 again   44-47: "e-0" and the exponent digit
#   48: separator   6, 24-26, 49-51: never kept
# The digits are written twice so that a fixed-point number ("ddd.dddd") is
# kept as runs either side of the point, not as every other byte.
_ROW_WIDTH = 52
_SEPARATOR = 48
_PAD = 24  # the longest %.17g text, "-2.2250738585072014e-308"
_HEAD, _POINT = _words([b"-0.0", b"\0\0\0."])
# Word 1 by lead digit, word 11 by k = 16 - E, words 2-5 (and 7-10) by group.
_LEADS = _words([b"00\0" + str(d).encode() for d in range(10)])
_TAILS = _words([b"e-0" + bytes([ord("0") + k - 16]) for k in range(23)])
_GROUPS = np.indices((10,) * 4).reshape(4, -1).T + ord("0")
_GROUPS = _GROUPS.astype(np.uint8, order="C").view("<u4").ravel()


def _keep_table() -> np.ndarray:
    """Keep masks of a positive value's row, indexed by k * 17 + last nonzero digit."""
    exponent = np.arange(16, -7, -1)[:, None, None]
    last = np.arange(17)[None, :, None]
    digit = np.arange(1, 17)
    scientific = exponent < -4
    leading_zero = ~scientific & (exponent < 0)
    point = np.where(scientific, 0, np.where(leading_zero, 16, exponent))
    keep = np.zeros((23, 17, _ROW_WIDTH), bool)
    keep[..., 1:3] = leading_zero
    keep[..., 3:6] = leading_zero & (np.arange(3) < -exponent - 1)
    keep[..., 7] = True
    keep[..., 8:24] = digit <= np.where(leading_zero, last, point)
    keep[..., 27:28] = last > point
    keep[..., 28:44] = (digit > point) & (digit <= last)
    keep[..., 44:48] = scientific
    keep[..., _SEPARATOR] = True
    return keep.reshape(-1, _ROW_WIDTH)


_KEEP = _keep_table()


def _scaled(x: np.ndarray, x_hi: np.ndarray, x_lo: np.ndarray, k: np.ndarray):
    """x * 10**k as hi + lo exactly (Dekker's TwoProduct)."""
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    hi = x * _POW10[k]
    lo = x_hi * p_hi - hi
    lo += x_hi * p_lo
    lo += x_lo * p_hi
    lo += x_lo * p_lo
    return hi, lo


def _format(values: np.ndarray, ends: np.ndarray) -> bytes:
    """The ASCII `%.17g` text of `values`, each followed by its byte of `ends`."""
    count = len(values)
    magnitude = np.abs(values)
    slow = np.flatnonzero(~((magnitude > 1e-6) & (magnitude < 1e17)))
    magnitude[slow] = 1.0
    x_hi = magnitude * 134217729.0
    x_hi -= x_hi - magnitude
    x_lo = magnitude - x_hi
    # k = 16 - E scales x into [1e16, 1e17); E is the decimal exponent.
    k = 16 - np.floor(np.log10(magnitude)).astype(np.int64)
    np.minimum(np.maximum(k, 0, out=k), 22, out=k)
    hi, lo = _scaled(magnitude, x_hi, x_lo, k)
    # log10 may be one off next to a power of ten. hi - 1e16 and hi - 1e17
    # are exact or far from 0, so these are exact checks of 1e16 <= hi + lo < 1e17.
    under = (hi - 1e16) + lo < 0.0
    over = (hi - 1e17) + lo >= 0.0
    if under.any() or over.any():
        k += under
        k -= over
        hi, lo = _scaled(magnitude, x_hi, x_lo, k)
    # hi >= 2**53 is an even integer, so rint(lo) rounds hi + lo half to even.
    # No carry to 10**17: a double below 10**(E + 1) is more than 10 units of
    # its 17th digit below it.
    digits = hi.astype(np.int64)
    digits += np.rint(lo).astype(np.int64)
    # The lead digit, then four groups of four. Floor division by a constant
    # is a multiply in NumPy; np.divmod and % are not.
    halves = np.empty((count, 2), np.int64)
    np.floor_divide(digits, 10**8, out=halves[:, 0])
    np.subtract(digits, halves[:, 0] * 10**8, out=halves[:, 1])
    lead = halves[:, 0] // 10**8
    halves[:, 0] -= lead * 10**8
    groups = np.empty((count, 2, 2), np.int64)
    np.floor_divide(halves, 10**4, out=groups[..., 0])
    np.subtract(halves, groups[..., 0] * 10**4, out=groups[..., 1])
    groups = groups.reshape(count, 4)
    words = np.empty((count, _ROW_WIDTH // 4), "<u4")
    words[:, 0] = _HEAD
    words[:, 1] = _LEADS[lead]
    words[:, 2:6] = words[:, 7:11] = _GROUPS[groups]
    words[:, 6] = _POINT
    words[:, 11] = _TAILS[k]
    words[:, 12] = ends[:count]
    rows = words.view(np.uint8)
    # The place (0-16) of the last nonzero digit, counted from the lead digit.
    last = 16 - (rows[:, 23:6:-1] != ord("0")).argmax(axis=1)
    keep = _KEEP.take(k * 17 + last, axis=0)
    np.less(values, 0.0, out=keep[:, 0])
    if len(slow):
        text = ("%-24.17g" * len(slow) % tuple(values[slow].tolist())).encode("ascii")
        padded = np.frombuffer(text, np.uint8).reshape(-1, _PAD)
        rows[slow, :_PAD] = padded
        keep[slow, :_SEPARATOR] = False
        keep[slow, :_PAD] = padded != ord(" ")
    return rows[keep].tobytes()


def row_array(rows, width: int) -> np.ndarray:
    """The (n, width) array-like `rows` of numbers as an (n, width) float array.

    A list of rows is flattened with `chain` into one `struct.pack`, several
    times quicker than np.asarray over thousands of tuples. A row of any
    other width, or a value that is not a real number (a string, bytes, a
    complex number, None), raises DomainError.
    """
    if isinstance(rows, np.ndarray):
        values = numeric("rows", rows)
        ragged = values.ndim != 2 or values.shape[1] != width
    else:
        try:
            ragged = bool(set(map(len, rows)) - {width})
        except TypeError:  # a row that is a bare number
            ragged = True
        if not ragged:
            flat = chain.from_iterable(rows)
            try:  # "d" takes what float() takes, but no str or bytes
                values = np.frombuffer(struct.pack(f"{len(rows) * width}d", *flat))
            except struct.error:
                raise DomainError("rows must hold only numbers") from None
    if ragged:
        raise DomainError(f"every row must hold {width} values")
    return values.reshape(-1, width)


def read_table(source: Union[str, IO[str]], header: str, what: str) -> np.ndarray:
    """Parse a table into a (rows, columns) float array.

    Checks the header, the width of every row and that every field is
    numeric; `what` names the table in the DomainError raised otherwise.
    Blank lines are ignored.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != header:
        raise DomainError(f"{what} must start with header '{header}'")
    width = len(header.split(","))
    data = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != width:
            raise DomainError(f"{what} row has {len(parts)} fields, expected {width}: {ln!r}")
        try:
            data.append([float(p) for p in parts])
        except ValueError:
            raise DomainError(f"{what} row is not numeric: {ln!r}") from None
    return np.asarray(data, dtype=float).reshape(len(data), width)
