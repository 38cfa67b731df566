"""Text output, the package's one CSV table format and its number text.

A table is a header line of comma-separated column names followed by one
line per row, every value written as ``%.17g`` (so it reads back bit for
bit), with LF line ends and a trailing newline. Rows are an (n, k)
array-like of real numbers; targets and sources are a path or an open
text stream. SVG point lists (`svg.polyline_svg`) are written as ``%.8g``.

Both precisions go through one NumPy kernel that writes the bytes of
Python's own ``%`` (CPython's dtoa leaves its fast path at 17 digits, and
even at 8 it is slower than the kernel on long lists). Numbers are
formatted in passes: `write_tables` takes all its tables in one pass, and
`svg.polyline_svg` all of a document's point lists. A pass of all but a
few hundred values is split evenly over the fewest blocks of about 4096
values, which may run from one table into the next, and each block is one
kernel call; the pass's text is then cut where each table or point list
ends. For a value x of decimal exponent E in the kernel's range,
x * 10**(digits - 1 - E) is exactly hi + lo by Dekker's TwoProduct (10**k
is an exact double for k <= 22), and rounding hi + lo half to even gives
the digits. E comes from log10 and is corrected by an exact range check on
hi + lo. Each value is laid out in one constant row (sign, "0.000", the
digits, the point and the separator); a keep mask looked up by (E, last
nonzero digit) picks the characters that ``%`` prints, and one boolean
compress of the flat bytes joins the block. At both precisions the kernel writes only the values that
``%g`` writes in fixed notation, 1e-4 < |x| < 10**digits; Python formats
any other value (0, -0, subnormals, inf, nan, and every value in
scientific notation).
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain
from types import SimpleNamespace
from typing import IO, Union

import numpy as np

from .errors import DomainError, numeric

__all__ = ["write_text", "write_tables", "read_table", "row_array"]


def write_text(target: Union[str, IO[str]], text: str) -> None:
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_tables(tables: list) -> None:
    """Write each (target, header, rows) of the list `tables`: the header line,
    then the (n, k) array-like `rows`, k the header's width, their numbers
    formatted together in one pass."""
    pieces = []
    for _target, header, rows in tables:
        width = len(header.split(","))
        pieces.append((row_array(rows, width), "," * (width - 1) + "\n"))
    for (target, header, _rows), body in zip(tables, _texts(pieces, 17)):
        write_text(target, header + "\n" + body)


def _texts(pieces, digits: int) -> list[str]:
    """The `%.<digits>g` text (`digits` 17 or 8) of each (rows, ends) piece,
    rows an (n, k) float array, value j of each row followed by ends[j].
    Every piece's rows end in one character ends[-1], held by no other end
    and no number text. The pass's total count of values picks the template
    or the kernel for all of it."""
    total = sum(rows.size for rows, _ends in pieces)
    if total < _KERNEL_MIN_VALUES[digits]:
        return [
            "".join(f"%.{digits}g{end}" for end in ends) * len(rows) % tuple(rows.ravel().tolist())
            for rows, ends in pieces
        ]
    values = np.concatenate([rows.ravel() for rows, _ends in pieces])
    value_ends = np.concatenate(
        [np.tile(np.frombuffer(ends.encode("ascii"), np.uint8), len(rows)) for rows, ends in pieces]
    )
    # The fewest blocks of about _BLOCK_VALUES, split evenly, so that no block
    # is left with the kernel's fixed cost for a few values.
    blocks = -(-total // _BLOCK_VALUES)
    bounds = [total * i // blocks for i in range(blocks + 1)]
    layout = _LAYOUTS[digits]
    text = (_format(values[a:b], value_ends[a:b], layout) for a, b in zip(bounds, bounds[1:]))
    text = b"".join(text)
    cuts = [0, len(text)]
    if len(pieces) > 1:
        # Piece i ends with the terminator of its last row, counted over pieces 0..i.
        stops = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(pieces[0][1][-1])) + 1
        cuts = np.append(0, stops)[[0, *accumulate(len(rows) for rows, _ends in pieces)]].tolist()
    return [text[a:b].decode("ascii") for a, b in zip(cuts, cuts[1:])]


# -- the %.17g and %.8g kernel --------------------------------------------

# Below this many values in a pass, by digits, text is formatted by the %
# template, which is quicker there than the kernel's fixed cost per call. With warm
# caches they break even near 200 values of 17 digits and 500 of 8; with a
# 16 MB array summed between calls, near 450 and 1,500. At 256 samples the
# CLI writes 17-digit passes of at most 64 values or at least 512, and from
# 512 the kernel is as quick cold (768 values: 0.46 against 0.65 ms).
_KERNEL_MIN_VALUES = {17: 256, 8: 1536}
# Values formatted per kernel call, about; bounds the scratch arrays to a few MB.
_BLOCK_VALUES = 4096

# 10**k for k = 0..22, each an exact double, and its Veltkamp split.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0
_POW10_HI -= _POW10_HI - _POW10
_POW10_LO = _POW10 - _POW10_HI


def _words(texts) -> np.ndarray:
    """Each 4-byte text as one little-endian word."""
    return np.frombuffer(b"".join(texts), "<u4")


# The text of each 4-digit group 0000-9999 as one word, and the place (0-3)
# of its last nonzero digit (-64 for 0000, below any place plus its offset).
_GROUPS = np.indices((10,) * 4).reshape(4, -1).T + ord("0")
_GROUPS = _GROUPS.astype(np.uint8, order="C").view("<u4").ravel()
_LAST_NONZERO = np.full(10**4, -64, np.int8)
for _place, _nonzero in enumerate((_GROUPS.view(np.uint8).reshape(-1, 4) != ord("0")).T):
    _LAST_NONZERO[_nonzero] = _place
_PAD = 24  # the longest %.17g text, "-2.2250738585072014e-308"


def _layout(digits: int) -> SimpleNamespace:
    """The kernel's row of bytes for `digits` digits, in 4-byte words, for the
    decimal exponents -4 <= E < digits, which ``%g`` writes in fixed notation.

    The digits are cut into 4-digit groups from the right, and the groups
    are written twice, so that a fixed-point number ("ddd.dddd") is kept as
    runs either side of the point, which overwrites the second lead digit:

        17 digits, 48 bytes: "-0.0" "000d" "dddd"*4 "000." "dddd"*4 separator
        8 digits, 28 bytes:  "-0.0" "00"   "dddd"*2 ".ddd" "dddd"   separator

    Bytes 0-5 are the sign and "0.000", the zeros running on into the lead
    group at 17 digits; the bytes left blank are never kept. Besides
    `digits`, the layout holds `head`, the words before the groups;
    `point`, the byte of the "."; `last`, by group and group value, the
    place of its last nonzero digit; and `keep`, the keep masks by
    k * digits + the place of the last nonzero digit.
    """
    groups = -(-digits // 4)
    lead = 4 * -(-(digits + 6) // 4) - digits  # the byte of the lead digit
    point = lead + 4 * groups
    separator = point + digits
    exponent = np.arange(digits - 1, -5, -1)[:, None, None]
    last = np.arange(digits)[None, :, None]
    place = np.arange(1, digits)
    leading_zero = exponent < 0
    point_place = np.where(leading_zero, digits - 1, exponent)
    keep = np.zeros((digits + 4, digits, separator + 4), bool)
    keep[..., 1:3] = leading_zero
    keep[..., 3:6] = leading_zero & (np.arange(3) < -exponent - 1)
    keep[..., lead] = True
    keep[..., lead + 1 : lead + digits] = place <= np.where(leading_zero, last, point_place)
    keep[..., point : point + 1] = last > point_place
    keep[..., point + 1 : point + digits] = (place > point_place) & (place <= last)
    keep[..., separator] = True
    head = _words([b"-0.000\0\0"[: lead + digits - 4 * groups]])
    group_last = digits - 4 * np.arange(groups, 0, -1)[:, None] + _LAST_NONZERO
    return SimpleNamespace(digits=digits, head=head, point=point,
                           last=group_last.astype(np.int8), keep=keep.reshape(-1, separator + 4))


_LAYOUTS = {17: _layout(17), 8: _layout(8)}


def _scaled(x: np.ndarray, x_hi: np.ndarray, x_lo: np.ndarray, k: np.ndarray):
    """x * 10**k as hi + lo exactly (Dekker's TwoProduct)."""
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    hi = x * _POW10.take(k)
    lo = x_hi * p_hi - hi
    lo += x_hi * p_lo
    lo += x_lo * p_hi
    lo += x_lo * p_lo
    return hi, lo


def _format(values: np.ndarray, ends: np.ndarray, layout: SimpleNamespace) -> bytes:
    """The ASCII `%.<layout.digits>g` text of `values`, each followed by its byte of `ends`."""
    count, digits = len(values), layout.digits
    magnitude = np.abs(values)
    slow = ~((magnitude > 1e-4) & (magnitude < 10.0**digits))
    magnitude[slow] = 1.0
    x_hi = magnitude * 134217729.0
    x_hi -= x_hi - magnitude
    x_lo = magnitude - x_hi
    # k = digits - 1 - E, for E from -4 up, scales x into [10**(digits - 1), 10**digits).
    k = digits - 1 - np.floor(np.log10(magnitude)).astype(np.int64)
    np.minimum(np.maximum(k, 0, out=k), digits + 3, out=k)
    hi, lo = _scaled(magnitude, x_hi, x_lo, k)
    # log10 may be one off next to a power of ten. hi - 10**(digits - 1) and
    # hi - 10**digits are exact or far from 0, so these are exact range checks.
    under = (hi - 10.0 ** (digits - 1)) + lo < 0.0
    over = (hi - 10.0**digits) + lo >= 0.0
    if under.any() or over.any():
        k += under
        k -= over
        hi, lo = _scaled(magnitude, x_hi, x_lo, k)
    if digits == 17:
        # hi >= 2**53 is an even integer, so rint(lo) rounds hi + lo half to
        # even. No carry to 10**17: a double below 10**(E + 1) is more than
        # 10 units of its 17th digit below it.
        number = hi.astype(np.int64)
        number += np.rint(lo).astype(np.int64)
    else:
        # hi < 10**8 < 2**27, so hi - floor(hi) - 0.5 is exact, and 0 or at
        # least ulp(hi) > |lo|: adding lo gives the exact sign of
        # hi + lo - (floor(hi) + 0.5). Round up above it, and to even on it.
        floor = np.floor(hi)
        tie = hi - floor
        tie -= 0.5
        tie += lo
        number = floor.astype(np.int64)
        number += (tie > 0.0) | ((tie == 0.0) & ((number & 1) == 1))
        # A rounding up to 10**digits carries into E + 1; at E = digits,
        # that is scientific notation, which Python writes.
        carry = number == 10**digits
        if carry.any():
            number[carry] = 10 ** (digits - 1)
            k -= carry
            slow |= k < 0
            np.maximum(k, 0, out=k)
    words = np.empty((count, len(layout.keep[0]) // 4), "<u4")
    first, groups = len(layout.head), len(layout.last)
    for i, word in enumerate(layout.head):
        words[:, i] = word
    # The groups from the right. Floor division by a constant is a multiply
    # in NumPy; np.divmod and % are not.
    last = np.zeros(count, np.int8)
    for j in reversed(range(groups)):
        group = number
        if j:
            number = group // 10**4
            group = group - number * 10**4
        words[:, first + j] = words[:, first + groups + j] = _GROUPS.take(group)
        np.maximum(last, layout.last[j].take(group), out=last)
    rows = words.view(np.uint8)
    rows[:, layout.point] = ord(".")
    words[:, -1] = ends[:count]
    keep = layout.keep.take(k * digits + last, axis=0)
    np.less(values, 0.0, out=keep[:, 0])
    slow = np.flatnonzero(slow)
    if len(slow):
        text = (f"%-{_PAD}.{digits}g" * len(slow) % tuple(values[slow].tolist())).encode("ascii")
        padded = np.frombuffer(text, np.uint8).reshape(-1, _PAD)
        rows[slow, :_PAD] = padded
        keep[slow, :-4] = False
        keep[slow, :_PAD] = padded != ord(" ")
    return rows.ravel()[keep.ravel()].tobytes()


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
