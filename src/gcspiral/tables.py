"""Text output and the package's one CSV table format.

A table is a header line of comma-separated column names followed by one
line per row, every value written as ``%.17g`` (so it reads back bit for
bit), with LF line ends and a trailing newline. Rows are an (n, k)
array-like; targets and sources are a path or an open text stream.
"""

from __future__ import annotations

from itertools import chain
from typing import IO, Union

import numpy as np

from .errors import DomainError

__all__ = ["write_text", "write_table", "read_table", "row_array"]


def write_text(target: Union[str, IO[str]], text: str) -> None:
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_table(target: Union[str, IO[str]], header: str, rows) -> None:
    """Write `header`, then the (n, k) array-like `rows` in one format call."""
    # A list of rows is flattened as it is: np.asarray over thousands of
    # tuples costs more than formatting them.
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    row_template = "\n" + ",".join(["%.17g"] * len(header.split(",")))
    body = row_template * len(rows) % tuple(chain.from_iterable(rows))
    write_text(target, header + body + "\n")


def row_array(rows, width: int) -> np.ndarray:
    """The (n, width) array-like `rows` as an (n, width) float array.

    A list of rows is flattened with `chain` into np.fromiter, about three
    times quicker than np.asarray over thousands of tuples. A row of any
    other width raises DomainError.
    """
    if isinstance(rows, np.ndarray):
        array = rows.astype(float, copy=False)
        ragged = array.ndim != 2 or array.shape[1] != width
    else:
        try:
            ragged = bool(set(map(len, rows)) - {width})
        except TypeError:  # a row that is a bare number
            ragged = True
        if not ragged:
            array = np.fromiter(chain.from_iterable(rows), float, len(rows) * width)
    if ragged:
        raise DomainError(f"every row must hold {width} values")
    return array.reshape(-1, width)


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
