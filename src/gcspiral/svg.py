"""Minimal deterministic SVG emitters: polyline plots and bar charts.

Output is plain static markup. The view box is fitted to the data's
bounding box plus a 5% margin; the vertical axis is flipped so that
mathematical y grows upward. Every number is written as ``%.8g``: the
header numbers and the bar charts by Python's ``%``, and a document's
point lists together, by the text kernel in `tables` (which writes the
same bytes) once they hold enough numbers.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .lddc import LddcHistogram
from .tables import _texts, row_array

__all__ = ["polyline_svg", "bar_chart_svg"]

# Fixed qualitative palette so repeated runs are byte-identical.
PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


# XML text escapes, as html.escape(text, quote=False) makes them.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(v: float) -> str:
    return f"{v:.8g}"


def _escaped(name: str, text) -> str:
    """`text` escaped as XML text, if it is a str."""
    if not isinstance(text, str):
        raise DomainError(f"{name} must be a str, got {text!r}")
    return text.translate(_XML_TEXT)


class _Frame:
    """The data box [x_lo, x_hi] x [y_lo, y_hi] with a 5% margin (a unit pad where a
    span is 0), y flipped about it so that mathematical y grows upward."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.data = (x_lo, x_hi, y_lo, y_hi)
        pad_x = 0.05 * (x_hi - x_lo) if x_hi > x_lo else 0.5
        pad_y = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.5
        self.x, self.y = x_lo - pad_x, y_lo - pad_y
        self.width = x_hi + pad_x - self.x
        self.height = y_hi + pad_y - self.y
        self.size = max(self.width, self.height)
        self.font = 0.03 * self.size
        self._mirror = y_hi + pad_y + self.y

    def flip(self, y):
        return self._mirror - y

    def open(self) -> list[str]:
        """The XML declaration, the svg element and a white background."""
        x, y, w, h = map(_fmt, (self.x, self.y, self.width, self.height))
        return [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x} {y} {w} {h}">',
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="#ffffff"/>',
        ]

    def axis(self, stroke_width: float) -> str:
        """Left and bottom axis lines along the data box."""
        x_lo, x_hi, y_lo, y_hi = self.data
        left, top, bottom = _fmt(x_lo), _fmt(self.flip(y_hi)), _fmt(self.flip(y_lo))
        return (
            f'<polyline points="{left},{top} {left},{bottom} {_fmt(x_hi)},{bottom}" '
            f'fill="none" stroke="#333333" stroke-width="{_fmt(stroke_width)}"/>'
        )

    def legend(self, i: int, color: str, text: str) -> str:
        """Line i of the legend in the top left corner (text already escaped)."""
        return (
            f'<text x="{_fmt(self.x + 0.02 * self.width)}" '
            f'y="{_fmt(self.y + (1.5 + 1.2 * i) * self.font)}" font-size="{_fmt(self.font)}" '
            f'fill="{color}">{text}</text>'
        )


def polyline_svg(
    polylines: Sequence,
    labels: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render one or more polylines, each an (n, 2) array-like of data coordinates.

    Coordinates are emitted with the y axis flipped about the frame, along
    with left/bottom axis lines and corner range labels. The title and
    labels, each a str, are escaped as XML text.
    """
    polylines = [row_array(line, 2) for line in polylines]
    title = _escaped("title", title)
    labels = None if labels is None else [_escaped("label", text) for text in labels]
    points = np.concatenate([np.empty((0, 2))] + polylines)
    if not len(points):
        raise DomainError("cannot plot an empty point set")
    if not np.all(np.isfinite(points)):
        raise DomainError("cannot plot non-finite coordinates")
    # By column: an (n, 2) array's axis-0 reduction takes NumPy's slow narrow-axis path.
    x, y = points.T
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in (x.min(), x.max(), y.min(), y.max()))
    frame = _Frame(x_lo, x_hi, y_lo, y_hi)
    stroke = 0.004 * frame.size
    parts = frame.open()
    if title:
        parts.append(f"<title>{title}</title>")
    parts.append(frame.axis(0.5 * stroke))
    parts.append(
        f'<text x="{_fmt(x_lo)}" y="{_fmt(frame.flip(y_lo) + 1.5 * frame.font)}" '
        f'font-size="{_fmt(frame.font)}" fill="#333333">'
        f"x:[{_fmt(x_lo)},{_fmt(x_hi)}] y:[{_fmt(y_lo)},{_fmt(y_hi)}]</text>"
    )
    flipped = [(np.column_stack((line[:, 0], frame.flip(line[:, 1]))), ", ") for line in polylines]
    for i, pts in enumerate(_texts(flipped, 8)):
        pts = pts[:-1]  # "x,y x,y ... x,y"
        color = PALETTE[i % len(PALETTE)]
        label = labels[i] if labels is not None and i < len(labels) else ""
        title_el = f"<title>{label}</title>" if label else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(stroke)}">{title_el}</polyline>'
        )
    for i, label in enumerate(labels or ()):
        parts.append(frame.legend(i, PALETTE[i % len(PALETTE)], label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart_svg(histogram: LddcHistogram, caption: str = "") -> str:
    """Render a histogram's bin lengths as bars with log10-scaled heights.

    Bars span [edge_i, edge_i+1] horizontally; zero-length bins draw no bar.
    The baseline sits 0.3 decades below the smallest nonzero length so every
    bar has visible height. A nonempty caption, a str escaped as XML text,
    is written in the top left corner.
    """
    if not isinstance(histogram, LddcHistogram):
        raise DomainError(f"bar_chart_svg draws an LddcHistogram, got {type(histogram).__name__}")
    caption = _escaped("caption", caption)
    edges, lengths = histogram.bin_edges.tolist(), histogram.lengths.tolist()
    logs = [math.log10(v) for v in lengths if v > 0.0]
    if not logs:
        raise DomainError("cannot chart an all-zero histogram")
    base = min(logs) - 0.3
    frame = _Frame(edges[0], edges[-1], base, max(logs))
    parts = frame.open()
    for lo, hi, v in zip(edges, edges[1:], lengths):
        if v > 0.0:
            lv = math.log10(v)
            parts.append(
                f'<rect x="{_fmt(lo)}" y="{_fmt(frame.flip(lv))}" width="{_fmt(hi - lo)}" '
                f'height="{_fmt(lv - base)}" fill="{PALETTE[0]}" stroke="#ffffff" '
                f'stroke-width="{_fmt(0.002 * frame.width)}"/>'
            )
    parts.append(frame.axis(0.002 * frame.size))
    if caption:
        parts.append(frame.legend(0, "#333333", caption))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
