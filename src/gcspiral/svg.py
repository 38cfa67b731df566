"""Minimal deterministic SVG emitters: polyline plots and bar charts.

Output is plain static markup. The view box is fitted to the data's
bounding box plus a 5% margin; the vertical axis is flipped so that
mathematical y grows upward. Every number is written as ``%.8g``: the
header numbers, short point lists and the bar charts by Python's ``%``,
and longer point lists by the text kernel in `tables`, which writes the
same bytes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .tables import _text, row_array

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


def _bounds(polylines: list[np.ndarray]) -> tuple[float, float, float, float]:
    points = np.concatenate([np.empty((0, 2))] + polylines)
    if not len(points):
        raise DomainError("cannot plot an empty point set")
    if not np.all(np.isfinite(points)):
        raise DomainError("cannot plot non-finite coordinates")
    (x_lo, y_lo), (x_hi, y_hi) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    return x_lo, x_hi, y_lo, y_hi


def _frame(x_lo, x_hi, y_lo, y_hi):
    """View box with a 5% margin; degenerate spans get a unit pad."""
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    pad_x = 0.05 * span_x if span_x > 0.0 else 0.5
    pad_y = 0.05 * span_y if span_y > 0.0 else 0.5
    return x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y


def polyline_svg(
    polylines: Sequence,
    labels: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render one or more polylines, each an (n, 2) array-like of data coordinates.

    Coordinates are emitted with the y axis flipped about the frame, along
    with left/bottom axis lines and corner range labels. The title and
    labels are escaped as XML text.
    """
    polylines = [row_array(line, 2) for line in polylines]
    title = title.translate(_XML_TEXT)
    labels = None if labels is None else [text.translate(_XML_TEXT) for text in labels]
    x_lo, x_hi, y_lo, y_hi = _bounds(polylines)
    fx_lo, fx_hi, fy_lo, fy_hi = _frame(x_lo, x_hi, y_lo, y_hi)
    width = fx_hi - fx_lo
    height = fy_hi - fy_lo

    def flip(y: float) -> float:
        return fy_hi + fy_lo - y

    stroke = 0.004 * max(width, height)
    font = 0.03 * max(width, height)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(fx_lo)} {_fmt(fy_lo)} '
        f'{_fmt(width)} {_fmt(height)}">',
        f'<rect x="{_fmt(fx_lo)}" y="{_fmt(fy_lo)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(f"<title>{title}</title>")
    axis = (
        f'<polyline points="{_fmt(x_lo)},{_fmt(flip(y_hi))} {_fmt(x_lo)},{_fmt(flip(y_lo))} '
        f'{_fmt(x_hi)},{_fmt(flip(y_lo))}" fill="none" stroke="#333333" '
        f'stroke-width="{_fmt(0.5 * stroke)}"/>'
    )
    parts.append(axis)
    parts.append(
        f'<text x="{_fmt(x_lo)}" y="{_fmt(flip(y_lo) + 1.5 * font)}" font-size="{_fmt(font)}" '
        f'fill="#333333">x:[{_fmt(x_lo)},{_fmt(x_hi)}] y:[{_fmt(y_lo)},{_fmt(y_hi)}]</text>'
    )
    for i, line in enumerate(polylines):
        color = PALETTE[i % len(PALETTE)]
        xy = np.column_stack((line[:, 0], flip(line[:, 1])))
        pts = _text(xy, ", ", 8)[:-1]  # "x,y x,y ... x,y"
        label = labels[i] if labels is not None and i < len(labels) else ""
        title_el = f"<title>{label}</title>" if label else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(stroke)}">{title_el}</polyline>'
        )
    if labels is not None:
        for i, label in enumerate(labels):
            color = PALETTE[i % len(PALETTE)]
            parts.append(
                f'<text x="{_fmt(fx_lo + 0.02 * width)}" '
                f'y="{_fmt(fy_lo + (1.5 + 1.2 * i) * font)}" font-size="{_fmt(font)}" '
                f'fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart_svg(
    bin_edges: Sequence[float],
    values: Sequence[float],
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render a histogram whose bars carry log10-scaled heights.

    Bars span [edge_i, edge_i+1] horizontally; zero-valued bins draw no bar.
    The baseline sits 0.3 decades below the smallest nonzero value so every
    bar has visible height.
    """
    if len(bin_edges) != len(values) + 1:
        raise DomainError("need exactly one more bin edge than values")
    positive = [v for v in values if v > 0.0]
    if not positive:
        raise DomainError("cannot chart an all-zero histogram")
    log_vals = [math.log10(v) if v > 0.0 else None for v in values]
    base = min(math.log10(v) for v in positive) - 0.3
    top = max(math.log10(v) for v in positive)
    x_lo, x_hi = float(bin_edges[0]), float(bin_edges[-1])
    fx_lo, fx_hi, fy_lo, fy_hi = _frame(x_lo, x_hi, base, top)
    width = fx_hi - fx_lo
    height = fy_hi - fy_lo

    def flip(y: float) -> float:
        return fy_hi + fy_lo - y

    font = 0.03 * max(width, height)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(fx_lo)} {_fmt(fy_lo)} '
        f'{_fmt(width)} {_fmt(height)}">',
        f'<rect x="{_fmt(fx_lo)}" y="{_fmt(fy_lo)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    for i, lv in enumerate(log_vals):
        if lv is None:
            continue
        bx = float(bin_edges[i])
        bw = float(bin_edges[i + 1]) - bx
        parts.append(
            f'<rect x="{_fmt(bx)}" y="{_fmt(flip(lv))}" width="{_fmt(bw)}" '
            f'height="{_fmt(lv - base)}" fill="{PALETTE[0]}" stroke="#ffffff" '
            f'stroke-width="{_fmt(0.002 * width)}"/>'
        )
    parts.append(
        f'<polyline points="{_fmt(x_lo)},{_fmt(flip(top))} {_fmt(x_lo)},{_fmt(flip(base))} '
        f'{_fmt(x_hi)},{_fmt(flip(base))}" fill="none" stroke="#333333" '
        f'stroke-width="{_fmt(0.002 * max(width, height))}"/>'
    )
    caption = f"{x_label} / {y_label}".translate(_XML_TEXT) if x_label or y_label else ""
    if caption:
        parts.append(
            f'<text x="{_fmt(fx_lo + 0.02 * width)}" y="{_fmt(fy_lo + 1.5 * font)}" '
            f'font-size="{_fmt(font)}" fill="#333333">{caption}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
