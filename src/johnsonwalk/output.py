"""CSV and SVG emission for simulation results.

CSV is the interchange format: UTF-8, header row, LF line endings, floats
printed with 17 significant digits so parsing the file back reproduces the
exact float64 values.  ``write_csv`` takes the data as columns, not rows.
A table whose columns all export a 1-d buffer of ``memoryview`` format
``d`` or ``q`` (float64 or int64: ``array.array`` of those typecodes, or a
float64 ndarray) is read through ``memoryview``, strided or not, and
written in bulk by one chunk loop, ``_write_rows``.  It picks a formatter
once per table: ``_digits``' numpy formatter when every column is float64
and numpy is already loaded, as in ``simulate``, else one printf template
(``_FORMATS`` maps a format to its conversion).  It then formats and
writes ``CHUNK_ROWS`` rows at a time on the calling thread, so memory
stays bounded for any row count, and the bytes are ``'%.17g'``'s and
``'%d'``'s.  Any other table (int64 and uint64 ndarrays
among them), and every header, goes through ``csv.writer`` with LF line
endings, which quotes text the way the running Python's ``csv`` module does
and prints a number with the same text.  The SVG writer draws a small standalone line
chart (fixed 800x500 canvas) for eyeballing success curves and overlap
sweeps without a plotting stack.

The module imports the standard library only: it reads array columns
through the buffer protocol and chart series as sequences of numbers, so
neither writing a table nor drawing a chart loads an array library.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import IO, Optional, Sequence

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 500
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 25.0
_MARGIN_BOTTOM = 55.0
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                  "#ff7f0e", "#8c564b")

#: Rows formatted and written per chunk of a table written in bulk; a
#: chunk's values and text are what a formatter holds at a time.
CHUNK_ROWS = 1 << 13

#: printf conversion per ``memoryview`` format written in bulk; a column of
#: any other format goes value by value.
_FORMATS = {"d": "%.17g", "q": "%d"}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    return str(value)


def _typecode(column) -> Optional[str]:
    """The ``_FORMATS`` key of a column written in bulk, else None."""
    try:
        view = memoryview(column)
    except (TypeError, ValueError):  # no buffer, or one of an unexported type
        return None
    if view.ndim != 1:
        raise ValueError(f"CSV columns must be 1-d, got shape {view.shape}")
    return view.format if view.format in _FORMATS else None


def _write_rows(write, typecodes: str, columns, n_rows: int) -> int:
    """Write ``n_rows`` CSV rows of the memoryviews ``columns``, one per
    ``_FORMATS`` key in ``typecodes``, one ``write`` call per chunk; return
    how many values were left to ``'%.17g'`` itself."""
    width = len(columns)
    template = ",".join(_FORMATS[code] for code in typecodes) + "\n"

    def rows(start: int, stop: int) -> tuple[str, int]:
        interleaved: list = [None] * ((stop - start) * width)
        for j, values in enumerate(columns):
            interleaved[j::width] = values[start:stop].tolist()
        return template * (stop - start) % tuple(interleaved), 0

    if typecodes == "d" * width and "numpy" in sys.modules:
        from . import _digits
        rows = _digits.formatter(columns)
    fallbacks = 0
    for start in range(0, n_rows, CHUNK_ROWS):
        text, left = rows(start, min(start + CHUNK_ROWS, n_rows))
        write(text)
        fallbacks += left
    return fallbacks


def _write_columns(handle: IO[str], header: Sequence[str],
                   columns: Sequence) -> int:
    import csv

    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    typecodes = "".join(_typecode(column) or "?" for column in columns)
    numeric = "?" not in typecodes
    if numeric:
        columns = [memoryview(column) for column in columns]
    else:
        columns = [[_format_value(value) for value in column] for column in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns must all have the same length")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    if not numeric:
        writer.writerows(zip(*columns))
        return 0
    return _write_rows(handle.write, typecodes, columns, n_rows)


def write_csv(path: Optional[str], header: Sequence[str],
              columns: Sequence) -> int:
    """Write one header row plus one data row per index; path None means stdout.

    ``columns`` holds one sequence per header field, all of one length.
    When every column is a 1-d buffer of format ``d`` or ``q``, floats are
    written with 17 significant digits and integers in decimal, a chunk of
    rows at a time.  Otherwise (lists, mixed values, str, bool, complex,
    other number types) every value is formatted on its own,
    with the same text for a number: a bool by name, an integer in decimal
    and any other real number as a float with 17 significant digits.  The
    rows then go through ``csv.writer``, which quotes fields as the running
    Python's ``csv`` module does; so does the header.  Zero-length columns produce a
    header-only file, which keeps downstream concatenation and diffing
    predictable.  Returns how many values of an all-float64 table formatted
    with numpy were left to ``'%.17g'`` itself (0 for any other table).
    """
    if path is None:
        return _write_columns(sys.stdout, header, columns)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        return _write_columns(handle, header, columns)


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = 0.5 * max(1.0, abs(lo))
    return lo - pad, hi + pad


def _extent(values: list[float]) -> tuple[float, float]:
    """The least and the greatest value, both NaN if a value is NaN."""
    if any(map(math.isnan, values)):
        return math.nan, math.nan
    return min(values), max(values)


def render_svg(path: Optional[str],
               series: Sequence[tuple[Sequence[float], Sequence[float]]],
               x_label: str = "", y_label: str = "") -> None:
    """Render (x, y) series as a standalone SVG line chart.

    Each series becomes one polyline, and a series of fewer than 2 points
    is refused, as is a chart of none.  Each axis spans every value of every
    series, so a NaN anywhere makes that axis's extent NaN; it carries five
    tick labels, and a degenerate range is padded so a flat series still
    renders.
    """
    cleaned = []
    for xs, ys in series:
        xs, ys = list(map(float, xs)), list(map(float, ys))
        if len(xs) != len(ys):
            raise ValueError("each series needs matching 1-d x and y arrays")
        if len(xs) < 2:
            raise ValueError("a series needs at least 2 points")
        cleaned.append((xs, ys))
    if not cleaned:
        raise ValueError("cannot render an empty chart")

    x_lo, x_hi = _padded(*_extent([x for xs, _ in cleaned for x in xs]))
    y_lo, y_hi = _padded(*_extent([y for _, ys in cleaned for y in ys]))
    plot_w = CANVAS_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = CANVAS_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    base_y = CANVAS_HEIGHT - _MARGIN_BOTTOM

    def px(xs: list[float]) -> list[float]:
        return [_MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w for x in xs]

    def py(ys: list[float]) -> list[float]:
        return [base_y - (y - y_lo) / (y_hi - y_lo) * plot_h for y in ys]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH}" '
        f'height="{CANVAS_HEIGHT}" viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}">',
        f'<rect width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{base_y}" x2="{CANVAS_WIDTH - _MARGIN_RIGHT}" '
        f'y2="{base_y}" stroke="black"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{base_y}" stroke="black"/>',
    ]
    fracs = [i / 4.0 for i in range(5)]
    x_ticks = [x_lo + frac * (x_hi - x_lo) for frac in fracs]
    y_ticks = [y_lo + frac * (y_hi - y_lo) for frac in fracs]
    for xt, xp, yt, yp in zip(x_ticks, px(x_ticks), y_ticks, py(y_ticks)):
        parts.append(f'<line x1="{xp:.2f}" y1="{base_y}" x2="{xp:.2f}" '
                     f'y2="{base_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp:.2f}" y="{base_y + 20}" font-size="12" '
                     f'text-anchor="middle">{format(xt, ".4g")}</text>')
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{yp:.2f}" '
                     f'x2="{_MARGIN_LEFT}" y2="{yp:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{yp + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{format(yt, ".4g")}</text>')
    if x_label:
        parts.append(f'<text x="{(_MARGIN_LEFT + CANVAS_WIDTH - _MARGIN_RIGHT) / 2:.2f}" '
                     f'y="{CANVAS_HEIGHT - 12}" font-size="14" '
                     f'text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(f'<text transform="rotate(-90)" x="{-(CANVAS_HEIGHT / 2):.2f}" '
                     f'y="18" font-size="14" text-anchor="middle">{y_label}</text>')
    for idx, (xs, ys) in enumerate(cleaned):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        coords = [0.0] * (2 * len(xs))
        coords[0::2] = px(xs)
        coords[1::2] = py(ys)
        points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(coords)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
    parts.append("</svg>")
    document = "\n".join(parts) + "\n"

    if path is None:
        sys.stdout.write(document)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
