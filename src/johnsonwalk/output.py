"""CSV and SVG emission for simulation results.

CSV is the interchange format: UTF-8, header row, LF line endings, floats
printed with 17 significant digits so parsing the file back reproduces the
exact float64 values.  ``write_csv`` takes the data as columns, not rows:
a float or integer ndarray is formatted in bulk, one printf template per
chunk of rows, and each chunk goes out in one write, so memory stays
bounded for any row count.  Other columns are formatted value by value and
quoted the way ``csv.writer(lineterminator="\n")`` quotes.  The SVG writer
draws a small standalone line chart (fixed 800x500 canvas) for eyeballing
success curves and overlap sweeps without a plotting stack.
"""

from __future__ import annotations

import sys
from typing import IO, Optional, Sequence

import numpy as np

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 500
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 25.0
_MARGIN_BOTTOM = 55.0
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                  "#ff7f0e", "#8c564b")

#: Rows formatted and written per chunk by ``write_csv``.
_CHUNK_ROWS = 1 << 16


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _quote(text: str, lone: bool) -> str:
    """Quote a CSV field as ``csv.writer`` does.

    That is a field holding a comma, a double quote or a newline, and an
    empty field that is the whole row (``lone``), which would otherwise
    read as a blank line.
    """
    if "," in text or '"' in text or "\n" in text or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_cells(column, lone: bool) -> tuple[str, Sequence]:
    """A column's printf conversion and the values it formats.

    Float and integer ndarrays stay arrays, formatted by ``%.17g`` and
    ``%d``; anything else becomes a list of quoted ``_format_value`` texts.
    """
    if isinstance(column, np.ndarray):
        if column.ndim != 1:
            raise ValueError(f"CSV columns must be 1-d, got shape {column.shape}")
        if column.dtype.kind == "f":
            return "%.17g", column
        if column.dtype.kind in "iu":
            return "%d", column
    return "%s", [_quote(_format_value(value), lone) for value in column]


def _write_columns(handle: IO[str], header: Sequence[str],
                   columns: Sequence) -> None:
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    width = len(columns)
    cells = [_column_cells(column, width == 1) for column in columns]
    n_rows = len(cells[0][1]) if cells else 0
    if any(len(values) != n_rows for _, values in cells):
        raise ValueError("CSV columns must all have the same length")
    handle.write(",".join(_quote(str(name), width == 1) for name in header) + "\n")
    row_template = ",".join(conversion for conversion, _ in cells) + "\n"
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_rows)
        interleaved: list = [None] * ((stop - start) * width)
        for j, (_, values) in enumerate(cells):
            chunk = values[start:stop]
            interleaved[j::width] = (chunk.tolist() if isinstance(chunk, np.ndarray)
                                     else chunk)
        handle.write(row_template * (stop - start) % tuple(interleaved))


def write_csv(path: Optional[str], header: Sequence[str],
              columns: Sequence) -> None:
    """Write one header row plus one data row per index; path None means stdout.

    ``columns`` holds one sequence per header field, all of one length.  A
    float ndarray is written with 17 significant digits and an integer
    ndarray as decimal integers, a chunk of rows at a time; any other
    sequence (list, mixed values, str, bool) is formatted value by value.
    Text fields containing a comma, a double quote or a newline are quoted
    with doubled inner quotes, as ``csv.writer`` does.  Zero-length
    columns produce a header-only file, which keeps downstream
    concatenation and diffing predictable.
    """
    if path is None:
        _write_columns(sys.stdout, header, columns)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_columns(handle, header, columns)


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = 0.5 * max(1.0, abs(lo))
    return lo - pad, hi + pad


def render_svg(path: Optional[str],
               series: Sequence[tuple[np.ndarray, np.ndarray]],
               x_label: str = "", y_label: str = "") -> None:
    """Render (x, y) series as a standalone SVG line chart.

    Each series becomes one polyline (one circle marker when it has a
    single point).  Axes carry five tick labels per direction; degenerate
    data ranges are padded so a flat series still renders.  Empty input is
    a domain error, not an empty picture.
    """
    cleaned = []
    for xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("each series needs matching 1-d x and y arrays")
        if xs.size == 0:
            raise ValueError("cannot render an empty series")
        cleaned.append((xs, ys))
    if not cleaned:
        raise ValueError("cannot render an empty chart")

    x_lo, x_hi = _padded(min(float(xs.min()) for xs, _ in cleaned),
                         max(float(xs.max()) for xs, _ in cleaned))
    y_lo, y_hi = _padded(min(float(ys.min()) for _, ys in cleaned),
                         max(float(ys.max()) for _, ys in cleaned))
    plot_w = CANVAS_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = CANVAS_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    base_y = CANVAS_HEIGHT - _MARGIN_BOTTOM

    # Both take a float or an array of floats.
    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return base_y - (y - y_lo) / (y_hi - y_lo) * plot_h

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
    for i in range(5):
        frac = i / 4.0
        xt = x_lo + frac * (x_hi - x_lo)
        xp = px(xt)
        parts.append(f'<line x1="{xp:.2f}" y1="{base_y}" x2="{xp:.2f}" '
                     f'y2="{base_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp:.2f}" y="{base_y + 20}" font-size="12" '
                     f'text-anchor="middle">{format(xt, ".4g")}</text>')
        yt = y_lo + frac * (y_hi - y_lo)
        yp = py(yt)
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
        if xs.size == 1:
            parts.append(f'<circle cx="{px(xs[0]):.2f}" cy="{py(ys[0]):.2f}" '
                         f'r="4" fill="{color}"/>')
            continue
        coords = np.empty(2 * xs.size)
        coords[0::2] = px(xs)
        coords[1::2] = py(ys)
        points = " ".join(["%.2f,%.2f"] * xs.size) % tuple(coords.tolist())
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
    parts.append("</svg>")
    document = "\n".join(parts) + "\n"

    if path is None:
        sys.stdout.write(document)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
