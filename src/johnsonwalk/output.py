"""CSV and SVG emission for simulation results.

CSV is the interchange format: UTF-8, header row, LF line endings, floats
printed with 17 significant digits so parsing the file back reproduces the
exact float64 values.  ``write_csv`` takes the data as columns, not rows.
A table whose columns are all float or integer arrays (ndarrays, or
``array.array`` of typecode ``d``, ``q`` or ``Q``, which need no numpy) is
formatted in bulk, one printf template per chunk of rows (``_split.FORMATS``
maps a dtype kind to its typecode and conversion), and each chunk goes out
in one write; such a table longer than one chunk is split into one range of
rows per CPU: this process formats the first range, and helper processes
running ``_split.py`` format the others through unnamed temporary files,
whose text is copied on in bounded pieces.  Either way memory stays bounded for
any row count, and the bytes do not depend on the number of CPUs.  Any
other table, and every header, goes through ``csv.writer`` with LF line
endings, which quotes text the way the running Python's ``csv`` module
does.  The SVG writer draws a small standalone line chart (fixed 800x500
canvas) for eyeballing success curves and overlap sweeps without a
plotting stack.

The module imports numpy only to draw a chart or to write ndarrays, so
writing plain columns leaves it unloaded.
"""

from __future__ import annotations

import array
import os
import sys
from typing import IO, Optional, Sequence

from . import _split

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 500
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 25.0
_MARGIN_BOTTOM = 55.0
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                  "#ff7f0e", "#8c564b")

#: Rows formatted and written per chunk by ``write_csv``; a numeric table
#: longer than this is split across the CPUs.
_CHUNK_ROWS = _split.CHUNK_ROWS

#: The helper that formats a range of rows in another process; it imports
#: the standard library only, so it runs isolated and without site-packages.
_HELPER_ARGV = (sys.executable, "-I", "-S", os.path.abspath(_split.__file__))

#: Values this process formats while a helper starts, measured on a 2-core
#: x86_64 (a helper starts in 10-20 ms, a value takes about 0.7 us); the
#: first range is that much longer than the others.
_HELPER_START_VALUES = 24000

#: Bytes of a helper's text copied on at a time.
_COPY_BYTES = 1 << 20

#: The dtype kind of each ``array.array`` typecode written in bulk.
_TYPECODE_KINDS = {code: kind for kind, (code, _) in _split.FORMATS.items()}


def _numpy():
    """numpy if it is loaded: an ndarray or numpy scalar exists only then."""
    return sys.modules.get("numpy")


def _format_value(value) -> str:
    np = _numpy()
    if isinstance(value, bool) or (np and isinstance(value, np.bool_)):
        return str(value)
    if isinstance(value, int) or (np and isinstance(value, np.integer)):
        return str(int(value))
    if isinstance(value, float) or (np and isinstance(value, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _kind(column) -> Optional[str]:
    """The ``_split.FORMATS`` kind of a column written in bulk, else None."""
    if isinstance(column, array.array):
        return _TYPECODE_KINDS.get(column.typecode)
    np = _numpy()
    if np and isinstance(column, np.ndarray) and column.dtype.kind in _split.FORMATS:
        return column.dtype.kind
    return None


def _write_columns(handle: IO[str], header: Sequence[str],
                   columns: Sequence) -> None:
    import csv

    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    np = _numpy()
    for column in columns:
        if np and isinstance(column, np.ndarray) and column.ndim != 1:
            raise ValueError(f"CSV columns must be 1-d, got shape {column.shape}")
    kinds = "".join(_kind(column) or "?" for column in columns)
    numeric = "?" not in kinds
    if not numeric:
        columns = [[_format_value(value) for value in column] for column in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns must all have the same length")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    if not numeric:
        writer.writerows(zip(*columns))
        return
    workers = _split.worker_count()
    if workers > 1 and n_rows > _CHUNK_ROWS and sys.executable:
        _write_split(handle, kinds, columns, n_rows, workers)
    else:
        _split.write_rows(handle.write, kinds, columns, n_rows)


def _write_split(handle: IO[str], kinds: str, columns: Sequence,
                 n_rows: int, workers: int) -> None:
    """Format the first range of rows here and each other range in a helper.

    Each helper reads its rows from one unnamed temporary file and writes
    their text to another, which is copied on to ``handle`` in pieces of
    ``_COPY_BYTES`` once this process has written its own range.
    """
    import subprocess
    import tempfile

    bounds = _split_bounds(n_rows, len(columns), workers)
    typecodes = [_split.FORMATS[kind][0] for kind in kinds]
    argv = [*_HELPER_ARGV, kinds]
    processes, sinks = [], []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            sinks.append(tempfile.TemporaryFile())
            with tempfile.TemporaryFile() as source:
                for lo in range(start, stop, _CHUNK_ROWS):
                    hi = min(lo + _CHUNK_ROWS, stop)
                    for column, code in zip(columns, typecodes):
                        chunk = column[lo:hi]
                        if not isinstance(chunk, array.array):
                            import numpy as np

                            chunk = np.ascontiguousarray(chunk, dtype=code)
                        source.write(chunk)
                source.seek(0)
                processes.append(subprocess.Popen(
                    argv + [str(stop - start)], stdin=source, stdout=sinks[-1],
                    stderr=subprocess.PIPE))
        _split.write_rows(handle.write, kinds, columns, bounds[1])
        for process, sink in zip(processes, sinks):
            _, err = process.communicate()
            if process.returncode != 0:
                detail = err.decode("utf-8", "replace").strip().splitlines()
                raise ChildProcessError(
                    f"CSV row helper exited with status {process.returncode}"
                    + (f": {detail[-1]}" if detail else ""))
            sink.seek(0)
            while piece := sink.read(_COPY_BYTES):
                handle.write(piece.decode("ascii"))
    finally:
        for process in processes:
            if process.returncode is None:
                process.kill()
                process.communicate()
        for sink in sinks:
            sink.close()


def _split_bounds(n_rows: int, width: int, workers: int) -> list[int]:
    """Row boundaries of ``workers`` ranges, the first one this process's.

    A helper starts later than this process, by about
    ``_HELPER_START_VALUES`` formatted values, so the first range is that
    much longer and all ranges finish together.
    """
    share = max(0, (n_rows - _HELPER_START_VALUES // width) // workers)
    first = n_rows - (workers - 1) * share
    return [0] + [first + i * share for i in range(workers)]


def write_csv(path: Optional[str], header: Sequence[str],
              columns: Sequence) -> None:
    """Write one header row plus one data row per index; path None means stdout.

    ``columns`` holds one sequence per header field, all of one length.
    When every column is a float or integer ndarray or ``array.array``,
    floats are written with 17 significant digits and integers in decimal,
    a chunk of rows at a time.  Otherwise (lists, mixed values, str, bool,
    complex) every value is formatted on its own and the rows go through
    ``csv.writer``, which quotes fields as the running Python's ``csv``
    module does; so does the header.  Zero-length columns produce a
    header-only file, which keeps downstream concatenation and diffing
    predictable.
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
    import numpy as np

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
