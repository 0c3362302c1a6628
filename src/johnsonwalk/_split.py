"""Splitting ``simulate``'s work across the CPUs this process may use.

``worker_count`` is the number of those CPUs; ``linalg.success_curve`` runs
that many threads and ``output.write_csv`` that many row formatters.

``write_rows`` is the one numeric CSV row formatter.  ``write_csv`` calls it
in-process on the first range of rows, and each further range goes to this
file run as a script in a helper process:

    python -I -S _split.py KINDS ROWS

KINDS holds one numpy dtype kind per column (``f``, ``i`` or ``u``, e.g.
``fif``), and ``FORMATS`` maps each kind to the raw typecode the caller
writes and the printf conversion that formats it.  The helper reads ROWS
rows from stdin as raw native numbers, laid out a chunk of ``CHUNK_ROWS``
rows at a time with the chunk's columns one after another, and writes the
rows' text to stdout.  It runs isolated and without site-packages, so this
module imports the standard library only.
"""

from __future__ import annotations

import os
import sys

#: Rows formatted and written per chunk; one chunk's text and values are
#: what a formatter holds in memory at a time.
CHUNK_ROWS = 1 << 16

#: Raw typecode (float64, int64, uint64) and printf conversion per numeric
#: dtype kind; a column of any other kind is not written by ``write_rows``.
FORMATS = {"f": ("d", "%.17g"), "i": ("q", "%d"), "u": ("Q", "%d")}


def worker_count() -> int:
    """The number of CPUs this process may run on (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def write_rows(write, kinds: str, columns, n_rows: int) -> None:
    """Write ``n_rows`` CSV rows, one ``write`` call per chunk of rows.

    ``columns`` are sliceable sequences whose slices have a ``tolist``
    method (ndarrays, memoryviews), one per dtype kind in ``kinds``.
    """
    width = len(columns)
    template = ",".join(FORMATS[kind][1] for kind in kinds) + "\n"
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        interleaved: list = [None] * ((stop - start) * width)
        for j, values in enumerate(columns):
            interleaved[j::width] = values[start:stop].tolist()
        write(template * (stop - start) % tuple(interleaved))


def _main(kinds: str, n_rows: int) -> None:
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    for start in range(0, n_rows, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n_rows - start)
        size = 8 * rows
        data = memoryview(source.read(size * len(kinds)))
        if len(data) != size * len(kinds):
            raise SystemExit(f"expected {n_rows} rows, input ended early")
        columns = [data[j * size:(j + 1) * size].cast(FORMATS[kind][0])
                   for j, kind in enumerate(kinds)]
        write_rows(lambda text: sink.write(text.encode("ascii")),
                   kinds, columns, rows)


if __name__ == "__main__":
    _main(sys.argv[1], int(sys.argv[2]))
