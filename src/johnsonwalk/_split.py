"""Splitting ``simulate``'s work across the CPUs this process may use.

``worker_count`` is the number of those CPUs; ``linalg.success_curve`` runs
that many threads and ``output.write_csv`` that many row formatters.

``write_rows`` is the one numeric CSV row formatter.  ``write_csv`` calls it
in-process on the first range of rows, and each further range goes to this
file run as a script in a helper process:

    python -I -S _split.py TYPECODES ROWS

TYPECODES holds one ``array`` typecode per column (``d``, ``q`` or ``Q``,
e.g. ``dqd``), and ``FORMATS`` maps each typecode to the printf conversion
that formats it.  The helper reads ROWS rows from stdin as raw native
numbers, laid out a chunk of ``CHUNK_ROWS`` rows at a time with the chunk's
columns one after another, and writes the rows' text to stdout.  It runs
isolated and without site-packages, so this module imports the standard
library only.
"""

from __future__ import annotations

import os
import sys

#: Rows formatted and written per chunk; one chunk's text and values are
#: what a formatter holds in memory at a time.
CHUNK_ROWS = 1 << 16

#: printf conversion per raw typecode (float64, int64, uint64); a column of
#: any other type is not written by ``write_rows``.
FORMATS = {"d": "%.17g", "q": "%d", "Q": "%d"}


def worker_count() -> int:
    """The number of CPUs this process may run on (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def write_rows(write, typecodes: str, columns, n_rows: int) -> None:
    """Write ``n_rows`` CSV rows, one ``write`` call per chunk of rows.

    ``columns`` are 1-d memoryviews, one per typecode in ``typecodes``.
    """
    width = len(columns)
    template = ",".join(FORMATS[code] for code in typecodes) + "\n"
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        interleaved: list = [None] * ((stop - start) * width)
        for j, values in enumerate(columns):
            interleaved[j::width] = values[start:stop].tolist()
        write(template * (stop - start) % tuple(interleaved))


def _main(typecodes: str, n_rows: int) -> None:
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    for start in range(0, n_rows, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n_rows - start)
        size = 8 * rows
        data = memoryview(source.read(size * len(typecodes)))
        if len(data) != size * len(typecodes):
            raise SystemExit(f"expected {n_rows} rows, input ended early")
        columns = [data[j * size:(j + 1) * size].cast(code)
                   for j, code in enumerate(typecodes)]
        write_rows(lambda text: sink.write(text.encode("ascii")),
                   typecodes, columns, rows)


if __name__ == "__main__":
    _main(sys.argv[1], int(sys.argv[2]))
