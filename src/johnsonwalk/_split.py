"""Splitting ``simulate``'s work across the CPUs this process may use.

``worker_count`` is the number of those CPUs, and ``stripe`` shares a
list of tasks out over that many threads; ``linalg.success_curve`` runs its
time blocks through it, and ``_digits.write_rows`` its chunks of CSV rows.

``write_rows`` is the standard-library numeric CSV row formatter, which
``output.write_csv`` runs for a table of float64, int64 and uint64 columns
that is not float64 alone or that it writes without numpy loaded.
``FORMATS`` maps each ``array`` typecode (``d``, ``q`` or ``Q``) to the
printf conversion that formats it.
"""

from __future__ import annotations

import os
from typing import Callable

#: Rows formatted and written per chunk; one chunk's text and values are
#: what ``write_rows`` holds in memory at a time.
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


def stripe(task: Callable[[int], None], count: int) -> None:
    """Call ``task(i)`` for i in range(count), striped over one thread per CPU.

    The calling thread takes tasks 0, w, 2w, ... of w = min(worker_count(),
    count) stripes, and each other stripe runs on a thread of its own.  An
    error in any thread stops the others before their next task and is
    raised once all of them have stopped.
    """
    import threading  # here: the numpy-free commands load this module too

    workers = min(worker_count(), count) or 1
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            for i in range(first, count, workers):
                if errors:
                    return
                task(i)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


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
