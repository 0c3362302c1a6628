"""Dense symmetric eigendecomposition and the success curve.

``eig_sym`` is a thin wrapper over LAPACK's symmetric eigensolver as shipped
with numpy (``np.linalg.eigh``).  It adds the input checks and a
deterministic eigenvector sign convention, ``scheme.SIGN_EPS``'s, which
``reduced.perturbation_report`` applies to the eigenvectors it computes.
No command calls it: it is ``analysis.overlap_balance``'s eigensolver and
the tests' reference.

``secular_curve`` is the success curve |<w|exp(-iHt)|s>|^2 that simulate
prints, from the secular roots (``scheme``) with no matrix.  It sums the
curve in a fixed order over blocks of ``_BLOCK_TIMES`` times, striped over
one thread per CPU (``_worker_count()``, the CPUs this process may use);
memory beyond the output stays bounded, and the bits do not depend on the
CPU count.

Each function imports numpy itself, and ``secular_curve`` only once its
grid and phases pass their checks, so importing this module, or a refused
curve, loads no numpy.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, NamedTuple

from .scheme import SIGN_EPS, SecularSpectrum, _check_grid, _check_phases

if TYPE_CHECKING:
    import numpy as np

#: Times ``secular_curve`` evaluates at once, bounding its working memory.
_BLOCK_TIMES = 1 << 14


class TimeSeries(NamedTuple):
    times: np.ndarray
    probabilities: np.ndarray


def eig_sym(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a real symmetric matrix with LAPACK (``np.linalg.eigh``).

    The matrix must be square, finite, and symmetric to within 1e-12 times
    max(1, largest |entry|); anything else raises ValueError.

    Returns the eigenvalues, ascending, and the orthonormal eigenvectors as
    columns; eigenvector signs are fixed so that the first component of
    magnitude above ``SIGN_EPS`` is non-negative.
    """
    import numpy as np

    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eig_sym requires a square matrix")
    if a.size == 0:
        raise ValueError("eig_sym requires a non-empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("eig_sym requires a finite matrix")
    scale = float(np.abs(a).max())
    if float(np.abs(a - a.T).max()) > 1e-12 * max(scale, 1.0):
        raise ValueError("eig_sym requires a symmetric matrix")

    eigenvalues, vecs = np.linalg.eigh(a)
    significant = np.abs(vecs) > SIGN_EPS
    lead = vecs[significant.argmax(axis=0), np.arange(vecs.shape[1])]
    vecs[:, significant.any(axis=0) & (lead < 0.0)] *= -1.0
    return eigenvalues, vecs


def secular_curve(spectrum: SecularSpectrum, t_max: float, steps: int) -> TimeSeries:
    """Success probability |<w|psi(t)>|^2 on a uniform inclusive time grid.

    The grid is t_j = j * t_max / (steps - 1) for j = 0 .. steps-1.  The
    amplitude is sum_i weights_i exp(-i shift_i t), with
    ``spectrum.weights()`` and the shifts, which keep the digits of the
    central gap that E_i * t rounds away at large N and differ from it by a
    common phase.  It is added one root at a time in the given order,
    elementwise in t, so no time's bits depend on the blocks.  Block i runs
    on stripe i mod w of w = min(_worker_count(), blocks), each stripe on a
    thread of its own and stripe 0 on the calling thread; an error in any
    stripe stops the others before their next block and is raised once all
    of them have stopped.  ``t_max`` must be finite and non-negative, and
    every phase shift_i * t_max finite.
    """
    _check_grid(t_max, steps)
    _check_phases(max(map(abs, spectrum.shifts)), t_max)
    import numpy as np

    # Freeing an array this large raises glibc's mmap and trim thresholds,
    # so the blocks' temporaries, and then the chunks of simulate's CSV,
    # reuse heap pages instead of faulting in fresh ones.
    np.empty(1 << 21)
    energies, weights = np.array(spectrum.shifts), np.array(spectrum.weights())
    times = np.linspace(0.0, float(t_max), int(steps))
    probabilities = np.empty(times.size)
    blocks = -(-times.size // _BLOCK_TIMES)
    workers = min(_worker_count(), blocks) or 1
    errors: list[BaseException] = []

    def fill(stripe: int) -> None:
        # numpy's ufuncs release the GIL, so stripes run side by side.
        try:
            for i in range(stripe, blocks, workers):
                if errors:
                    return
                block = times[i * _BLOCK_TIMES:(i + 1) * _BLOCK_TIMES]
                amplitude = np.zeros(block.size, dtype=complex)
                for energy, weight in zip(energies, weights):
                    amplitude += weight * np.exp(-1j * energy * block)
                probabilities[i * _BLOCK_TIMES:(i + 1) * _BLOCK_TIMES] = np.abs(amplitude) ** 2
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fill, args=(w,)) for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        fill(0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]
    return TimeSeries(times=times, probabilities=probabilities)


def _worker_count() -> int:
    """The number of CPUs this process may run on (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
