"""Dense symmetric eigendecomposition and the success curve.

``eig_sym`` is a thin wrapper over LAPACK's symmetric eigensolver as shipped
with numpy (``np.linalg.eigh``).  It adds the input checks and a
deterministic eigenvector sign convention, ``scheme.SIGN_EPS``'s, which
``reduced.perturbation_report`` applies to the eigenvectors it computes.
No command calls it: it is ``analysis.overlap_balance``'s eigensolver and
the tests' reference.

``secular_curve`` is the success curve |<w|exp(-iHt)|s>|^2 that simulate
prints, from the secular roots (``scheme``) with no matrix.  It takes the
phases from one table of exp(-i E t) over the first ``_ANCHOR_TIMES``
times and one set of factors per anchor, so it evaluates few exponentials.
It works through the grid one anchor at a time on the calling thread, so
no temporary beside the table outgrows one anchor's times, and no bit
depends on the CPU count.

Each function imports numpy itself, and ``secular_curve`` only once its
grid and phases pass their checks, so importing this module, or a refused
curve, loads no numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .scheme import SIGN_EPS, SecularSpectrum, _check_grid, _check_phases

if TYPE_CHECKING:
    import numpy as np

#: Spacing of ``secular_curve``'s anchor times, and the width of its table.
_ANCHOR_TIMES = 1 << 12


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
    common phase.  Time j is taken as t_a + t_m, where a = A * floor(j / A)
    is an anchor on the whole grid, A = ``_ANCHOR_TIMES`` and m = j - a:
    each term is the factor weights_i exp(-i shift_i t_a) times
    exp(-i shift_i t_m) from a (k+1) x A table built once, so a curve
    takes k+1 exponentials per anchor and k+1 complex multiply-adds per
    time.  The terms are added one root at a time in the given order,
    elementwise in t with no BLAS product, so no time's bits depend on the
    CPU count.  ``t_max`` must be finite and non-negative, and every phase
    shift_i * t_max finite.
    """
    _check_grid(t_max, steps)
    _check_phases(max(map(abs, spectrum.shifts)), t_max)
    import numpy as np

    energies, weights = np.array(spectrum.shifts), np.array(spectrum.weights())
    times = np.linspace(0.0, float(t_max), int(steps))
    table = np.empty((energies.size, min(times.size, _ANCHOR_TIMES)), dtype=complex)
    for energy, row in zip(energies, table):
        np.exp(-1j * energy * times[:_ANCHOR_TIMES], out=row)
    probabilities = np.empty(times.size)
    for anchor in range(0, times.size, _ANCHOR_TIMES):
        factors = weights * np.exp(-1j * energies * times[anchor])
        rows = table[:, :times.size - anchor]
        amplitude = factors[0] * rows[0]
        for factor, row in zip(factors[1:], rows[1:]):
            amplitude += factor * row
        probabilities[anchor:anchor + _ANCHOR_TIMES] = np.abs(amplitude) ** 2
    return TimeSeries(times=times, probabilities=probabilities)
