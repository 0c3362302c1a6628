"""Dense symmetric eigendecomposition and spectral time evolution.

``eig_sym`` is a thin wrapper over LAPACK's symmetric eigensolver as shipped
with numpy (``np.linalg.eigh``).  It adds the input checks and a
deterministic eigenvector sign convention, so output built from the
eigenvectors is reproducible.

Evolution under exp(-iHt) is computed spectrally: one decomposition of H
serves every time on a grid.  Every call decomposes afresh and returns
arrays that the caller owns.  ``evolve``, ``success_curve`` and
``overlap_spectrum`` share one checked decomposition.  The marked vertex is
basis state 0, as in the distance basis and the brute-force graph, so the
marked amplitude is row 0 of the eigenvectors.  The success curve is
summed in a fixed order over blocks of ``_BLOCK_TIMES`` times, which worker
threads share out, one per CPU; memory beyond the output stays bounded (a
block per thread), and the bits do not depend on the BLAS thread count or on
the number of CPUs.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from . import _split

#: Magnitude threshold used by the deterministic eigenvector sign convention.
SIGN_EPS = 1e-8

#: Times ``success_curve`` evaluates at once, bounding its working memory.
_BLOCK_TIMES = 1 << 14


class SpectralDecomposition(NamedTuple):
    """Ascending eigenvalues with orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class TimeSeries(NamedTuple):
    times: np.ndarray
    probabilities: np.ndarray


class OverlapSpectrum(NamedTuple):
    """Per-eigenvector energies and squared overlaps with |s> and |w>."""

    energies: np.ndarray
    overlap_s: np.ndarray
    overlap_w: np.ndarray


def eig_sym(matrix: np.ndarray) -> SpectralDecomposition:
    """Diagonalize a real symmetric matrix with LAPACK (``np.linalg.eigh``).

    The matrix must be square, finite, and symmetric to within 1e-12 times
    max(1, largest |entry|); anything else raises ValueError.

    Eigenvalues come back ascending; eigenvector signs are fixed so that the
    first component of magnitude above ``SIGN_EPS`` is non-negative.  With
    that convention and ``success_curve``'s fixed summation order, CSV output
    does not depend on the number of BLAS threads (the tests check
    ``simulate`` at 1, 2 and 3).
    """
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
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=vecs)


def _eigenbasis(hamiltonian: np.ndarray,
                state: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of H, and the array ``state`` in that basis.

    Checks that ``state`` fits H before decomposing it.
    """
    hamiltonian = np.asarray(hamiltonian)
    if hamiltonian.ndim != 2 or state.shape != (hamiltonian.shape[0],):
        raise ValueError("hamiltonian/state dimension mismatch")
    evals, evecs = eig_sym(hamiltonian)
    return evals, evecs, evecs.T @ state


def evolve(hamiltonian: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(-iHt) to ``psi0`` through the eigendecomposition of H."""
    evals, evecs, coeffs = _eigenbasis(hamiltonian, np.asarray(psi0, dtype=complex))
    return evecs @ (np.exp(-1j * evals * t) * coeffs)


def _check_steps(steps) -> None:
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps}")


def success_curve(hamiltonian: np.ndarray, psi0: np.ndarray, t_max: float,
                  steps: int) -> TimeSeries:
    """Success probability |<w|psi(t)>|^2 on a uniform inclusive time grid.

    The grid is t_j = j * t_max / (steps - 1) for j = 0 .. steps-1; one
    eigendecomposition is shared by the whole grid.  The marked amplitude
    sum_j w_j exp(-i E_j t) is added one eigenvalue at a time, in ascending
    order and elementwise in t, so no time's bits depend on how the grid is
    split; ``_BLOCK_TIMES`` times at a time keep memory beyond the output
    bounded for any ``steps`` and dimension.  The blocks are striped over one
    thread per CPU, and an error in any thread is raised here once all of
    them have stopped.  ``t_max`` must be finite and non-negative, and every
    phase E * t_max finite.
    """
    _check_steps(steps)
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    evals, evecs, coeffs = _eigenbasis(hamiltonian, np.asarray(psi0, dtype=complex))
    if not math.isfinite(float(np.abs(evals).max()) * t_max):
        raise ValueError(f"phases E*t overflow at t_max={t_max}")
    times = np.linspace(0.0, float(t_max), int(steps))
    weights = evecs[0] * coeffs
    probabilities = np.empty(times.size)
    starts = range(0, times.size, _BLOCK_TIMES)
    workers = min(_split.worker_count(), len(starts))
    errors: list[BaseException] = []

    def fill(stripe: range) -> None:
        # numpy's ufuncs release the GIL, so stripes run side by side.
        try:
            for start in stripe:
                if errors:
                    return
                block = times[start:start + _BLOCK_TIMES]
                amplitude = np.zeros(block.size, dtype=complex)
                for energy, weight in zip(evals, weights):
                    amplitude += weight * np.exp(-1j * energy * block)
                probabilities[start:start + _BLOCK_TIMES] = np.abs(amplitude) ** 2
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fill, args=(starts[w::workers],))
               for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        fill(starts[0::workers])
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]
    return TimeSeries(times=times, probabilities=probabilities)


def overlap_spectrum(hamiltonian: np.ndarray, s: np.ndarray) -> OverlapSpectrum:
    """Energies E_i with |<s|psi_i>|^2 and |<w|psi_i>|^2 per eigenvector.

    Both overlap columns sum to one (completeness of the eigenbasis).
    """
    evals, evecs, coeffs = _eigenbasis(hamiltonian, np.asarray(s, dtype=float))
    return OverlapSpectrum(energies=evals, overlap_s=coeffs ** 2,
                           overlap_w=evecs[0] ** 2)
