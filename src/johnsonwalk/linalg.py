"""Dense symmetric eigendecomposition and spectral time evolution.

``eig_sym`` is a thin wrapper over LAPACK's symmetric eigensolver as shipped
with numpy (``np.linalg.eigh``).  It adds the input checks and a
deterministic eigenvector sign convention, so output built from the
eigenvectors is reproducible.

Evolution under exp(-iHt) is computed spectrally: one decomposition of H
serves every time on a grid.  Every call decomposes afresh and returns
arrays that the caller owns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: Magnitude threshold used by the deterministic eigenvector sign convention.
SIGN_EPS = 1e-8

#: Phase-matrix elements (eigenvalues x times) ``success_curve`` builds at once.
_BLOCK_ELEMENTS = 1 << 16
#: ``success_curve`` blocks span a multiple of this many times.
_BLOCK_ALIGN = 64


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
    first component of magnitude above ``SIGN_EPS`` is non-negative, keeping
    CSV output reproducible across platforms.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eig_sym requires a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("eig_sym requires a finite matrix")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if float(np.abs(a - a.T).max()) > 1e-12 * max(scale, 1.0):
        raise ValueError("eig_sym requires a symmetric matrix")

    eigenvalues, vecs = np.linalg.eigh(a)
    significant = np.abs(vecs) > SIGN_EPS
    lead = vecs[significant.argmax(axis=0), np.arange(vecs.shape[1])]
    vecs[:, significant.any(axis=0) & (lead < 0.0)] *= -1.0
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=vecs)


def evolve(hamiltonian: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(-iHt) to ``psi0`` through the eigendecomposition of H."""
    psi0 = np.asarray(psi0)
    hamiltonian = np.asarray(hamiltonian)
    if hamiltonian.ndim != 2 or psi0.shape != (hamiltonian.shape[0],):
        raise ValueError("hamiltonian/state dimension mismatch")
    evals, evecs = eig_sym(hamiltonian)
    coeffs = evecs.T @ psi0.astype(complex)
    return evecs @ (np.exp(-1j * evals * t) * coeffs)


def success_curve(hamiltonian: np.ndarray, psi0: np.ndarray, marked_index: int,
                  t_max: float, steps: int) -> TimeSeries:
    """Success probability |<w|psi(t)>|^2 on a uniform inclusive time grid.

    The grid is t_j = j * t_max / (steps - 1) for j = 0 .. steps-1; one
    eigendecomposition is shared by the whole grid, with only the marked
    component assembled per time.  The phases are built a block of times at
    a time, so memory beyond the output stays bounded for any ``steps`` and
    dimension.  ``t_max`` must be finite, and so must every phase E * t_max.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    psi0 = np.asarray(psi0)
    hamiltonian = np.asarray(hamiltonian)
    if hamiltonian.ndim != 2 or psi0.shape != (hamiltonian.shape[0],):
        raise ValueError("hamiltonian/state dimension mismatch")
    if not 0 <= marked_index < hamiltonian.shape[0]:
        raise ValueError(f"marked index {marked_index} out of range")
    evals, evecs = eig_sym(hamiltonian)
    if not math.isfinite(float(np.abs(evals).max()) * abs(t_max)):
        raise ValueError(f"phases E*t overflow at t_max={t_max}")
    times = np.linspace(0.0, float(t_max), int(steps))
    weights = evecs[marked_index] * (evecs.T @ psi0.astype(complex))
    probabilities = np.empty(times.size)
    # BLAS gives each thread a share of the times and computes them in
    # 4-wide groups, the last 1-3 on a scalar path that rounds differently.
    # Blocks of a multiple of 64 times split into whole groups on 1, 2, 4, 8
    # or 16 threads, so where the whole grid does too, no bit changes.
    block = max(1, _BLOCK_ELEMENTS // (evals.size * _BLOCK_ALIGN)) * _BLOCK_ALIGN
    for start in range(0, times.size, block):
        phases = np.exp(-1j * np.outer(evals, times[start:start + block]))
        probabilities[start:start + block] = np.abs(weights @ phases) ** 2
    return TimeSeries(times=times, probabilities=probabilities)


def overlap_spectrum(hamiltonian: np.ndarray, s: np.ndarray,
                     marked_index: int = 0) -> OverlapSpectrum:
    """Energies E_i with |<s|psi_i>|^2 and |<w|psi_i>|^2 per eigenvector.

    Both overlap columns sum to one (completeness of the eigenbasis).
    """
    s = np.asarray(s, dtype=float)
    hamiltonian = np.asarray(hamiltonian)
    if hamiltonian.ndim != 2 or s.shape != (hamiltonian.shape[0],):
        raise ValueError("hamiltonian/state dimension mismatch")
    if not 0 <= marked_index < hamiltonian.shape[0]:
        raise ValueError(f"marked index {marked_index} out of range")
    evals, evecs = eig_sym(hamiltonian)
    overlap_s = (evecs.T @ s) ** 2
    overlap_w = evecs[marked_index] ** 2
    return OverlapSpectrum(energies=evals, overlap_s=overlap_s, overlap_w=overlap_w)
