"""The distance-basis Hamiltonian as ndarrays, and the eigensolver's balance check.

The critical jumping rate itself comes from ``scheme``, without a matrix.
``overlap_balance`` is the same balance taken from an eigendecomposition of
the distance-basis Hamiltonian, built here as a (k+1)x(k+1) ndarray with
the initial state, so it checks the rate ``scheme`` returns at moderate N.
The k = 3 two-level picture around that rate is ``reduced.perturbation_report``,
and the brute-force verification is ``johnson.run_verification``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import eig_sym
from .scheme import (_adjacency_entries, _check_model, _check_reduced_params,
                     class_sizes)


def reduced_adjacency(n: int, k: int) -> np.ndarray:
    """Adjacency matrix collapsed onto the normalized distance states.

    Tridiagonal and symmetric: the diagonal carries the same-class counts
    a_i, and the off-diagonal entry between classes i and i+1 is
    (i+1) * sqrt((k-i)(n-k-i)), the geometric mean sqrt(b_i * c_{i+1}) that
    symmetrizes the up/down neighbor counts.
    """
    diagonal, off = _adjacency_entries(n, k)
    return np.diag(np.array(diagonal, dtype=float)) + np.diag(off, 1) + np.diag(off, -1)


def search_hamiltonian(n: int, k: int, gamma: float) -> np.ndarray:
    """H = -gamma * A_reduced - |d_0><d_0| in the distance basis.

    The marked vertex sits alone in class 0, so the oracle projector is the
    single entry (0,0).  ``gamma`` is the amplitude-per-time jumping rate;
    negative and non-finite values are rejected (gamma = 0 is admitted and
    leaves just the oracle term), and so is a gamma so large that
    gamma * A overflows (``scheme._check_model``).
    """
    _check_model(n, k, gamma)
    hamiltonian = -float(gamma) * reduced_adjacency(n, k)
    hamiltonian[0, 0] -= 1.0
    return hamiltonian


def initial_state(n: int, k: int) -> np.ndarray:
    """Uniform superposition over all vertices, written in the distance basis.

    Component i is sqrt(|d_i| / N): the full-space uniform state projected
    onto the normalized class indicator vectors.  Raises ValueError when N
    does not fit in a float.
    """
    n_vertices = _check_reduced_params(n, k)
    state = np.sqrt(np.array(class_sizes(n, k), dtype=float))
    return state / math.sqrt(n_vertices)


def overlap_balance(n: int, k: int, gamma: float) -> float:
    """|<s|psi_0>|^2 - |<s|psi_1>|^2 for the two lowest eigenstates.

    Positive when the ground state dominates the uniform superposition,
    negative when the first excited state does; the critical jumping rate
    is the zero crossing.  ``scheme.gamma_c_numeric`` finds that crossing
    from the scheme's spectrum; this is its check through ``eig_sym``.
    """
    s = initial_state(n, k)
    _, evecs = eig_sym(search_hamiltonian(n, k, gamma))
    overlaps = (evecs.T @ s) ** 2
    return float(overlaps[0] - overlaps[1])
