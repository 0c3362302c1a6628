"""Distance-basis reduction of the search problem.

Because J(n,k) is distance-transitive, the search dynamics started from the
uniform superposition stay inside the (k+1)-dimensional span of the distance
states |d_i> (uniform superpositions over the vertices at distance i from
the marked vertex).  The marked vertex sits alone in class d_0, which is basis
state 0; distance-transitivity means any vertex may be the marked one, so
no other choice is offered.  This module builds that reduced picture:
intersection array, reduced adjacency and Hamiltonian, the initial state,
and -- for k = 3 -- the orthogonal change of basis
{|d_0>, |r>, |r'>, |r''>} in which the Hamiltonian becomes amenable to
degenerate perturbation theory.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .scheme import (_adjacency_entries, _check_k3_params, _check_model,
                     _check_positive_gamma, _check_reduced_params, class_sizes)


class IntersectionArray(NamedTuple):
    """Per-class neighbor counts (c_i down, a_i same, b_i up) of J(n,k)."""

    c: tuple[int, ...]  # c_1 ... c_k
    a: tuple[int, ...]  # a_0 ... a_k
    b: tuple[int, ...]  # b_0 ... b_{k-1}


def intersection_array(n: int, k: int) -> IntersectionArray:
    """Closed-form intersection array c_i = i^2, a_i = i(n-2i), b_i = (k-i)(n-k-i).

    Every column c_i + a_i + b_i sums to the degree k(n-k).
    """
    _check_reduced_params(n, k)
    c = tuple(i * i for i in range(1, k + 1))
    a = tuple(i * (n - 2 * i) for i in range(k + 1))
    b = tuple((k - i) * (n - k - i) for i in range(k))
    return IntersectionArray(c=c, a=a, b=b)


def reduced_adjacency(n: int, k: int) -> np.ndarray:
    """Adjacency matrix collapsed onto the normalized distance states.

    Tridiagonal and symmetric: the diagonal carries the same-class counts
    a_i, and the off-diagonal entry between classes i and i+1 is
    (i+1) * sqrt((k-i)(n-k-i)), the geometric mean sqrt(b_i * c_{i+1}) that
    symmetrizes the up/down neighbor counts.
    """
    diagonal, off = _adjacency_entries(n, k)
    adj = np.zeros((k + 1, k + 1))
    for i, entry in enumerate(diagonal):
        adj[i, i] = entry
    for i, entry in enumerate(off):
        adj[i, i + 1] = adj[i + 1, i] = entry
    return adj


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


def basis_change_T(n: int) -> np.ndarray:
    """Orthogonal basis change for k = 3: columns (|d_0>, |r>, |r'>, |r''>).

    |r> is the normalized uniform superposition over the N-1 unmarked
    vertices; |r'> and |r''> complete the orthonormal set inside
    span{|d_1>, |d_2>, |d_3>}:

        |r>   = sqrt(18/(n^2+2)) * (0, 1, sqrt((n-4)/2), sqrt((n-4)(n-5)/18))
        |r'>  = sqrt(9/(n+4))    * (0, 0, -sqrt((n-5)/9), 1)
        |r''> = (9 sqrt(2) / sqrt((n^2+2)(n+4)))
                * (0, (n+4) sqrt(n-4) / (9 sqrt(2)), -1, -sqrt(n-5)/3)

    Requires n >= 6 so all radicands are non-negative.
    """
    _check_k3_params(n)
    T = np.zeros((4, 4))
    T[0, 0] = 1.0
    c_r = math.sqrt(18.0 / (n * n + 2))
    T[1, 1] = c_r
    T[2, 1] = c_r * math.sqrt((n - 4) / 2.0)
    T[3, 1] = c_r * math.sqrt((n - 4) * (n - 5) / 18.0)
    c_rp = math.sqrt(9.0 / (n + 4))
    T[2, 2] = -c_rp * math.sqrt((n - 5) / 9.0)
    T[3, 2] = c_rp
    c_rpp = 9.0 * math.sqrt(2.0) / math.sqrt((n * n + 2) * (n + 4))
    T[1, 3] = c_rpp * (n + 4) * math.sqrt(n - 4.0) / (9.0 * math.sqrt(2.0))
    T[2, 3] = -c_rpp
    T[3, 3] = -c_rpp * math.sqrt(n - 5.0) / 3.0
    return T


def transformed_hamiltonian(n: int, gamma: float) -> np.ndarray:
    """H' = T^T H T for the k = 3 search Hamiltonian.

    T is orthogonal, so the transpose realizes T^(-1) exactly.  Agrees with
    :func:`transformed_hamiltonian_closed` to machine precision.
    """
    T = basis_change_T(n)
    return T.T @ search_hamiltonian(n, 3, gamma) @ T


def transformed_hamiltonian_closed(n: int, gamma: float) -> np.ndarray:
    """Closed-form entries of H' in the {d_0, r, r', r''} basis.

    Written as -gamma * M with M symmetric; the (0,2) and (1,2) entries are
    structural zeros.  Useful as an independent check on the numerically
    transformed matrix.
    """
    _check_k3_params(n)
    _check_positive_gamma(gamma)
    s = math.sqrt
    q = n * n + 2
    m01 = 3 * s(6 * (n - 3)) / s(q)
    m03 = s(3 * (n - 3) * (n - 4) * (n + 4)) / s(q)
    m13 = -3 * s(2 * (n - 4) * (n + 4)) / q
    m23 = -2 * s(2 * (n - 5) * q) / (n + 4)
    M = np.array([
        [1.0 / gamma, m01, 0.0, m03],
        [m01, 3 * (n**3 - 3 * n**2 + 2 * n - 12) / q, 0.0, m13],
        [0.0, 0.0, (2 * n * n - 9 * n - 32) / (n + 4), m23],
        [m03, m13, m23,
         (n**4 + 2 * n**3 - 42 * n**2 + 22 * n - 16) / ((n + 4) * q)],
    ])
    return -gamma * M
