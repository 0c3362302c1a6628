"""Distance-basis reduction of the search problem.

Because J(n,k) is distance-transitive, the search dynamics started from the
uniform superposition stay inside the (k+1)-dimensional span of the distance
states |d_i> (uniform superpositions over the vertices at distance i from
the marked vertex).  This module builds that reduced picture: intersection
array, reduced adjacency and Hamiltonian, the initial state, and -- for
k = 3 -- the orthogonal change of basis {|d_0>, |r>, |r'>, |r''>} in which
the Hamiltonian becomes amenable to degenerate perturbation theory.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .johnson import _check_class_params, binomial, class_sizes


class IntersectionArray(NamedTuple):
    """Per-class neighbor counts (c_i down, a_i same, b_i up) of J(n,k)."""

    c: tuple[int, ...]  # c_1 ... c_k
    a: tuple[int, ...]  # a_0 ... a_k
    b: tuple[int, ...]  # b_0 ... b_{k-1}


def _check_reduced_params(n: int, k: int) -> float:
    """Validate integers n >= 2k >= 2 and return N = C(n,k) as a float.

    N must be within the float range; every class size |d_i| is at most N,
    and N >= n, so n and the entries built from it are then in range too.

    The lower bound C(n,k) >= (n/k)^k refuses a far-out N before the exact
    value is computed, which takes most of a minute at k ~ 1e6.  Where the
    bound passes, k <= n/2 and C(n,k) <= (e n/k)^k keep k below 1030 and N
    below e^1740, so the exact value is cheap.
    """
    _check_class_params(n, k)
    if k * (math.log(n) - math.log(k)) <= math.log(sys.float_info.max) + 1.0:
        count = binomial(n, k)
        if count <= sys.float_info.max:
            return float(count)
    raise ValueError(f"C({n},{k}) vertices exceed the float range "
                     f"(about {sys.float_info.max:.1e})")


def _check_k3_params(n: int) -> None:
    """Validate n for the k = 3 perturbation picture: an integer n >= 6."""
    if not isinstance(n, (int, np.integer)) or n < 6:
        raise ValueError(f"the k=3 analysis requires integer n >= 6, got {n}")
    _check_reduced_params(n, 3)


def _check_positive_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")


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
    arr = intersection_array(n, k)
    adj = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        adj[i, i] = arr.a[i]
        if i < k:
            off = (i + 1) * math.sqrt((k - i) * (n - k - i))
            adj[i, i + 1] = off
            adj[i + 1, i] = off
    return adj


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Reduced search model: (k+1)-dimensional adjacency and Hamiltonian."""

    n: int
    k: int
    gamma: float
    adjacency: np.ndarray = field(repr=False)
    hamiltonian: np.ndarray = field(repr=False)
    marked_index: int = 0


def search_hamiltonian(n: int, k: int, gamma: float) -> ReducedModel:
    """H = -gamma * A_reduced - |d_0><d_0| in the distance basis.

    The marked vertex sits alone in class 0, so the oracle projector is the
    single entry (0,0).  ``gamma`` is the amplitude-per-time jumping rate;
    negative and non-finite values are rejected (gamma = 0 is admitted and
    leaves just the oracle term), and so is a gamma so large that
    gamma * A overflows.
    """
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    adjacency = reduced_adjacency(n, k)
    with np.errstate(over="ignore"):
        hamiltonian = -float(gamma) * adjacency
    if not np.isfinite(hamiltonian).all():
        raise ValueError(f"gamma={gamma} overflows the J({n},{k}) Hamiltonian")
    hamiltonian[0, 0] -= 1.0
    return ReducedModel(n=n, k=k, gamma=float(gamma), adjacency=adjacency,
                        hamiltonian=hamiltonian, marked_index=0)


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
    H = search_hamiltonian(n, 3, gamma).hamiltonian
    return T.T @ H @ T


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
