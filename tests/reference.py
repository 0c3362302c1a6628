"""References the tests hold the package against, over ``linalg.eig_sym``.

The package computes none of these: the success curve from one
eigendecomposition of a dense H, which the secular curve and the oracle's
Lanczos curve must match; the overlap spectrum and the energy gap from the
distance-basis Hamiltonian, which the secular roots must match; the dense
adjacency of the full graph, which ``johnson``'s matrix-free product and
its oracle must match; the distance classes from that graph, which the
distance-basis model must reduce to; and, for k = 3, the perturbation block
and the numerically transformed Hamiltonian, which ``reduced``'s closed
forms and its two-level report must match.

``on_cpus`` runs a block of a test as on a machine with fewer CPUs, for the
tests that hold output bytes to not depending on the CPU count.
"""

import contextlib
import math
import os
from typing import NamedTuple

import numpy as np

from johnsonwalk import analysis, johnson, reduced, scheme
from johnsonwalk.linalg import TimeSeries, eig_sym
from johnsonwalk.scheme import DEFAULT_VERTEX_CAP, _check_vertex_cap


@contextlib.contextmanager
def on_cpus(count):
    """Pin the calling thread to its first ``count`` allowed CPUs (all of
    them if it has fewer), and restore its CPU set on exit.  Where the OS
    has no CPU affinity the block runs unpinned."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(allowed)[:count])
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class FullGraph(NamedTuple):
    """Brute-force Johnson graph: vertex list plus dense adjacency matrix."""

    n: int
    k: int
    vertices: list
    adjacency: np.ndarray

    @property
    def n_vertices(self):
        return len(self.vertices)


def full_adjacency(n, k, cap=DEFAULT_VERTEX_CAP):
    """J(n,k) as a dense 0/1 adjacency matrix, by ``johnson``'s vertex order.

    Two k-subsets are adjacent iff their intersection has k-1 elements.  The
    matrix is built from the vertex membership matrix M (one row per vertex,
    one column per symbol): (M M^T)[u,v] is the intersection size, which a
    float product (BLAS) gives exactly, since every partial sum is at most k.
    """
    n_vertices = _check_vertex_cap(n, k, cap)
    vertices = johnson.enumerate_vertices(n, k)
    membership = np.zeros((n_vertices, n))
    membership[np.arange(n_vertices)[:, None], vertices] = 1.0
    adjacency = (membership @ membership.T == k - 1).astype(np.int8)
    return FullGraph(n=n, k=k, vertices=vertices, adjacency=adjacency)


def dense_hamiltonian(n, k, gamma, cap=DEFAULT_VERTEX_CAP):
    """-gamma A - |w><w| on the full graph, w the first k-subset."""
    h = -float(gamma) * full_adjacency(n, k, cap).adjacency.astype(float)
    h[0, 0] -= 1.0
    return h


def dense_curve(hamiltonian, psi0, t_max, steps):
    """The success curve |<w|exp(-iHt)|psi0>|^2 on ``linalg.secular_curve``'s
    grid, from one eigendecomposition of H and one product over the grid;
    the marked vertex is basis state 0."""
    evals, evecs = eig_sym(hamiltonian)
    times = np.linspace(0.0, t_max, steps)
    weights = evecs[0] * (evecs.T @ np.asarray(psi0, dtype=complex))
    return TimeSeries(times, np.abs(weights @ np.exp(-1j * np.outer(evals, times))) ** 2)


def overlap_spectrum(n, k, gamma):
    """Energies E_i of the distance-basis H with |<s|psi_i>|^2 and
    |<w|psi_i>|^2 per eigenvector, as (energies, overlap_s, overlap_w)."""
    evals, evecs = eig_sym(analysis.search_hamiltonian(n, k, gamma))
    return evals, (evecs.T @ analysis.initial_state(n, k)) ** 2, evecs[0] ** 2


def energy_gap(n, k, gamma):
    """E_1 - E_0 of the distance-basis H."""
    evals, _ = eig_sym(analysis.search_hamiltonian(n, k, gamma))
    return float(evals[1] - evals[0])


def distance_classes(graph, w=0):
    """Vertex indices of the brute-force graph grouped by distance from
    vertex ``w``, k minus the size of the subset intersection."""
    if not 0 <= w < graph.n_vertices:
        raise ValueError(f"marked vertex index {w} out of range")
    w_set = set(graph.vertices[w])
    dist = np.array([graph.k - len(w_set.intersection(v)) for v in graph.vertices])
    return [np.nonzero(dist == i)[0] for i in range(min(graph.k, graph.n - graph.k) + 1)]


def pt_block(n, gamma):
    """3x3 leading-order Hamiltonian block over (d0, r', r''), the matrix
    whose characteristic polynomial is ``reduced.char_cubic_coeffs``."""
    scheme._check_k3_params(n)
    scheme._check_gamma(gamma)
    g = float(gamma)
    return np.array([
        [-1.0, 0.0, -g * math.sqrt(3.0 * n)],
        [0.0, -g * (2.0 * n - 17.0), 2.0 * g * math.sqrt(2.0 * n)],
        [-g * math.sqrt(3.0 * n), 2.0 * g * math.sqrt(2.0 * n), -g * (n - 2.0)],
    ])


def transformed_hamiltonian(n, gamma):
    """H' = T^T H T for the k = 3 search Hamiltonian, from the dense H.

    T is orthogonal, so the transpose realizes T^(-1) exactly.
    """
    T = np.array(reduced.basis_change_T(n))
    return T.T @ analysis.search_hamiltonian(n, 3, gamma) @ T


class NaiveSplitting(NamedTuple):
    """Leading/subleading split of the k=3 search Hamiltonian.

    h0 carries the oracle and the diagonal hopping terms, h1 the
    off-diagonal hoppings of order sqrt(n); everything smaller is dropped.
    d0_d3_coupling is the (0,3) entry of h0 + h1, identically zero because
    the walk has no edge between the marked class and the far class.
    """

    h0: np.ndarray
    h1: np.ndarray
    d0_d3_coupling: float


def naive_splitting_diagnostic(n, gamma):
    """Split H (k = 3) into the naive leading and first-order pieces."""
    scheme._check_k3_params(n)
    scheme._check_gamma(gamma)
    h0 = np.diag([-1.0, -gamma * n, -2.0 * gamma * n, -3.0 * gamma * n])
    h1 = -gamma * np.array([
        [0.0, math.sqrt(3.0 * n), 0.0, 0.0],
        [math.sqrt(3.0 * n), 0.0, 2.0 * math.sqrt(2.0 * n), 0.0],
        [0.0, 2.0 * math.sqrt(2.0 * n), 0.0, 3.0 * math.sqrt(n)],
        [0.0, 0.0, 3.0 * math.sqrt(n), 0.0],
    ])
    return NaiveSplitting(h0=h0, h1=h1, d0_d3_coupling=float((h0 + h1)[0, 3]))
