"""References the tests hold the package against, over ``linalg.eig_sym``.

The package computes none of these: the overlap spectrum and the energy gap
come from the distance-basis Hamiltonian, which the secular roots must
match; the dense adjacency of the full graph, which ``johnson``'s
matrix-free product and its oracle must match; and the distance classes
from that graph, which the distance-basis model must reduce to.
"""

from typing import NamedTuple

import numpy as np

from johnsonwalk import johnson, reduced
from johnsonwalk.linalg import eig_sym
from johnsonwalk.scheme import DEFAULT_VERTEX_CAP, _check_vertex_cap


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


def overlap_spectrum(n, k, gamma):
    """Energies E_i of the distance-basis H with |<s|psi_i>|^2 and
    |<w|psi_i>|^2 per eigenvector, as (energies, overlap_s, overlap_w)."""
    evals, evecs = eig_sym(reduced.search_hamiltonian(n, k, gamma))
    return evals, (evecs.T @ reduced.initial_state(n, k)) ** 2, evecs[0] ** 2


def energy_gap(n, k, gamma):
    """E_1 - E_0 of the distance-basis H."""
    evals, _ = eig_sym(reduced.search_hamiltonian(n, k, gamma))
    return float(evals[1] - evals[0])


def distance_classes(graph, w=0):
    """Vertex indices of the brute-force graph grouped by distance from
    vertex ``w``, k minus the size of the subset intersection."""
    if not 0 <= w < graph.n_vertices:
        raise ValueError(f"marked vertex index {w} out of range")
    w_set = set(graph.vertices[w])
    dist = np.array([graph.k - len(w_set.intersection(v)) for v in graph.vertices])
    return [np.nonzero(dist == i)[0] for i in range(min(graph.k, graph.n - graph.k) + 1)]
