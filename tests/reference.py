"""References the tests hold the package against, over ``linalg.eig_sym``.

The package computes none of these: the overlap spectrum and the energy gap
come from the distance-basis Hamiltonian, which the secular roots must
match, and the distance classes from the brute-force graph, which the
distance-basis model must reduce to.
"""

import numpy as np

from johnsonwalk import reduced
from johnsonwalk.linalg import eig_sym


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
