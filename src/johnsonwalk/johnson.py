"""Johnson graph construction.

The Johnson graph J(n,k) has the k-element subsets of {0, ..., n-1} as
vertices, two subsets being adjacent when they share exactly k-1 elements.
This module provides the exact combinatorial side of the project: vertex
enumeration and the dense brute-force adjacency matrix.  Everything here is
meant to be small and obviously correct; the brute-force graph serves as
the oracle against which the reduced model is validated.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

# binomial, class_sizes and VertexCapError are also this module's API.
from .scheme import (DEFAULT_VERTEX_CAP, VertexCapError, _check_params,
                     _check_vertex_cap, binomial, class_sizes)


def enumerate_vertices(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {0,...,n-1} as sorted tuples, in lexicographic order.

    The position of a subset in this list is its vertex index everywhere in
    the package; vertex 0 is always {0, ..., k-1}.
    """
    _check_params(n, k)
    return list(itertools.combinations(range(n), k))


class FullGraph(NamedTuple):
    """Brute-force Johnson graph: vertex list plus dense adjacency matrix."""

    n: int
    k: int
    vertices: list[tuple[int, ...]]
    adjacency: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def full_adjacency(n: int, k: int, cap: int = DEFAULT_VERTEX_CAP) -> FullGraph:
    """Construct J(n,k) explicitly as a dense 0/1 adjacency matrix.

    Two k-subsets are adjacent iff their intersection has k-1 elements.  The
    matrix is built from the vertex membership matrix M (one row per vertex,
    one column per symbol): (M M^T)[u,v] is the intersection size, which a
    float product (BLAS) gives exactly, since every partial sum is at most k.

    Raises :class:`VertexCapError` when C(n,k) exceeds ``cap``, by the rule
    in ``scheme``, which refuses a far larger count before computing it.
    """
    n_vertices = _check_vertex_cap(n, k, cap)
    vertices = enumerate_vertices(n, k)
    membership = np.zeros((n_vertices, n))
    membership[np.arange(n_vertices)[:, None], vertices] = 1.0
    overlaps = membership @ membership.T
    adjacency = (overlaps == k - 1).astype(np.int8)
    return FullGraph(n=n, k=k, vertices=vertices, adjacency=adjacency)
