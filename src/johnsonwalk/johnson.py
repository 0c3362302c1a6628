"""Johnson graph construction.

The Johnson graph J(n,k) has the k-element subsets of {0, ..., n-1} as
vertices, two subsets being adjacent when they share exactly k-1 elements.
This module provides the exact combinatorial side of the project: vertex
enumeration, the dense brute-force adjacency matrix, and distance
classification around a marked vertex.  Everything here is meant to be
small and obviously correct; the brute-force graph serves as the oracle
against which the reduced model is validated.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from .scheme import DEFAULT_VERTEX_CAP, _check_class_params, _check_params, binomial


def _count_text(count: int) -> str:
    """A count in decimal, or as a power of two once it is long.

    Python refuses to print an integer of more than 4300 digits.
    """
    if count.bit_length() <= 64:
        return str(count)
    return f"about 2^{count.bit_length() - 1}"


class VertexCapError(ValueError):
    """Brute-force construction refused: the vertex count exceeds the cap.

    ``n_vertices`` is None when the count is far enough above the cap to be
    refused without computing it.
    """

    def __init__(self, n_vertices: Optional[int], cap: int):
        self.n_vertices = n_vertices
        self.cap = cap
        if n_vertices is None:
            size = f"far more vertices than the configured cap {_count_text(cap)}"
        else:
            size = (f"{_count_text(n_vertices)} vertices, above the configured "
                    f"cap {_count_text(cap)}")
        super().__init__(
            f"J(n,k) has {size}; raise the cap to force brute-force construction")


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

    Raises :class:`VertexCapError` when C(n,k) exceeds ``cap``.  The lower
    bound C(n,k) >= (n/m)^m, m = min(k, n-k), refuses a count more than
    2^64 times the cap before the exact count is computed, which takes
    most of a minute at m ~ 1e6.
    """
    _check_params(n, k)
    m = min(k, n - k)
    if m * (math.log(n) - math.log(m)) > math.log(max(cap, 1)) + 64 * math.log(2):
        raise VertexCapError(None, cap)
    n_vertices = binomial(n, k)
    if n_vertices > cap:
        raise VertexCapError(n_vertices, cap)
    vertices = enumerate_vertices(n, k)
    membership = np.zeros((n_vertices, n))
    membership[np.arange(n_vertices)[:, None], vertices] = 1.0
    overlaps = membership @ membership.T
    adjacency = (overlaps == k - 1).astype(np.int8)
    return FullGraph(n=n, k=k, vertices=vertices, adjacency=adjacency)


def distance_classes(graph: FullGraph, w: int = 0) -> list[np.ndarray]:
    """Vertex indices grouped by graph distance from vertex ``w``.

    On a Johnson graph the distance between two vertices is k minus the size
    of the subset intersection, so no traversal is needed; class i holds the
    vertices at distance i and there are min(k, n-k) + 1 classes.
    """
    if not 0 <= w < graph.n_vertices:
        raise ValueError(f"marked vertex index {w} out of range")
    n, k = graph.n, graph.k
    w_set = set(graph.vertices[w])
    dist = np.array([k - len(w_set.intersection(v)) for v in graph.vertices])
    n_classes = min(k, n - k) + 1
    return [np.nonzero(dist == i)[0] for i in range(n_classes)]


def class_sizes(n: int, k: int) -> list[int]:
    """Sizes |d_i| = C(k,i) * C(n-k,i) of the k+1 distance classes.

    Requires n >= 2k so that all k+1 classes are nonempty.  The sizes sum
    to C(n,k).
    """
    _check_class_params(n, k)
    return [binomial(k, i) * binomial(n - k, i) for i in range(k + 1)]
