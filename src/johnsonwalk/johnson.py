"""Johnson graph construction and the brute-force oracle, in the standard
library only.

The Johnson graph J(n,k) has the k-element subsets of {0, ..., n-1} as
vertices, two subsets being adjacent when they share exactly k-1 elements.
So A = D^T D - k I, where D is the 0/1 incidence of the k-subsets on their
k faces, the (k-1)-subsets (Brouwer, Cohen & Neumaier, 1989), and a product
with A is one scatter onto the faces and one gather back.  On it,
``run_verification`` measures the walk's invariant subspace by Lanczos on A
from |w> (J. Res. Nat. Bur. Standards 45, 255 (1950)) and checks the reduced
model's curve against the full graph's.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from operator import mul
from typing import NamedTuple, Optional

from . import scheme
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


class Incidence(NamedTuple):
    """D for J(n,k): the indices of each vertex's k faces, per vertex in
    ``enumerate_vertices`` order, and the number of faces, C(n,k-1)."""

    n: int
    k: int
    faces: list[tuple[int, ...]]
    n_faces: int


def incidence(n: int, k: int, cap: int = DEFAULT_VERTEX_CAP) -> Incidence:
    """The faces of J(n,k)'s vertices, each found by dropping one element.

    Raises :class:`VertexCapError` when C(n,k) exceeds ``cap``, by the rule
    in ``scheme``, which refuses a far larger count before computing it.
    """
    _check_vertex_cap(n, k, cap)
    index: dict[tuple[int, ...], int] = {}
    faces = [tuple(index.setdefault(v[:i] + v[i + 1:], len(index)) for i in range(k))
             for v in enumerate_vertices(n, k)]
    return Incidence(n, k, faces, len(index))


def adjacency_times(graph: Incidence, x: list[float]) -> list[float]:
    """A x = D^T D x - k x: x scattered onto the faces and gathered back.

    For k = 1 every vertex has the one empty face, and A x = sum(x) - x.
    """
    up, k = [0.0] * graph.n_faces, graph.k
    for fs, xv in zip(graph.faces, x):
        for f in fs:
            up[f] += xv
    return [sum([up[f] for f in fs]) - k * xv for fs, xv in zip(graph.faces, x)]


def _krylov_curve(graph: Incidence, gamma: float
                  ) -> tuple[list[tuple[float, float]], float]:
    """The full graph's curve |sum_i c_i exp(-i E_i t)|^2 as its (E_i, c_i),
    and gamma beta |A|, which times t bounds the error of its amplitude.

    Lanczos runs on A/|A|, |A| = k(n-k), from q_1 = |w>, each new vector
    orthogonalised twice against all the earlier ones, until the residual
    beta is at most 1e-13, whatever gamma is, or there are k+2 vectors, one
    past the reduction's claim.  (|s> is an eigenvector of A; the Krylov
    space of |w>, the distance states, holds it.)  There H is
    T = -gamma |A| T_A - e_1 e_1^T = Y diag(E) Y^T, and
    c_i = Y[0,i] sum_j <q_j|s> Y[j,i].
    """
    n_vertices, k = len(graph.faces), graph.k
    norm, root = k * (graph.n - k), math.sqrt(n_vertices)
    q = [1.0] + [0.0] * (n_vertices - 1)
    basis, overlaps, diagonal, off = [], [], [], []
    while True:
        basis.append(q)
        overlaps.append(math.fsum(q) / root)
        r = [y / norm for y in adjacency_times(graph, q)]
        alpha = 0.0
        for _ in range(2):
            for v in basis:
                c = math.fsum(map(mul, v, r))
                r = [x - c * y for x, y in zip(r, v)]
            alpha += c  # the coefficient of q itself, the last in the basis
        diagonal.append(alpha)
        beta = math.sqrt(math.fsum(map(mul, r, r)))
        if beta <= 1e-13 or len(basis) == k + 2:
            break
        off.append(beta)
        q = [x / beta for x in r]
    m, scale = len(basis), -gamma * norm
    t = [[scale * diagonal[i] if i == j else scale * off[min(i, j)] if abs(i - j) == 1
          else 0.0 for j in range(m)] for i in range(m)]
    t[0][0] -= 1.0
    values, vectors = scheme._jacobi(t)
    return ([(value, y[0] * math.fsum(map(mul, overlaps, y)))
             for value, y in zip(values, zip(*vectors))], gamma * beta * norm)


class VerificationResult(NamedTuple):
    """Outcome of a full-graph vs secular-root comparison.  The Krylov space
    of |w> under A is (k+1)-dimensional by the reduction, and the full
    graph's curve is right to within twice ``closure_residual``.
    """

    n: int
    k: int
    gamma: float
    t_max: float
    steps: int
    max_deviation: float
    krylov_dimension: int
    closure_residual: float


def run_verification(n: int, k: int, gamma: numbers.Real,
                     t_max: Optional[float] = None, steps: int = 200,
                     cap: int = DEFAULT_VERTEX_CAP) -> VerificationResult:
    """The largest difference between the full graph's success curve, from
    ``_krylov_curve``, and simulate's, from the secular roots, streamed over
    ``np.linspace``'s grid.  The marked vertex is the first k-subset.  The
    full graph takes gamma's double from ``scheme._check_model``, and the
    secular roots also a ``Fraction`` or int gamma's exact rest beyond it;
    the result holds the double.  The default window
    [0, 2*pi*sqrt(N)] covers a full revival.  A deviation beyond ~1e-10
    indicates a broken reduction, not numerical noise.
    """
    # Checked first, so a bad gamma or n < 2k is reported before the cap.
    rate = scheme._check_model(n, k, gamma)
    spectrum = scheme.secular_spectrum(n, k, gamma)
    graph = incidence(n, k, cap)
    if t_max is None:
        t_max = 2.0 * math.pi * math.sqrt(len(graph.faces))
    scheme._check_grid(t_max, steps)
    scheme._check_phases(max(map(abs, spectrum.shifts)), t_max)
    full, drift = _krylov_curve(graph, rate)
    scheme._check_phases(max(abs(e) for e, _ in full), t_max)
    # Each curve as (-E_i, c_i), so a term is rect(c_i, -E_i t).
    full_terms = [(-e, c) for e, c in full]
    reduced_terms = [(-e, c) for e, c in zip(spectrum.shifts, spectrum.weights())]
    rect, worst = cmath.rect, 0.0
    for t in scheme._grid(0.0, t_max, steps):
        p = abs(sum([rect(c, e * t) for e, c in full_terms]))
        q = abs(sum([rect(c, e * t) for e, c in reduced_terms]))
        worst = max(worst, abs(p * p - q * q))
    return VerificationResult(n, k, rate, float(t_max), int(steps), worst,
                              krylov_dimension=len(full), closure_residual=drift * t_max)
