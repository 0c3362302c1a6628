"""Distance-basis reduction of the search problem, and the k = 3 two-level
picture, in the standard library only.

Because J(n,k) is distance-transitive, the search dynamics started from the
uniform superposition stay inside the (k+1)-dimensional span of the distance
states |d_i> (uniform superpositions over the vertices at distance i from
the marked vertex, which is basis state 0).  This module holds the
intersection array of that reduction and, for k = 3, the orthogonal change
of basis {|d_0>, |r>, |r'>, |r''>} in which the Hamiltonian becomes amenable
to degenerate perturbation theory: the transformed Hamiltonian in closed
form, the characteristic cubic of its (d0, r', r'') block, and
``perturbation_report``, the effective 2x2 Hamiltonian over |r> and the
block eigenvector |u>, whose gap sets the runtime pi/(E_plus - E_minus).
Matrices are tuples of rows; ``analysis`` builds the distance-basis
Hamiltonian as an ndarray.
"""

from __future__ import annotations

import math
import numbers
import sys
from operator import mul
from typing import NamedTuple, Optional

from .scheme import (SIGN_EPS, _check_gamma, _check_reduced_params, _jacobi,
                     gamma_c_formula_k3)

Rows = tuple[tuple[float, ...], ...]


class IntersectionArray(NamedTuple):
    """Per-class neighbor counts (c_i down, a_i same, b_i up) of J(n,k)."""

    c: tuple[int, ...]  # c_1 ... c_k
    a: tuple[int, ...]  # a_0 ... a_k
    b: tuple[int, ...]  # b_0 ... b_{k-1}


def intersection_array(n: int, k: int) -> IntersectionArray:
    """Closed-form intersection array c_i = i^2, a_i = i(n-2i), b_i = (k-i)(n-k-i).

    Every column c_i + a_i + b_i sums to the degree k(n-k).  Only
    ``analysis.reduced_adjacency`` calls it, and no command runs that
    module; it stays while the benchmark's layer tracer still loads
    ``analysis``.
    """
    _check_reduced_params(n, k)
    c = tuple(i * i for i in range(1, k + 1))
    a = tuple(i * (n - 2 * i) for i in range(k + 1))
    b = tuple((k - i) * (n - k - i) for i in range(k))
    return IntersectionArray(c=c, a=a, b=b)


def basis_change_T(n: int) -> Rows:
    """Orthogonal basis change for k = 3: columns (|d_0>, |r>, |r'>, |r''>).

    |r> is the normalized uniform superposition over the N-1 unmarked
    vertices; |r'> and |r''> complete the orthonormal set inside
    span{|d_1>, |d_2>, |d_3>}:

        |r>   = sqrt(18/(n^2+2)) * (0, 1, sqrt((n-4)/2), sqrt((n-4)(n-5)/18))
        |r'>  = sqrt(9/(n+4))    * (0, 0, -sqrt((n-5)/9), 1)
        |r''> = (9 sqrt(2) / sqrt((n^2+2)(n+4)))
                * (0, (n+4) sqrt(n-4) / (9 sqrt(2)), -1, -sqrt(n-5)/3)

    Requires what the graph rule requires at k = 3: an integer n >= 6, so
    every radicand is non-negative, with C(n,3) a float.  Each root is taken
    of factors that are floats on that whole range; (n^2+2)(n+4) is not one
    from n = 5.6e102.

    No command calls it.  It stays because it is the paper's change of
    basis, written out, and the tests tie ``transformed_hamiltonian_closed``
    to it: they check the closed form's H' against T^T H T built from this
    T.
    """
    _check_reduced_params(n, 3)
    c_r = math.sqrt(18.0 / (n * n + 2))
    c_rp = math.sqrt(9.0 / (n + 4))
    c_rpp = 9.0 * math.sqrt(2.0) / (math.sqrt(n * n + 2) * math.sqrt(n + 4))
    return (
        (1.0, 0.0, 0.0, 0.0),
        (0.0, c_r, 0.0, c_rpp * (n + 4) * math.sqrt(n - 4.0) / (9.0 * math.sqrt(2.0))),
        (0.0, c_r * math.sqrt((n - 4) / 2.0), -c_rp * math.sqrt((n - 5) / 9.0), -c_rpp),
        (0.0, c_r * math.sqrt((n - 4) * (n - 5) / 18.0), c_rp,
         -c_rpp * math.sqrt(n - 5.0) / 3.0),
    )


def transformed_hamiltonian_closed(n: int, gamma: numbers.Real) -> Rows:
    """Closed-form entries of H' = T^T H T in the {d_0, r, r', r''} basis.

    Written as H' = -gamma M - |d_0><d_0|, with M = T^T A T symmetric and
    A the reduced adjacency; M's (0,0) entry is a_0 = 0, so H'[0][0] is -1
    at every rate, and the (0,2) and (1,2) entries are structural zeros.
    Each root is taken of factors that are floats for every n the graph
    rule accepts.
    """
    _check_reduced_params(n, 3)
    gamma = _check_gamma(gamma)
    s = math.sqrt
    q = n * n + 2
    m01 = 3 * s(6 * (n - 3)) / s(q)
    m03 = s(3 * (n - 3)) * s((n - 4) * (n + 4)) / s(q)
    m13 = -3 * s(2 * (n - 4) * (n + 4)) / q
    m23 = -2 * s(2 * (n - 5)) * s(q) / (n + 4)
    M = (
        (0.0, m01, 0.0, m03),
        (m01, 3 * (n**3 - 3 * n**2 + 2 * n - 12) / q, 0.0, m13),
        (0.0, 0.0, (2 * n * n - 9 * n - 32) / (n + 4), m23),
        (m03, m13, m23, (n**4 + 2 * n**3 - 42 * n**2 + 22 * n - 16) / ((n + 4) * q)),
    )
    h = [[-gamma * entry for entry in row] for row in M]
    h[0][0] -= 1.0  # the oracle, -|d_0><d_0|
    return tuple(map(tuple, h))


def char_cubic_coeffs(n: int, gamma: numbers.Real) -> tuple[float, float, float, float]:
    """Coefficients (lambda^3, lambda^2, lambda, 1) of the block cubic.

    This is the characteristic polynomial det(B - lambda) of the 3x3
    perturbation block over (d0, r', r''),

        B = [[-1, 0, -g sqrt(3n)],
             [0, -g (2n-17), 2g sqrt(2n)],
             [-g sqrt(3n), 2g sqrt(2n), -g (n-2)]],

    expanded in closed form; its roots are the block eigenvalues, one of
    which is lambda_u.
    """
    _check_reduced_params(n, 3)
    g = _check_gamma(gamma)
    return (
        -1.0,
        -(3.0 * g * n - 19.0 * g + 1.0),
        g * (19.0 - 34.0 * g - 2.0 * g * n * n + n * (32.0 * g - 3.0)),
        g * g * (-34.0 + n * (29.0 - 51.0 * g) + n * n * (-2.0 + 6.0 * g)),
    )


def _signed(vector: tuple[float, ...]) -> tuple[float, ...]:
    """``linalg.eig_sym``'s sign rule: the first component of magnitude above
    ``SIGN_EPS`` is made non-negative."""
    lead = next((x for x in vector if abs(x) > SIGN_EPS), 0.0)
    return tuple(0.0 - x for x in vector) if lead < 0.0 else vector  # no -0.0


def _block_pair(n: int, g: float) -> tuple[float, tuple[float, float, float]]:
    """The eigenpair of the block B of ``char_cubic_coeffs`` with its
    eigenvalue nearest -1 - 1/(2n), by ``scheme._jacobi``.

    4 sum |b_ij| bounds every number the rotations form, and it is finite
    wherever the cubic is, which ``perturbation_report`` checks first: a
    finite constant term bounds g^3 |6n^2 - 51n|, which keeps g n below 1e137
    for every n the graph rule accepts, and no entry of B exceeds 1 + 2 g n.
    """
    b02, b12 = -g * math.sqrt(3.0 * n), 2.0 * g * math.sqrt(2.0 * n)
    block = [[-1.0, 0.0, b02], [0.0, -g * (2.0 * n - 17.0), b12],
             [b02, b12, -g * (n - 2.0)]]
    values, vectors = _jacobi(block)
    seed = -1.0 - 1.0 / (2.0 * n)
    i = min(range(3), key=lambda i: abs(values[i] - seed))
    return values[i], _signed(tuple(row[i] for row in vectors))


class PerturbationReport(NamedTuple):
    """The k=3 two-level reduction at one (n, gamma).

    (lambda_u, u) is the block eigenpair the effective 2x2 Hamiltonian over
    (r, u) is built from; e_minus <= e_plus are its eigenvalues and
    alpha_minus, alpha_plus the matching eigenvectors.
    """

    n: int
    gamma: float
    cubic_coefficients: tuple[float, float, float, float]
    lambda_u: float
    u: tuple[float, float, float]
    effective_2x2: Rows
    e_minus: float
    e_plus: float
    alpha_minus: tuple[float, float]
    alpha_plus: tuple[float, float]
    predicted_gap: float
    predicted_runtime: float


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return math.isfinite(value)


def perturbation_report(n: int, gamma: Optional[numbers.Real] = None
                        ) -> PerturbationReport:
    """Project the transformed Hamiltonian onto span{|r>, |u>} at one rate.

    gamma defaults to the closed-form critical rate, where the reduction is
    designed to hold, and must otherwise be finite and non-negative, the
    rate rule of the search Hamiltonian.
    (lambda_u, |u>) is the (d0, r', r'') block eigenpair with lambda_u
    nearest -1 - 1/(2n), from ``_block_pair``.  With |u> embedded at zero
    r-component, the 2x2 entries are quadratic forms of
    ``transformed_hamiltonian_closed``; its eigenpairs are in closed form.
    Near the critical rate its eigenvectors tend to (1, +-1)/sqrt(2) and its
    gap shrinks like 2*sqrt(6)/n^(3/2).  Eigenvectors take ``eig_sym``'s
    sign rule.  The gap is a difference of eigenvalues of size ~1, so it is
    refused with ValueError once it is within 1e3 ulps of them (n above
    about 7.5e8 at the critical rate), as is a report with any value outside
    the float range.  The cubic is checked before the block is solved (its
    gamma^3 n^2 term overflows near gamma = 1e102 at n = 100), then the gap,
    then every other value.
    """
    if gamma is None:
        gamma = gamma_c_formula_k3(n)
    gamma = _check_gamma(gamma)
    cubic = char_cubic_coeffs(n, gamma)
    if not _finite(cubic):
        raise ValueError(f"cubic_coefficients overflows at n={n}, gamma={gamma}")
    lam, u = _block_pair(n, gamma)
    hp = transformed_hamiltonian_closed(n, gamma)
    u4 = (u[0], 0.0, u[1], u[2])
    h_rr = hp[1][1]
    h_ru = math.fsum(map(mul, hp[1], u4))
    h_uu = math.fsum(x * y * entry for x, row in zip(u4, hp)
                     for y, entry in zip(u4, row))
    mean, half = 0.5 * (h_rr + h_uu), 0.5 * (h_rr - h_uu)
    radius = math.hypot(half, h_ru)
    e_minus, e_plus = mean - radius, mean + radius
    theta = 0.5 * math.atan2(h_ru, half)  # alpha_plus = (cos, sin) of it
    gap = e_plus - e_minus
    if gap <= 1e3 * sys.float_info.epsilon * max(abs(e_minus), abs(e_plus)):
        raise ValueError(f"the two-level gap at n={n}, gamma={gamma} is not "
                         "resolved in double precision")
    report = PerturbationReport(
        n=n, gamma=gamma,
        cubic_coefficients=cubic,
        lambda_u=lam, u=u, effective_2x2=((h_rr, h_ru), (h_ru, h_uu)),
        e_minus=e_minus, e_plus=e_plus,
        alpha_minus=_signed((-math.sin(theta), math.cos(theta))),
        alpha_plus=_signed((math.cos(theta), math.sin(theta))),
        predicted_gap=gap, predicted_runtime=math.pi / gap)
    for name, value in report._asdict().items():
        if not _finite(value):
            raise ValueError(f"{name} overflows at n={n}, gamma={gamma}")
    return report
