"""The eigensolver's balance check and the k=3 perturbation analysis.

The critical jumping rate itself comes from ``scheme``, without a matrix.
``overlap_balance`` is the same balance taken from an eigendecomposition of
the distance-basis Hamiltonian, so it checks the rate ``scheme`` returns at
moderate N.  Around that rate the walk behaves as a two-level system, and
the middle of this module rebuilds that picture numerically: the
characteristic cubic of the (d0, r', r'') block, and
``perturbation_report``, which finds the block eigenpair (lambda_u, |u>)
with lambda_u nearest -1 - 1/(2n) and the effective 2x2 Hamiltonian over
(r, u) whose gap sets the runtime pi/(E_plus - E_minus).  The brute-force
verification is ``johnson.run_verification``.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import reduced, scheme
from .linalg import eig_sym


def overlap_balance(n: int, k: int, gamma: float) -> float:
    """|<s|psi_0>|^2 - |<s|psi_1>|^2 for the two lowest eigenstates.

    Positive when the ground state dominates the uniform superposition,
    negative when the first excited state does; the critical jumping rate
    is the zero crossing.  ``scheme.gamma_c_numeric`` finds that crossing
    from the scheme's spectrum; this is its check through ``eig_sym``.
    """
    s = reduced.initial_state(n, k)
    _, evecs = eig_sym(reduced.search_hamiltonian(n, k, gamma))
    overlaps = (evecs.T @ s) ** 2
    return float(overlaps[0] - overlaps[1])


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


def naive_splitting_diagnostic(n: int, gamma: float) -> NaiveSplitting:
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


def char_cubic_coeffs(n: int, gamma: float) -> tuple[float, float, float, float]:
    """Coefficients (lambda^3, lambda^2, lambda, 1) of the block cubic.

    This is the characteristic polynomial of the 3x3 perturbation block
    over (d0, r', r''), expanded in closed form; its roots are the block
    eigenvalues, one of which is lambda_u.
    """
    scheme._check_k3_params(n)
    scheme._check_gamma(gamma)
    g = float(gamma)
    return (
        -1.0,
        -(3.0 * g * n - 19.0 * g + 1.0),
        g * (19.0 - 34.0 * g - 2.0 * g * n * n + n * (32.0 * g - 3.0)),
        g * g * (-34.0 + n * (29.0 - 51.0 * g) + n * n * (-2.0 + 6.0 * g)),
    )


def pt_block(n: int, gamma: float) -> np.ndarray:
    """3x3 leading-order Hamiltonian block over (d0, r', r'')."""
    scheme._check_k3_params(n)
    scheme._check_gamma(gamma)
    g = float(gamma)
    return np.array([
        [-1.0, 0.0, -g * math.sqrt(3.0 * n)],
        [0.0, -g * (2.0 * n - 17.0), 2.0 * g * math.sqrt(2.0 * n)],
        [-g * math.sqrt(3.0 * n), 2.0 * g * math.sqrt(2.0 * n), -g * (n - 2.0)],
    ])


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
    u: np.ndarray
    effective_2x2: np.ndarray
    e_minus: float
    e_plus: float
    alpha_minus: np.ndarray
    alpha_plus: np.ndarray
    predicted_gap: float
    predicted_runtime: float


def perturbation_report(n: int, gamma: Optional[float] = None) -> PerturbationReport:
    """Project the transformed Hamiltonian onto span{|r>, |u>} at one rate.

    gamma defaults to the closed-form critical rate, where the reduction is
    designed to hold, and must otherwise be finite and positive.
    (lambda_u, |u>) is the (d0, r', r'') block eigenpair with lambda_u
    nearest -1 - 1/(2n), from one ``eig_sym`` call, whose sign convention
    makes u_d0 > 0 when |u_d0| > ``linalg.SIGN_EPS``.  With |u> embedded at
    zero r-component, the 2x2 entries are plain quadratic forms of the
    transformed Hamiltonian; near the critical rate its eigenvectors tend to
    (1, +-1)/sqrt(2) and its gap shrinks like 2*sqrt(6)/n^(3/2).  The gap
    is a difference of eigenvalues of size ~1, so it is refused with
    ValueError once it is within 1e3 ulps of them (n above about 7.5e8 at
    the critical rate), as is a report with any value outside the float
    range (the cubic's gamma^3 n^2 term overflows near gamma = 1e102 at
    n = 100).
    """
    if gamma is None:
        gamma = scheme.gamma_c_formula_k3(n)
    scheme._check_positive_gamma(gamma)
    evals, evecs = eig_sym(pt_block(n, gamma))
    index = int(np.argmin(np.abs(evals - (-1.0 - 1.0 / (2.0 * n)))))
    lam, u = float(evals[index]), evecs[:, index]
    hp = reduced.transformed_hamiltonian(n, gamma)
    r4 = np.array([0.0, 1.0, 0.0, 0.0])
    u4 = np.array([u[0], 0.0, u[1], u[2]])
    matrix = np.array([
        [r4 @ hp @ r4, r4 @ hp @ u4],
        [u4 @ hp @ r4, u4 @ hp @ u4],
    ])
    evals, evecs = eig_sym(matrix)
    e_minus, e_plus = float(evals[0]), float(evals[1])
    gap = e_plus - e_minus
    if gap <= 1e3 * sys.float_info.epsilon * max(abs(e_minus), abs(e_plus)):
        raise ValueError(f"the two-level gap at n={n}, gamma={gamma} is not "
                         "resolved in double precision")
    report = PerturbationReport(
        n=n, gamma=float(gamma),
        cubic_coefficients=char_cubic_coeffs(n, gamma),
        lambda_u=lam, u=u, effective_2x2=matrix,
        e_minus=e_minus, e_plus=e_plus,
        alpha_minus=evecs[:, 0], alpha_plus=evecs[:, 1],
        predicted_gap=gap, predicted_runtime=math.pi / gap)
    for name, value in report._asdict().items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ValueError(f"{name} overflows at n={n}, gamma={gamma}")
    return report
