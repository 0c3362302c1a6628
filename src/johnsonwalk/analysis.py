"""Critical jumping rate, energy gap, and perturbation-theory checks.

Two routes to the critical jumping rate gamma_c are provided: the k=3
closed form 1/(3n) + 7/(6 n^2), returned as a plain float, and a bisection
search for the gamma at which the uniform superposition is equally
supported on the two lowest eigenstates of the search Hamiltonian, returned
with its overlap-balance residual.  Around that point the walk behaves as a
two-level system, and the functions in the second half of this module
rebuild that picture numerically: the characteristic cubic of the
(d0, r', r'') block, and ``perturbation_report``, which finds the block
eigenpair (lambda_u, |u>) with lambda_u nearest -1 - 1/(2n) and the
effective 2x2 Hamiltonian over (r, u) whose gap sets the runtime
pi/(E_plus - E_minus).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import johnson, linalg, reduced
from .johnson import DEFAULT_VERTEX_CAP
from .linalg import eig_sym, success_curve

#: Maximum number of geometric bracket expansions before giving up.
MAX_BRACKET_EXPANSIONS = 10


class SearchBracketError(ValueError):
    """Root bracketing failed: no sign change after the allowed expansions."""


class CriticalGammaResult(NamedTuple):
    """Critical jumping rate from the numeric search, with its check.

    ``residual`` is the overlap-balance value at the returned gamma.
    """

    gamma: float
    residual: float


def gamma_c_formula_k3(n: int) -> float:
    """Closed-form critical jumping rate 1/(3n) + 7/(6n^2) for k = 3."""
    reduced._check_k3_params(n)
    return 1.0 / (3.0 * n) + 7.0 / (6.0 * n * n)


def overlap_balance(n: int, k: int, gamma: float) -> float:
    """|<s|psi_0>|^2 - |<s|psi_1>|^2 for the two lowest eigenstates.

    Positive when the ground state dominates the uniform superposition,
    negative when the first excited state does; the critical jumping rate
    is the zero crossing.  This is the balance ``gamma_c_numeric`` bisects.
    """
    s = reduced.initial_state(n, k)
    _, evecs = eig_sym(reduced.search_hamiltonian(n, k, gamma))
    overlaps = (evecs.T @ s) ** 2
    return float(overlaps[0] - overlaps[1])


def gamma_c_numeric(n: int, k: int) -> CriticalGammaResult:
    """Bisect the overlap balance to locate the critical jumping rate.

    Starts from the bracket [1/(2kn), 2/(kn)] and widens it geometrically
    (up to MAX_BRACKET_EXPANSIONS times) if the balance does not change
    sign across it; raises SearchBracketError when no sign change can be
    found.  The bracket is halved until its midpoint no longer lies strictly
    inside it, i.e. down to adjacent floats, so the result is as close to
    the balance point as double precision allows at any n, and is
    deterministic for a given (n, k).
    """
    reduced._check_reduced_params(n, k)  # before 1/(2kn) divides by them

    def balance(gamma: float) -> float:
        return overlap_balance(n, k, gamma)

    lo, hi = 1.0 / (2.0 * k * n), 2.0 / (k * n)
    f_lo, f_hi = balance(lo), balance(hi)
    expansions = 0
    while f_lo * f_hi > 0.0 and expansions < MAX_BRACKET_EXPANSIONS:
        lo /= 2.0
        hi *= 2.0
        f_lo, f_hi = balance(lo), balance(hi)
        expansions += 1
    # An endpoint can land exactly on the root (it does for small complete
    # graphs), in which case the product above is 0, not negative.
    if f_lo == 0.0:
        return CriticalGammaResult(gamma=lo, residual=0.0)
    if f_hi == 0.0:
        return CriticalGammaResult(gamma=hi, residual=0.0)
    if f_lo * f_hi > 0.0:
        raise SearchBracketError(
            f"overlap balance has no sign change on [{lo:.3e}, {hi:.3e}] "
            f"after {expansions} expansions (J({n},{k}))")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f_mid = balance(mid)
        if f_mid == 0.0:
            return CriticalGammaResult(gamma=mid, residual=0.0)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return CriticalGammaResult(gamma=mid, residual=balance(mid))


def energy_gap(n: int, k: int, gamma: float) -> float:
    """E_1 - E_0 of the reduced search Hamiltonian."""
    reduced._check_positive_gamma(gamma)
    evals, _ = eig_sym(reduced.search_hamiltonian(n, k, gamma))
    return float(evals[1] - evals[0])


def predicted_peak_time(n: int, k: int) -> float:
    """Time pi*sqrt(N)/2 at which the marked amplitude should peak.

    Raises ValueError when N = C(n,k) does not fit in a float.
    """
    return math.pi * math.sqrt(reduced._check_reduced_params(n, k)) / 2.0


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
    reduced._check_k3_params(n)
    reduced._check_gamma(gamma)
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
    reduced._check_k3_params(n)
    reduced._check_gamma(gamma)
    g = float(gamma)
    return (
        -1.0,
        -(3.0 * g * n - 19.0 * g + 1.0),
        g * (19.0 - 34.0 * g - 2.0 * g * n * n + n * (32.0 * g - 3.0)),
        g * g * (-34.0 + n * (29.0 - 51.0 * g) + n * n * (-2.0 + 6.0 * g)),
    )


def pt_block(n: int, gamma: float) -> np.ndarray:
    """3x3 leading-order Hamiltonian block over (d0, r', r'')."""
    reduced._check_k3_params(n)
    reduced._check_gamma(gamma)
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
        gamma = gamma_c_formula_k3(n)
    reduced._check_positive_gamma(gamma)
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


class VerificationResult(NamedTuple):
    """Outcome of a full-graph vs reduced-model comparison."""

    n: int
    k: int
    gamma: float
    t_max: float
    steps: int
    max_deviation: float


def run_verification(n: int, k: int, gamma: float,
                     t_max: Optional[float] = None, steps: int = 200,
                     cap: int = DEFAULT_VERTEX_CAP) -> VerificationResult:
    """Compare brute-force and reduced success curves on a shared grid.

    The marked vertex is the lexicographically first k-subset (index 0).
    The default window [0, 2*pi*sqrt(N)] covers a full revival.  Returns
    the maximum pointwise deviation; anything beyond ~1e-10 indicates a
    broken quotient, not numerical noise.
    """
    # Checked first, so a bad gamma or n < 2k is reported before the cap.
    hamiltonian = reduced.search_hamiltonian(n, k, gamma)
    graph = johnson.full_adjacency(n, k, cap=cap)
    n_vertices = graph.n_vertices
    if t_max is None:
        t_max = 2.0 * math.pi * math.sqrt(n_vertices)

    s_full = np.full(n_vertices, 1.0 / math.sqrt(n_vertices))
    psi0 = reduced.initial_state(n, k)
    linalg._check_steps(steps)
    if t_max == 0.0:
        # exp(-iH*0) is the identity, so the grid degenerates to a single
        # point where both curves are just the initial marked probability.
        deviation = abs(s_full[0] ** 2 - psi0[0] ** 2)
        return VerificationResult(n=n, k=k, gamma=float(gamma), t_max=0.0,
                                  steps=1, max_deviation=float(deviation))

    h_full = -float(gamma) * graph.adjacency.astype(float)
    h_full[0, 0] -= 1.0
    full_curve = success_curve(h_full, s_full, t_max, steps=steps)
    reduced_curve = success_curve(hamiltonian, psi0, t_max, steps=steps)
    deviation = float(np.abs(full_curve.probabilities
                             - reduced_curve.probabilities).max())
    return VerificationResult(n=n, k=k, gamma=float(gamma), t_max=float(t_max),
                              steps=int(steps), max_deviation=deviation)
