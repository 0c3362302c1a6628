"""Critical jumping rate and the perturbation-theory reconstruction.

Frozen reference numbers in this file were produced with an independent
dense-eigensolver pipeline (numpy.linalg.eigh) over the same models.
"""

import math

import numpy as np
import pytest

from johnsonwalk import analysis, johnson, linalg, reduced
from johnsonwalk.analysis import SearchBracketError
from johnsonwalk.johnson import VertexCapError
from johnsonwalk.linalg import eig_sym

GAMMA_C_100 = 1.0 / 300.0 + 7.0 / 60000.0
# bisection result for J(100,3) from the reference pipeline
GAMMA_NUMERIC_100 = 0.0034548217385114792

# (n=100, formula gamma) perturbation quantities, reference pipeline
LAMBDA_U_100 = -1.0055617747640058
U_100 = [0.9954058334809888, -0.024159085801182065, 0.09264753232153225]
ALPHA_MINUS_100 = [0.6027652728086658, 0.7979185584355677]
E_MINUS_100 = -1.0072156535426042
E_PLUS_100 = -1.0020766622098758

# same quantities at n=1000
LAMBDA_U_1000 = -1.0005055131050875
U_1000 = [0.9996165778282068, -0.002447219675957965, 0.027580943545899645]
ALPHA_MINUS_1000 = [0.6734898713912156, 0.7391964509745997]


def test_gamma_c_formula_values():
    res = analysis.gamma_c_formula_k3(100)
    assert res == pytest.approx(GAMMA_C_100, abs=1e-18)
    assert res == pytest.approx(0.00345, abs=5e-7)
    big = analysis.gamma_c_formula_k3(10 ** 6)
    assert big * 10 ** 6 == pytest.approx(1.0 / 3.0, abs=1e-5)
    with pytest.raises(ValueError):
        analysis.gamma_c_formula_k3(5)


def test_gamma_c_numeric_j100_3():
    res = analysis.gamma_c_numeric(100, 3)
    assert res.gamma == pytest.approx(GAMMA_NUMERIC_100, abs=5e-12)
    assert res.gamma == pytest.approx(0.003455, abs=1e-6)
    assert abs(res.residual) < 1e-6
    # deterministic: a second search reproduces the value bit-exactly
    assert analysis.gamma_c_numeric(100, 3).gamma == res.gamma


@pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
def test_gamma_c_numeric_next_order_k3(n):
    """(numeric - formula) * n^3 settles near 4.83: the bisection resolves
    the n^-3 term beyond the closed form 1/(3n) + 7/(6n^2) at every n."""
    numeric = analysis.gamma_c_numeric(n, 3).gamma
    offset = (numeric - analysis.gamma_c_formula_k3(n)) * n ** 3
    assert abs(offset - 4.83) <= 0.5


@pytest.mark.parametrize("n", [4, 16, 100])
def test_gamma_c_numeric_complete_graph(n):
    """On K_n the balance point sits at (n-2)/n^2 (the two-dimensional
    reduced model can be solved by hand)."""
    res = analysis.gamma_c_numeric(n, 1)
    assert res.gamma == pytest.approx((n - 2) / n ** 2, abs=5e-13)


@pytest.mark.parametrize("n,k", [(100, 3), (2000, 20)])
def test_gamma_c_numeric_bisects_through_overlap_balance(monkeypatch, n, k):
    calls = []
    balance = analysis.overlap_balance

    def counting_balance(*args):
        calls.append(args)
        return balance(*args)

    monkeypatch.setattr(analysis, "overlap_balance", counting_balance)
    result = analysis.gamma_c_numeric(n, k)
    assert calls and all(args[:2] == (n, k) for args in calls)
    assert calls[-1] == (n, k, result.gamma)
    assert result.residual == balance(n, k, result.gamma)


def test_overlap_balance_is_the_spectrum_overlap_difference():
    for n, k, gamma in [(100, 3, 0.00345), (2000, 20, 2.5e-05), (16, 1, 0.05)]:
        overlaps = linalg.overlap_spectrum(reduced.search_hamiltonian(n, k, gamma),
                                           reduced.initial_state(n, k)).overlap_s
        assert analysis.overlap_balance(n, k, gamma) == overlaps[0] - overlaps[1]


def test_gamma_c_numeric_bracket_failure():
    # K_2: the ground state hugs the marked vertex for every gamma, the
    # balance never changes sign
    with pytest.raises(SearchBracketError, match="no sign change"):
        analysis.gamma_c_numeric(2, 1)


def test_package_errors_are_value_errors():
    assert issubclass(SearchBracketError, ValueError)
    assert issubclass(VertexCapError, ValueError)


def test_energy_gap_scaling_law():
    gap = analysis.energy_gap(100, 3, analysis.gamma_c_numeric(100, 3).gamma)
    n_vertices = 161700
    assert abs(gap * math.sqrt(n_vertices) / 2.0 - 1.0) <= 0.1
    assert gap == pytest.approx(2.0 / math.sqrt(n_vertices), rel=0.01)
    with pytest.raises(ValueError):
        analysis.energy_gap(100, 3, 0.0)


def test_predicted_peak_time():
    assert analysis.predicted_peak_time(100, 3) == pytest.approx(631.65, abs=0.01)
    assert analysis.predicted_peak_time(1000, 3) == pytest.approx(20248.5, abs=0.1)
    assert analysis.predicted_peak_time(4, 1) == math.pi


def test_predicted_peak_time_rejects_vertex_count_beyond_float():
    with pytest.raises(ValueError, match="float range"):
        analysis.predicted_peak_time(3000, 500)


def test_naive_splitting_structure():
    gamma = 1.0 / 300.0
    split = analysis.naive_splitting_diagnostic(100, gamma)
    assert split.d0_d3_coupling == 0.0
    assert np.allclose(np.diag(split.h0),
                       [-1.0, -gamma * 100, -2 * gamma * 100, -3 * gamma * 100])
    # gamma = 1/(3n) makes the marked and far classes degenerate
    assert split.h0[3, 3] == pytest.approx(-1.0, abs=1e-12)
    assert np.array_equal(split.h1, split.h1.T)
    assert split.h1[0, 3] == 0.0 and split.h1[0, 2] == 0.0


@pytest.mark.parametrize("n", [100, 1000])
def test_naive_splitting_residual(n):
    """Dropped terms sit at O(gamma), far below the O(gamma*sqrt(n))
    entries that were kept."""
    gamma = 1.0 / (3.0 * n)
    split = analysis.naive_splitting_diagnostic(n, gamma)
    h = reduced.search_hamiltonian(n, 3, gamma)
    residual = np.abs(h - (split.h0 + split.h1)).max()
    assert residual == pytest.approx(18.0 * gamma, rel=1e-12)
    assert residual <= 1.0 / math.sqrt(n)


def test_char_cubic_gamma_zero():
    assert analysis.char_cubic_coeffs(50, 0.0) == (-1.0, -1.0, 0.0, 0.0)
    # roots of -l^3 - l^2: 0, 0, -1
    roots = np.roots([-1.0, -1.0, 0.0, 0.0])
    assert sorted(np.round(roots, 12).tolist()) == [-1.0, 0.0, 0.0]


@pytest.mark.parametrize("n,gamma", [(100, 0.00345), (37, 0.01), (800, 4.2e-4)])
def test_char_cubic_matches_block_charpoly(n, gamma):
    monic = np.poly(analysis.pt_block(n, gamma))
    c3, c2, c1, c0 = analysis.char_cubic_coeffs(n, gamma)
    mine = np.array([1.0, -c2, -c1, -c0])   # divide by c3 = -1
    assert np.abs((mine - monic) / np.maximum(1e-30, np.abs(monic))).max() < 1e-10


def test_cubic_roots_are_block_spectrum():
    n, gamma = 100, GAMMA_C_100
    roots = np.roots(analysis.char_cubic_coeffs(n, gamma))
    assert np.abs(roots.imag).max() < 1e-12
    evals = np.linalg.eigvalsh(analysis.pt_block(n, gamma))
    assert np.abs(np.sort(roots.real) - evals).max() < 1e-9


def _pair(n, gamma):
    system = analysis.perturbation_report(n, gamma)
    return system.lambda_u, system.u


def test_lambda_u_frozen_values():
    lam, _ = _pair(100, GAMMA_C_100)
    assert lam == pytest.approx(LAMBDA_U_100, abs=1e-12)
    assert abs(lam + 1.005) < 1e-3
    assert abs(lam + 1.0 + 1.0 / 200.0) <= 10.0 / 100 ** 2
    lam_big, _ = _pair(1000, analysis.gamma_c_formula_k3(1000))
    assert lam_big == pytest.approx(LAMBDA_U_1000, abs=1e-12)


def test_lambda_u_is_block_eigenvalue():
    for n, gamma in [(50, 0.008), (100, GAMMA_C_100), (300, 0.0012)]:
        lam, _ = _pair(n, gamma)
        evals = np.linalg.eigvalsh(analysis.pt_block(n, gamma))
        assert np.abs(evals - lam).min() < 1e-9


def test_lambda_u_near_degenerate_with_e_r():
    """At the critical rate, lambda_u and the plain r-state energy
    -gamma(3n-9) split only at O(1/n^2)."""
    for n in (100, 1000):
        gamma = analysis.gamma_c_formula_k3(n)
        e_r = -gamma * (3.0 * n - 9.0)
        assert abs(_pair(n, gamma)[0] - e_r) <= 20.0 / n ** 2


def test_u_frozen_and_eigen_residual():
    lam, u = _pair(100, GAMMA_C_100)
    assert np.abs(u - np.array(U_100)).max() < 1e-10
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    assert u[0] > 0
    block = analysis.pt_block(100, GAMMA_C_100)
    assert np.linalg.norm(block @ u - lam * u) <= 1e-8


@pytest.mark.parametrize("n", [100, 1000])
def test_u_matches_eigensolver(n):
    gamma = analysis.gamma_c_formula_k3(n)
    lam, u = _pair(n, gamma)
    evals, evecs = np.linalg.eigh(analysis.pt_block(n, gamma))
    ref = evecs[:, int(np.argmin(np.abs(evals - lam)))]
    if ref[0] < 0:
        ref = -ref
    assert np.abs(u - ref).max() <= 1e-8
    # |u> approaches |d0> as the graph grows
    assert u[0] > 0.99


@pytest.mark.parametrize("n", [10 ** p for p in range(2, 8)])
def test_pair_is_accurate_eigenpair_and_cubic_root(n):
    """At the formula rate, (lambda_u, u) is a backward-stable eigenpair of
    the block, and lambda_u a root of the paper's closed-form cubic."""
    gamma = analysis.gamma_c_formula_k3(n)
    lam, u = _pair(n, gamma)
    block = analysis.pt_block(n, gamma)
    eps = np.finfo(float).eps
    assert np.linalg.norm(block @ u - lam * u) <= 4.0 * eps * np.linalg.norm(block, 2)
    c3, c2, c1, c0 = analysis.char_cubic_coeffs(n, gamma)
    p = ((c3 * lam + c2) * lam + c1) * lam + c0
    dp = (3.0 * c3 * lam + 2.0 * c2) * lam + c1
    assert abs(p) <= 1e-13 * abs(dp)


@pytest.mark.parametrize("n", [100, 10 ** 7])
def test_pair_matches_high_precision_eigensolve(n):
    mpmath = pytest.importorskip("mpmath")
    gamma = analysis.gamma_c_formula_k3(n)
    lam, u = _pair(n, gamma)
    with mpmath.workdps(50):
        g, m = mpmath.mpf(gamma), mpmath.mpf(n)
        a, b = -g * mpmath.sqrt(3 * m), 2 * g * mpmath.sqrt(2 * m)
        block = mpmath.matrix([[-1, 0, a],
                               [0, -g * (2 * m - 17), b],
                               [a, b, -g * (m - 2)]])
        evals, evecs = mpmath.eigsy(block)
        seed = -1 - 1 / (2 * m)
        j = min(range(3), key=lambda i: abs(evals[i] - seed))
        ref = np.array([float(evecs[i, j]) for i in range(3)])
        ref_lam = float(evals[j])
    ref *= np.sign(ref[0])
    assert abs(lam - ref_lam) <= 1e-15
    assert np.abs(u - ref).max() <= 1e-14


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_effective_two_level_and_energy_gap_reject_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="finite and positive"):
        analysis.energy_gap(100, 3, gamma)
    with pytest.raises(ValueError, match="finite and positive"):
        analysis.perturbation_report(100, gamma)


def test_perturbation_report_solves_twice(monkeypatch):
    # The report solves the 3x3 block once for (lambda_u, u) and the 2x2
    # system once, reports the pair and the alphas from those two solves,
    # and evaluates the closed-form cubic only for its own output.
    calls, solves, cubic_calls = [], [], []
    char_cubic_coeffs = analysis.char_cubic_coeffs

    def counting_eig_sym(matrix):
        calls.append(np.shape(matrix))
        solves.append(eig_sym(matrix))
        return solves[-1]

    def counting_cubic(n, gamma):
        cubic_calls.append((n, gamma))
        return char_cubic_coeffs(n, gamma)

    monkeypatch.setattr(analysis, "eig_sym", counting_eig_sym)
    monkeypatch.setattr(analysis, "char_cubic_coeffs", counting_cubic)
    report = analysis.perturbation_report(100)
    assert calls == [(3, 3), (2, 2)]
    assert cubic_calls == [(100, report.gamma)]
    (block_evals, block_evecs), (_, alphas) = solves
    index = int(np.argmin(np.abs(block_evals - report.lambda_u)))
    assert report.lambda_u == block_evals[index]
    assert np.array_equal(report.u, block_evecs[:, index])
    assert np.array_equal(report.alpha_minus, alphas[:, 0])
    assert np.array_equal(report.alpha_plus, alphas[:, 1])


@pytest.mark.parametrize("n", [8 * 10**8, 10**10, 10**11, 10**12, 10**25])
def test_perturbation_report_refuses_an_unresolved_gap(n):
    # The gap is e_plus - e_minus of eigenvalues near -1 - 1/(2n); from
    # n ~ 7.5e8 on it is within 1e3 ulps of them.  Unrefused, it came out 5%
    # off the 2*sqrt(6)/n^1.5 law at 1e10, and 3.3e-16 for about 1.5e-37 at
    # 1e25.
    with pytest.raises(ValueError, match="not resolved in double precision"):
        analysis.perturbation_report(n)


@pytest.mark.parametrize("n", [2 * 10**5, 10**7, 7 * 10**8])
def test_perturbation_report_keeps_a_resolved_gap(n):
    report = analysis.perturbation_report(n)
    law = 2.0 * math.sqrt(6.0) / n ** 1.5
    assert abs(report.predicted_gap - law) / law < 0.01


def test_perturbation_report_rejects_overflowing_gamma():
    with pytest.raises(ValueError, match="finite matrix"):
        analysis.perturbation_report(100, 1e308)


def test_effective_two_level_frozen_n100():
    system = analysis.perturbation_report(100, GAMMA_C_100)
    assert system.effective_2x2.shape == (2, 2)
    assert system.effective_2x2[0, 1] == pytest.approx(system.effective_2x2[1, 0],
                                                        abs=1e-15)
    target = math.sqrt(6.0) / 100 ** 1.5
    assert abs(abs(system.effective_2x2[0, 1]) - target) / target < 0.02
    assert system.e_minus == pytest.approx(E_MINUS_100, abs=1e-12)
    assert system.e_plus == pytest.approx(E_PLUS_100, abs=1e-12)
    gap = system.e_plus - system.e_minus
    assert abs(gap - 2.0 * target) / (2.0 * target) < 0.07
    assert np.abs(system.alpha_minus - np.array(ALPHA_MINUS_100)).max() < 1e-9


def test_effective_two_level_gap_matches_exact():
    for n in (100, 1000):
        gamma = analysis.gamma_c_formula_k3(n)
        system = analysis.perturbation_report(n, gamma)
        exact = analysis.energy_gap(n, 3, gamma)
        assert abs((system.e_plus - system.e_minus) - exact) / exact < 0.2


def test_effective_two_level_alphas_approach_equal_mixing():
    system = analysis.perturbation_report(1000, analysis.gamma_c_formula_k3(1000))
    assert np.abs(system.alpha_minus - np.array(ALPHA_MINUS_1000)).max() < 1e-9
    equal = 1.0 / math.sqrt(2.0)
    assert np.abs(np.abs(system.alpha_minus) - equal).max() < 0.05
    assert np.abs(np.abs(system.alpha_plus) - equal).max() < 0.05


def test_perturbation_report_consistency():
    report = analysis.perturbation_report(100)
    assert report.gamma == pytest.approx(GAMMA_C_100, abs=1e-18)
    assert report.cubic_coefficients == analysis.char_cubic_coeffs(100, report.gamma)
    assert report.lambda_u == pytest.approx(LAMBDA_U_100, abs=1e-12)
    assert np.linalg.norm(report.u) == pytest.approx(1.0, abs=1e-14)
    assert report.e_minus <= report.e_plus
    assert report.predicted_gap == pytest.approx(report.e_plus - report.e_minus,
                                                 abs=1e-18)
    assert report.predicted_runtime == pytest.approx(math.pi / report.predicted_gap,
                                                     abs=1e-12)
    # the two-level runtime lands near the exact-N peak-time prediction
    peak = analysis.predicted_peak_time(100, 3)
    assert abs(report.predicted_runtime - peak) / peak < 0.05


def test_run_verification_small_graphs():
    assert analysis.run_verification(6, 3, 0.1).max_deviation <= 1e-10
    assert analysis.run_verification(5, 2, 0.2).max_deviation <= 1e-10


def test_run_verification_zero_window():
    result = analysis.run_verification(6, 3, 0.1, t_max=0.0)
    assert result.max_deviation == 0.0
    assert result.steps == 1


def test_run_verification_records_window():
    result = analysis.run_verification(5, 2, 0.05, steps=40)
    assert result.t_max == pytest.approx(2.0 * math.pi * math.sqrt(10), abs=1e-12)
    assert result.steps == 40


def test_run_verification_honors_cap():
    with pytest.raises(VertexCapError):
        analysis.run_verification(30, 3, 0.01, cap=100)
    with pytest.raises(ValueError):
        analysis.run_verification(6, 3, -0.5)
    with pytest.raises(ValueError, match="finite"):
        analysis.run_verification(6, 3, math.nan)
    with pytest.raises(ValueError, match="finite"):
        analysis.run_verification(6, 3, 0.1, t_max=math.inf)


def test_run_verification_refuses_float_range_before_the_graph(monkeypatch):
    def exact_count(n, k):
        raise AssertionError(f"C({n},{k}) computed exactly")

    monkeypatch.setattr(reduced, "binomial", exact_count)
    monkeypatch.setattr(johnson, "binomial", exact_count)
    with pytest.raises(ValueError, match="float range"):
        analysis.run_verification(10**7, 10**6, 0.001)


# Every k=3 entry point with a valid jumping rate; n and gamma are swapped in
# per case.
K3_ENTRY_POINTS = {
    "gamma_c_formula_k3": lambda n, g: analysis.gamma_c_formula_k3(n),
    "naive_splitting_diagnostic": analysis.naive_splitting_diagnostic,
    "char_cubic_coeffs": analysis.char_cubic_coeffs,
    "pt_block": analysis.pt_block,
    "basis_change_T": lambda n, g: reduced.basis_change_T(n),
    "transformed_hamiltonian": reduced.transformed_hamiltonian,
    "transformed_hamiltonian_closed": reduced.transformed_hamiltonian_closed,
    "perturbation_report": analysis.perturbation_report,
}
#: The entry points that refuse a jumping rate that is not finite and positive.
K3_POSITIVE_GAMMA = ("transformed_hamiltonian_closed", "perturbation_report")
#: The entry points that admit gamma = 0 and refuse one that is negative or
#: not finite, with search_hamiltonian's rule.
K3_NON_NEGATIVE_GAMMA = ("naive_splitting_diagnostic", "char_cubic_coeffs",
                         "pt_block", "transformed_hamiltonian")


@pytest.mark.parametrize("name", sorted(K3_ENTRY_POINTS))
@pytest.mark.parametrize("n", [5, 6.0, 10**200])
def test_k3_entry_points_share_the_n_domain(name, n):
    entry = K3_ENTRY_POINTS[name]
    entry(100, GAMMA_C_100)
    with pytest.raises(ValueError, match="float range" if n == 10**200 else None):
        entry(n, GAMMA_C_100)


@pytest.mark.parametrize("name", K3_POSITIVE_GAMMA)
@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_k3_entry_points_share_the_gamma_domain(name, gamma):
    with pytest.raises(ValueError, match="finite and positive"):
        K3_ENTRY_POINTS[name](100, gamma)


@pytest.mark.parametrize("name", K3_NON_NEGATIVE_GAMMA)
@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, -0.1])
def test_k3_closed_forms_share_search_hamiltonians_gamma_rule(name, gamma):
    with pytest.raises(ValueError, match="finite and non-negative"):
        K3_ENTRY_POINTS[name](100, gamma)
    K3_ENTRY_POINTS[name](100, 0.0)
