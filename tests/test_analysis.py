"""Critical jumping rate and the perturbation-theory reconstruction.

Frozen reference numbers in this file were produced with an independent
dense-eigensolver pipeline (numpy.linalg.eigh) over the same models.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import reference
from johnsonwalk import analysis, johnson, reduced, scheme
from johnsonwalk.scheme import SearchBracketError
from johnsonwalk.johnson import VertexCapError

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
    res = scheme.gamma_c_formula_k3(100)
    assert res == pytest.approx(GAMMA_C_100, abs=1e-18)
    assert res == pytest.approx(0.00345, abs=5e-7)
    big = scheme.gamma_c_formula_k3(10 ** 6)
    assert big * 10 ** 6 == pytest.approx(1.0 / 3.0, abs=1e-5)
    with pytest.raises(ValueError):
        scheme.gamma_c_formula_k3(5)


def test_gamma_c_numeric_j100_3():
    res = scheme.gamma_c_numeric(100, 3)
    assert res.gamma == pytest.approx(GAMMA_NUMERIC_100, abs=5e-12)
    assert res.gamma == pytest.approx(0.003455, abs=1e-6)
    assert abs(res.residual) < 1e-6
    # deterministic: a second search reproduces the value bit-exactly
    assert scheme.gamma_c_numeric(100, 3).gamma == res.gamma


@pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
def test_gamma_c_numeric_next_order_k3(n):
    """(numeric - formula) * n^3 settles near 4.83: the search resolves
    the n^-3 term beyond the closed form 1/(3n) + 7/(6n^2) at every n."""
    numeric = scheme.gamma_c_numeric(n, 3).gamma
    offset = (numeric - scheme.gamma_c_formula_k3(n)) * n ** 3
    assert abs(offset - 4.83) <= 0.5


@pytest.mark.parametrize("n", [4, 16, 100])
def test_gamma_c_numeric_complete_graph(n):
    """On K_n the balance point sits at (n-2)/n^2 (the two-dimensional
    reduced model can be solved by hand)."""
    res = scheme.gamma_c_numeric(n, 1)
    assert res.gamma == pytest.approx((n - 2) / n ** 2, abs=5e-13)


@pytest.mark.parametrize("n,k", [(100, 3), (50, 2), (9, 4), (16, 1)])
def test_gamma_c_numeric_residual_is_the_eta_balance(monkeypatch, n, k):
    calls = []
    balance = scheme._balance

    def recording_balance(eta, *args):
        calls.append((eta, balance(eta, *args)))
        return calls[-1][1]

    monkeypatch.setattr(scheme, "_balance", recording_balance)
    result = scheme.gamma_c_numeric(n, k)
    # The search ends on its last balance evaluation: the rate is S_1 (1 + eta)
    # there, and the residual is the balance there.
    eta, (_, residual) = calls[-1]
    assert result.gamma == float(scheme.critical_rate(n, k) * (1 + Fraction(eta)))
    assert result.residual == residual
    assert abs(residual) <= 1e-14
    # The eigensolver's balance agrees at the returned rate.
    assert abs(analysis.overlap_balance(n, k, result.gamma)) <= 1e-10


def test_overlap_balance_is_the_spectrum_overlap_difference():
    for n, k, gamma in [(100, 3, 0.00345), (2000, 20, 2.5e-05), (16, 1, 0.05)]:
        _, overlaps, _ = reference.overlap_spectrum(n, k, gamma)
        assert analysis.overlap_balance(n, k, gamma) == overlaps[0] - overlaps[1]


def test_gamma_c_numeric_bracket_failure():
    # K_2: the ground state hugs the marked vertex for every gamma, the
    # balance never changes sign
    with pytest.raises(SearchBracketError, match="no sign change"):
        scheme.gamma_c_numeric(2, 1)


def test_package_errors_are_value_errors():
    assert issubclass(SearchBracketError, ValueError)
    assert issubclass(VertexCapError, ValueError)


def test_energy_gap_scaling_law():
    gap = reference.energy_gap(100, 3, scheme.gamma_c_numeric(100, 3).gamma)
    n_vertices = 161700
    assert abs(gap * math.sqrt(n_vertices) / 2.0 - 1.0) <= 0.1
    assert gap == pytest.approx(2.0 / math.sqrt(n_vertices), rel=0.01)


def test_predicted_peak_time():
    assert scheme.predicted_peak_time(100, 3) == pytest.approx(631.65, abs=0.01)
    assert scheme.predicted_peak_time(1000, 3) == pytest.approx(20248.5, abs=0.1)
    assert scheme.predicted_peak_time(4, 1) == math.pi


def test_predicted_peak_time_rejects_vertex_count_beyond_float():
    with pytest.raises(ValueError, match="float range"):
        scheme.predicted_peak_time(3000, 500)


def test_naive_splitting_structure():
    gamma = 1.0 / 300.0
    split = reference.naive_splitting_diagnostic(100, gamma)
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
    split = reference.naive_splitting_diagnostic(n, gamma)
    h = analysis.search_hamiltonian(n, 3, gamma)
    residual = np.abs(h - (split.h0 + split.h1)).max()
    assert residual == pytest.approx(18.0 * gamma, rel=1e-12)
    assert residual <= 1.0 / math.sqrt(n)


def test_char_cubic_gamma_zero():
    assert reduced.char_cubic_coeffs(50, 0.0) == (-1.0, -1.0, 0.0, 0.0)
    # roots of -l^3 - l^2: 0, 0, -1
    roots = np.roots([-1.0, -1.0, 0.0, 0.0])
    assert sorted(np.round(roots, 12).tolist()) == [-1.0, 0.0, 0.0]


@pytest.mark.parametrize("n,gamma", [(100, 0.00345), (37, 0.01), (800, 4.2e-4)])
def test_char_cubic_matches_block_charpoly(n, gamma):
    monic = np.poly(reference.pt_block(n, gamma))
    c3, c2, c1, c0 = reduced.char_cubic_coeffs(n, gamma)
    mine = np.array([1.0, -c2, -c1, -c0])   # divide by c3 = -1
    assert np.abs((mine - monic) / np.maximum(1e-30, np.abs(monic))).max() < 1e-10


def test_cubic_roots_are_block_spectrum():
    n, gamma = 100, GAMMA_C_100
    roots = np.roots(reduced.char_cubic_coeffs(n, gamma))
    assert np.abs(roots.imag).max() < 1e-12
    evals = np.linalg.eigvalsh(reference.pt_block(n, gamma))
    assert np.abs(np.sort(roots.real) - evals).max() < 1e-9


def _pair(n, gamma):
    system = reduced.perturbation_report(n, gamma)
    return system.lambda_u, np.array(system.u)


def test_lambda_u_frozen_values():
    lam, _ = _pair(100, GAMMA_C_100)
    assert lam == pytest.approx(LAMBDA_U_100, abs=1e-12)
    assert abs(lam + 1.005) < 1e-3
    assert abs(lam + 1.0 + 1.0 / 200.0) <= 10.0 / 100 ** 2
    lam_big, _ = _pair(1000, scheme.gamma_c_formula_k3(1000))
    assert lam_big == pytest.approx(LAMBDA_U_1000, abs=1e-12)


def test_lambda_u_is_block_eigenvalue():
    for n, gamma in [(50, 0.008), (100, GAMMA_C_100), (300, 0.0012)]:
        lam, _ = _pair(n, gamma)
        evals = np.linalg.eigvalsh(reference.pt_block(n, gamma))
        assert np.abs(evals - lam).min() < 1e-9


def test_lambda_u_near_degenerate_with_e_r():
    """At the critical rate, lambda_u and the plain r-state energy
    -gamma(3n-9) split only at O(1/n^2)."""
    for n in (100, 1000):
        gamma = scheme.gamma_c_formula_k3(n)
        e_r = -gamma * (3.0 * n - 9.0)
        assert abs(_pair(n, gamma)[0] - e_r) <= 20.0 / n ** 2


def test_u_frozen_and_eigen_residual():
    lam, u = _pair(100, GAMMA_C_100)
    assert np.abs(u - np.array(U_100)).max() < 1e-10
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    assert u[0] > 0
    block = reference.pt_block(100, GAMMA_C_100)
    assert np.linalg.norm(block @ u - lam * u) <= 1e-8


@pytest.mark.parametrize("n", [100, 1000])
def test_u_matches_eigensolver(n):
    gamma = scheme.gamma_c_formula_k3(n)
    lam, u = _pair(n, gamma)
    evals, evecs = np.linalg.eigh(reference.pt_block(n, gamma))
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
    gamma = scheme.gamma_c_formula_k3(n)
    lam, u = _pair(n, gamma)
    block = reference.pt_block(n, gamma)
    eps = np.finfo(float).eps
    assert np.linalg.norm(block @ u - lam * u) <= 4.0 * eps * np.linalg.norm(block, 2)
    c3, c2, c1, c0 = reduced.char_cubic_coeffs(n, gamma)
    p = ((c3 * lam + c2) * lam + c1) * lam + c0
    dp = (3.0 * c3 * lam + 2.0 * c2) * lam + c1
    assert abs(p) <= 1e-13 * abs(dp)


@pytest.mark.parametrize("n", [100, 10 ** 7])
def test_pair_matches_high_precision_eigensolve(n):
    mpmath = pytest.importorskip("mpmath")
    gamma = scheme.gamma_c_formula_k3(n)
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
    # The energy gap (tests/reference.py) has no gamma rule of its own.
    with pytest.raises(ValueError, match="finite and positive"):
        reduced.perturbation_report(100, gamma)


def _signed(vectors):
    # eig_sym's sign rule on each column: its first component of magnitude
    # above SIGN_EPS is made non-negative.
    return np.column_stack([v * np.sign(v[np.abs(v) > scheme.SIGN_EPS][0])
                            for v in vectors.T])


def test_perturbation_report_pair_is_the_nearest_eigh_pair():
    # The report solves the block and the 2x2 without numpy; LAPACK's eigh on
    # the dense block and on the report's 2x2, with eig_sym's sign rule,
    # finds the same pairs off the critical rate too.  lambda_u is compared
    # in units of the block's largest entry, which reaches 1e9 here.  At
    # n = 8, gamma = 0.1, the block eigenvalue nearest the seed is not the
    # one Newton's method from the seed would reach.
    cases = [(8, 0.1)] + [(n, gamma) for n in (6, 9, 37, 100, 1000, 10**4, 10**5, 10**6)
                          for gamma in (1e-6, 1e-4, 1e-2, 1.0, 1e3)]
    for n, gamma in cases:
        report = reduced.perturbation_report(n, gamma)
        block = reference.pt_block(n, gamma)
        evals, evecs = np.linalg.eigh(block)
        index = int(np.argmin(np.abs(evals - (-1.0 - 1.0 / (2.0 * n)))))
        scale = max(1.0, np.abs(block).max())
        assert abs(report.lambda_u - evals[index]) <= 1e-12 * scale, (n, gamma)
        assert np.abs(np.array(report.u) - _signed(evecs)[:, index]).max() <= 1e-12, (n, gamma)
        alphas = _signed(np.linalg.eigh(np.array(report.effective_2x2))[1])
        assert np.abs(np.array(report.alpha_minus) - alphas[:, 0]).max() <= 1e-12, (n, gamma)
        assert np.abs(np.array(report.alpha_plus) - alphas[:, 1]).max() <= 1e-12, (n, gamma)


@pytest.mark.parametrize("n", [8 * 10**8, 10**10, 10**11, 10**12, 10**25])
def test_perturbation_report_refuses_an_unresolved_gap(n):
    # The gap is e_plus - e_minus of eigenvalues near -1 - 1/(2n); from
    # n ~ 7.5e8 on it is within 1e3 ulps of them.  Unrefused, it came out 5%
    # off the 2*sqrt(6)/n^1.5 law at 1e10, and 3.3e-16 for about 1.5e-37 at
    # 1e25.
    with pytest.raises(ValueError, match="not resolved in double precision"):
        reduced.perturbation_report(n)


@pytest.mark.parametrize("n", [2 * 10**5, 10**7, 7 * 10**8])
def test_perturbation_report_keeps_a_resolved_gap(n):
    report = reduced.perturbation_report(n)
    law = 2.0 * math.sqrt(6.0) / n ** 1.5
    assert abs(report.predicted_gap - law) / law < 0.01


def test_perturbation_report_rejects_overflowing_gamma():
    with pytest.raises(ValueError, match="finite matrix"):
        reduced.perturbation_report(100, 1e308)


def test_effective_two_level_frozen_n100():
    system = reduced.perturbation_report(100, GAMMA_C_100)
    assert np.shape(system.effective_2x2) == (2, 2)
    assert system.effective_2x2[0][1] == pytest.approx(system.effective_2x2[1][0],
                                                        abs=1e-15)
    target = math.sqrt(6.0) / 100 ** 1.5
    assert abs(abs(system.effective_2x2[0][1]) - target) / target < 0.02
    assert system.e_minus == pytest.approx(E_MINUS_100, abs=1e-12)
    assert system.e_plus == pytest.approx(E_PLUS_100, abs=1e-12)
    gap = system.e_plus - system.e_minus
    assert abs(gap - 2.0 * target) / (2.0 * target) < 0.07
    assert np.abs(system.alpha_minus - np.array(ALPHA_MINUS_100)).max() < 1e-9


def test_effective_two_level_gap_matches_exact():
    for n in (100, 1000):
        gamma = scheme.gamma_c_formula_k3(n)
        system = reduced.perturbation_report(n, gamma)
        exact = reference.energy_gap(n, 3, gamma)
        assert abs((system.e_plus - system.e_minus) - exact) / exact < 0.2


def test_effective_two_level_alphas_approach_equal_mixing():
    system = reduced.perturbation_report(1000, scheme.gamma_c_formula_k3(1000))
    assert np.abs(system.alpha_minus - np.array(ALPHA_MINUS_1000)).max() < 1e-9
    equal = 1.0 / math.sqrt(2.0)
    assert np.abs(np.abs(system.alpha_minus) - equal).max() < 0.05
    assert np.abs(np.abs(system.alpha_plus) - equal).max() < 0.05


def test_perturbation_report_consistency():
    report = reduced.perturbation_report(100)
    assert report.gamma == pytest.approx(GAMMA_C_100, abs=1e-18)
    assert report.cubic_coefficients == reduced.char_cubic_coeffs(100, report.gamma)
    assert report.lambda_u == pytest.approx(LAMBDA_U_100, abs=1e-12)
    assert np.linalg.norm(report.u) == pytest.approx(1.0, abs=1e-14)
    assert report.e_minus <= report.e_plus
    assert report.predicted_gap == pytest.approx(report.e_plus - report.e_minus,
                                                 abs=1e-18)
    assert report.predicted_runtime == pytest.approx(math.pi / report.predicted_gap,
                                                     abs=1e-12)
    # the two-level runtime lands near the exact-N peak-time prediction
    peak = scheme.predicted_peak_time(100, 3)
    assert abs(report.predicted_runtime - peak) / peak < 0.05


def test_run_verification_small_graphs():
    assert johnson.run_verification(6, 3, 0.1).max_deviation <= 1e-10
    assert johnson.run_verification(5, 2, 0.2).max_deviation <= 1e-10


def test_run_verification_zero_window():
    # A zero window draws both curves on the steps-point grid at t = 0,
    # where each is |<w|s>|^2 = 1/N up to rounding.
    result = johnson.run_verification(6, 3, 0.1, t_max=0.0)
    assert result.steps == 200
    assert result.t_max == 0.0
    assert result.max_deviation <= 1e-15


def test_run_verification_zero_window_sees_wrong_weights(monkeypatch):
    # Doubled secular weights put the reduced curve at 4/N at t = 0.  The
    # spectrum's own sum check would refuse them first, so it is skipped
    # here to show that the comparison with the full graph sees them too.
    weights = scheme.SecularSpectrum.weights
    monkeypatch.setattr(scheme.SecularSpectrum, "weights",
                        lambda self: [2.0 * w for w in weights(self)])
    monkeypatch.setattr(scheme, "_checked", lambda spectrum, k, r: spectrum)
    result = johnson.run_verification(6, 3, 0.1, t_max=0.0)
    assert result.max_deviation == pytest.approx(3.0 / 20.0, rel=1e-12)


def test_run_verification_records_window():
    result = johnson.run_verification(5, 2, 0.05, steps=40)
    assert result.t_max == pytest.approx(2.0 * math.pi * math.sqrt(10), abs=1e-12)
    assert result.steps == 40


def test_run_verification_honors_cap():
    with pytest.raises(VertexCapError):
        johnson.run_verification(30, 3, 0.01, cap=100)
    with pytest.raises(ValueError):
        johnson.run_verification(6, 3, -0.5)
    with pytest.raises(ValueError, match="finite"):
        johnson.run_verification(6, 3, math.nan)
    with pytest.raises(ValueError, match="finite"):
        johnson.run_verification(6, 3, 0.1, t_max=math.inf)


def test_run_verification_refuses_float_range_before_the_graph(monkeypatch):
    def exact_count(n, k):
        raise AssertionError(f"C({n},{k}) computed exactly")

    monkeypatch.setattr(scheme, "binomial", exact_count)
    monkeypatch.setattr(johnson, "binomial", exact_count)
    with pytest.raises(ValueError, match="float range"):
        johnson.run_verification(10**7, 10**6, 0.001)


# Every k=3 entry point with a valid jumping rate; n and gamma are swapped in
# per case.
K3_ENTRY_POINTS = {
    "gamma_c_formula_k3": lambda n, g: scheme.gamma_c_formula_k3(n),
    "naive_splitting_diagnostic": reference.naive_splitting_diagnostic,
    "char_cubic_coeffs": reduced.char_cubic_coeffs,
    "pt_block": reference.pt_block,
    "basis_change_T": lambda n, g: reduced.basis_change_T(n),
    "transformed_hamiltonian": reference.transformed_hamiltonian,
    "transformed_hamiltonian_closed": reduced.transformed_hamiltonian_closed,
    "perturbation_report": reduced.perturbation_report,
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
