"""The Johnson scheme's spectrum, the exact critical rate S_1, and the
secular search for the overlap-balance point."""

import math
import sys
from fractions import Fraction

import pytest

import reference
from johnsonwalk import scheme

# S_1 to 17 significant digits, from exact fractions, and the balance point
# to 23, from a 90-digit mpmath bisection of the same balance.  The
# distance-basis eigensolver search agreed to within one ulp (at J(1000,3) it
# gave 0.00033450483246980664, one ulp high).
S1_TABLE = [
    (50, 2, "0.01058758850478967", "0.010578153050456819706"),
    (100, 3, "0.0034548436289491154", "0.0034548217384417626985"),
    (1000, 3, "0.00033450483448678036", "0.00033450483246980656701"),
    (100, 5, "0.0021109465006614839", "0.0021109464723912188682"),
    (200, 10, "0.00052662603364273062", "0.00052662603364273062612"),
    (150, 20, "0.00038477258001545333", "0.00038477258001545332172"),
]


def _last_eta(monkeypatch, n, k):
    """gamma_c_numeric(n, k) and the eta of its last balance evaluation."""
    calls = reference.record_balances(monkeypatch)
    return scheme.gamma_c_numeric(n, k), calls[-1].eta


@pytest.mark.parametrize("n,k", [(4, 1), (6, 3), (9, 4), (50, 2), (40, 20)])
def test_scheme_spectrum_is_the_johnson_scheme(n, k):
    theta, mult = scheme.scheme_spectrum(n, k)
    assert theta[0] == k * (n - k)  # the degree
    assert sum(mult) == math.comb(n, k)
    # trace(A) = 0 and trace(A^2) = N * degree
    assert sum(m * t for t, m in zip(theta, mult)) == 0
    assert sum(m * t * t for t, m in zip(theta, mult)) == math.comb(n, k) * k * (n - k)
    assert theta == sorted(theta, reverse=True)


def test_top_pole_is_at_most_the_vertex_count():
    # The rate rule forms float(k(n-k+1)) once N = C(n,k) is known to be a
    # float, so D_k <= N keeps it one: equal on K_n and on J(4,2), below on
    # every other graph.  At the largest gamma the rule then refuses with
    # its one message, not with the OverflowError of an int too large.
    graphs = [(n, k) for n in range(2, 400) for k in range(1, n // 2 + 1)]
    for n, k in graphs + [(1029, 514), (10**300, 1)]:
        top, count = k * (n - k + 1), math.comb(n, k)
        assert top <= count, (n, k)
        assert (top == count) == (k == 1 or (n, k) == (4, 2)), (n, k)
    for n, k in [(1029, 514), (10**300, 1)]:
        with pytest.raises(ValueError, match=r"overflows the J\(.*\) Hamiltonian$"):
            scheme._check_model(n, k, sys.float_info.max)


@pytest.mark.parametrize("n,k,s1,gamma_c", S1_TABLE)
def test_critical_rate_and_balance_point_match_the_table(n, k, s1, gamma_c):
    rate = scheme.critical_rate(n, k)
    assert isinstance(rate, Fraction)
    assert float(rate) == float(s1)
    # Correctly rounded here; a libm whose log differs in the last bit may
    # move the balance by a fraction of an ulp.
    reference = float(gamma_c)
    assert abs(scheme.gamma_c_numeric(n, k).gamma - reference) <= math.ulp(reference)


def test_critical_rate_expansion():
    # 1/(kn) + (k^2-k+1)/(k(k-1)n^2) + O(n^-3); at k = 3 the n^-3 term is 29/6
    n = 10 ** 6
    for k in (2, 3, 5, 8):
        leading = Fraction(1, k * n) + Fraction(k * k - k + 1, k * (k - 1) * n * n)
        assert abs(scheme.critical_rate(n, k) - leading) * n ** 3 < 10 * k
    third = (scheme.critical_rate(n, 3) - Fraction(1, 3 * n) - Fraction(7, 6 * n * n)) * n ** 3
    assert abs(third - Fraction(29, 6)) < 1e-4


def _pole_balances(n, k):
    """B_o = sum_{j != o} m_j / (N (D_j - D_o)) for every pole o, exactly."""
    theta, mult = scheme.scheme_spectrum(n, k)
    count, d = sum(mult), [theta[0] - t for t in theta]
    return [sum(Fraction(m, dj - do) for m, dj in zip(mult, d) if dj != do) / count
            for do in d]


@pytest.mark.parametrize("n,k", [
    (100, 3), (2000, 20), (200, 100), (85, 37), (1029, 514), (10**7, 4), (10**150, 2),
], ids=["100-3", "2000-20", "200-100", "85-37", "1029-514", "1e7-4", "1e150-2"])
def test_every_pole_balance_is_its_pair(n, k):
    # hi + lo holds B_o to 2^-104 relative, or to half the least subnormal
    # where lo is subnormal (pole 2 of J(1e150,2), where B_2 = -2e-300).
    # hi is B_o rounded on these graphs because none of their B_o lies
    # within 2^-110 of a rounding midpoint; the integer route rounds a sum
    # that close to B_o, so elsewhere hi may be one unit off.  J(85,37)'s
    # pole 36 cancels the most of any graph with n <= 120, 13 bits; B_0 is S_1.
    balances = scheme._scheme(n, k).balances
    exact = _pole_balances(n, k)
    assert len(balances) == k + 1 and exact[0] == scheme.critical_rate(n, k)
    for o, ((hi, lo), b) in enumerate(zip(balances, exact)):
        assert hi == float(b), o
        bound = max(abs(b) / 2 ** 104, Fraction(1, 2 ** 1075))
        assert abs(Fraction(hi) + Fraction(lo) - b) <= bound, o


def test_a_balance_that_cancels_is_summed_exactly():
    # Scaled by 2^0, J(100,3)'s floored terms sum to below (k+1) 2^110 at
    # every pole, so each pair comes from Fractions, and is the same pair.
    # A balance that cancels to exactly 0 is (0, 0).
    theta, mult = scheme.scheme_spectrum(100, 3)
    count, d = sum(mult), [theta[0] - t for t in theta]
    for o, do in enumerate(d):
        assert abs(sum(m // (dj - do) for m, dj in zip(mult, d) if dj != do)) < 4 << 110
        assert scheme._balance_pair(mult, mult, 0, d, count, o) == scheme._scheme(100, 3).balances[o]
    assert scheme._balance_pair([1, 5, 1], [1, 5, 1], 0, [0, 1, 2], 7, 1) == (0.0, 0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 16, 100, 236, 1001])
def test_complete_graph_balances_at_minus_one_over_n_minus_one(monkeypatch, n):
    # On K_n the balance point is gamma = (n-2)/n^2, eta* = -1/(n-1) exactly;
    # K_3 sits at eta* = -1/2, the midpoint of the bracket (-1, 0).
    result, eta = _last_eta(monkeypatch, n, 1)
    assert abs(eta + 1.0 / (n - 1)) <= sys.float_info.epsilon
    exact = (n - 2) / n ** 2
    assert abs(result.gamma - exact) <= 2 * math.ulp(exact)
    assert abs(result.residual) <= 1e-14


def test_complete_graphs_up_to_399_balance_at_minus_one_over_n_minus_one(monkeypatch):
    # The three bounds above for every K_n, n = 3 .. 399, through one
    # recording of the balance.  Measured: K_4's last eta is eps from -1/3,
    # on the bound, and every gamma within 1.5 ulps of (n-2)/n^2.
    calls = reference.record_balances(monkeypatch)
    for n in range(3, 400):
        result = scheme.gamma_c_numeric(n, 1)
        assert abs(calls[-1].eta + 1.0 / (n - 1)) <= sys.float_info.epsilon, n
        exact = (n - 2) / n ** 2
        assert abs(result.gamma - exact) <= 2 * math.ulp(exact), n
        assert abs(result.residual) <= 1e-14, n


@pytest.mark.parametrize("n,k", [
    (100, 3), (2000, 20), (150000, 3), (40, 20), (16, 1), (9, 4)])
def test_balance_is_the_spectrum_it_balances(monkeypatch, n, k):
    # The search's bracket is (-1, 0), so the balance is taken far from eta*
    # too, up to S_1 itself.  At every eta it is the spectrum at S_1 (1 + eta):
    # the residual its overlap_s[0] - overlap_s[1] (measured: within 2 eps),
    # and log(q_1/q_0) the log-ratio of q_i = (1 - overlap_s[i]) / overlap_s[i]
    # (within 4 eps).
    calls = reference.record_balances(monkeypatch)
    scheme.gamma_c_numeric(n, k)
    rate, eps = scheme.critical_rate(n, k), sys.float_info.epsilon
    args = calls[-1].args
    for eta in (-0.3, -1e-3, -1.0 / math.comb(n, k), 0.0):
        log_ratio, residual = scheme._balance(eta, *args)
        overlaps = scheme.secular_spectrum(n, k, rate * (1 + Fraction(eta))).overlap_s
        assert abs(residual - (overlaps[0] - overlaps[1])) <= 4.0 * eps, eta
        q = [math.fsum(overlaps[:i] + overlaps[i + 1:]) / overlaps[i] for i in (0, 1)]
        expected = math.log(q[1]) - math.log(q[0])
        assert abs(log_ratio - expected) <= 16.0 * eps * max(1.0, abs(expected)), eta


@pytest.mark.parametrize("k,n_small,n_large", [
    (2, 200, 20000), (3, 300, 3000), (4, 100, 1000), (5, 100, 500),
    (6, 60, 200), (7, 70, 150), (8, 80, 110)])
def test_balance_point_approaches_s1_times_one_minus_one_over_n(k, n_small, n_large):
    # (gamma_c/S_1 - 1) N -> -1: the 1/N shift of Childs & Goldstone's rate.
    # N stays below 1e12, so the double gamma_c still resolves the shift.
    def shift(n):
        gamma = scheme.gamma_c_numeric(n, k).gamma
        return float((Fraction(gamma) / scheme.critical_rate(n, k) - 1) * math.comb(n, k))

    small, large = shift(n_small), shift(n_large)
    assert abs(large + 1.0) < abs(small + 1.0)
    assert abs(large + 1.0) <= 8.0 / n_large


@pytest.mark.parametrize("n,k", [(15_000_000, 3), (2000, 10), (2000, 20), (600, 16)])
def test_balance_resolved_at_large_n(n, k):
    # The distance-basis eigensolver leaves 1.6e-6 at J(1.5e7,3), 1.2e-4 at
    # J(2000,10) and -1.0 at J(2000,20); in eta the balance is resolved.
    result = scheme.gamma_c_numeric(n, k)
    assert abs(result.residual) <= 1e-14
    shift = result.gamma / float(scheme.critical_rate(n, k)) - 1.0
    assert abs(shift) <= 4.0 / math.comb(n, k) + 1e-15


def _midpoint_rate(n, k):
    """H = (1/N) sum_j m_j / (D_j - D_1/2), exactly: below it the secular
    function is negative halfway from pole 0 to pole 1."""
    theta, mult = scheme.scheme_spectrum(n, k)
    half = Fraction(theta[0] - theta[1], 2)
    return sum(Fraction(m, 1) / (theta[0] - t - half)
               for t, m in zip(theta, mult)) / sum(mult)


def test_midpoint_rate_is_above_s1_except_on_k3():
    # H - S_1 = (n-3)/(nN) + (1/N) sum_{j>=2} m_j (D_1/2)/(D_j (D_j - D_1/2)),
    # so below S_1 root 1 lies in the lower half of its gap, as ``_balance``
    # brackets it; equality holds only on K_3.
    for n in range(3, 80):
        for k in range(1, n // 2 + 1):
            theta, mult = scheme.scheme_spectrum(n, k)
            count = sum(mult)
            d = [theta[0] - t for t in theta]
            excess = _midpoint_rate(n, k) - scheme.critical_rate(n, k)
            assert excess == Fraction(n - 3, n * count) + sum(
                Fraction(m * n, dj * (2 * dj - n))
                for dj, m in zip(d[2:], mult[2:])) / Fraction(count), (n, k)
            assert excess == 0 if (n, k) == (3, 1) else excess > 0, (n, k)


def test_s1_leans_toward_the_lowest_eigenstate():
    # At S_1 the two roots beside pole 0 have q_0 < 1 < q_1, so |s> lies
    # more on the lowest eigenstate and the balance point is below S_1:
    # in the spectrum at the exact rate, and in the search's own balance
    # at eta = 0.
    graphs = 0
    for n in range(3, 80):
        for k in range(1, n // 2 + 1):
            if math.comb(n, k) >= 1e20:
                continue
            graphs += 1
            overlaps = scheme.secular_spectrum(
                n, k, scheme.critical_rate(n, k)).overlap_s
            assert overlaps[0] > 0.5 > overlaps[1], (n, k)
            _, d, _, _, z2, _, rate = scheme._graph(n, k)
            log_ratio, residual = scheme._balance(0.0, float(rate), d, z2)
            assert log_ratio > 0.0 and residual > 0.0, (n, k)
    assert graphs == 1453


def test_balance_search_evaluates_only_below_s1(monkeypatch):
    # The bracket closes at eta = 0: no balance is taken at or above S_1.
    calls = reference.record_balances(monkeypatch)
    graphs = [(n, k) for n in range(3, 60) for k in range(1, n // 2 + 1)]
    graphs += [(2000, 20), (150000, 3), (10 ** 7, 8), (1029, 514), (10 ** 300, 1)]
    for n, k in graphs:
        calls.clear()
        scheme.gamma_c_numeric(n, k)
        etas = [call.eta for call in calls]
        assert etas and all(-1.0 < eta < 0.0 for eta in etas), (n, k, etas)


def test_balance_search_builds_no_spectrum_table():
    # The search needs theta, the multiplicities and S_1 only.  The table of
    # secular_spectrum holds (k+1)^2 pole rows: through it, this search took
    # 0.22 s and 61 MiB of peak RSS in place of 0.01 s and 15 MiB.
    scheme._scheme.cache_clear()
    scheme.gamma_c_numeric(1029, 514)
    info = scheme._scheme.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_two_vertices_have_no_balance_point():
    # J(2,1) = K_2 balances only at gamma = 0 (eta = -1).
    with pytest.raises(scheme.SearchBracketError, match="no sign change"):
        scheme.gamma_c_numeric(2, 1)


def _scripted_search(monkeypatch, balances):
    """gamma_c_numeric(100, 3) with ``_balance`` returning balances[i] at its
    i-th call, and the etas of those calls."""
    etas = []

    def scripted(eta, *args):
        etas.append(eta)
        return balances[len(etas) - 1]

    monkeypatch.setattr(scheme, "_balance", scripted)
    return scheme.gamma_c_numeric(100, 3), etas


@pytest.mark.parametrize("second,toward", [
    (1.0, -1.0), (-1.0, 0.0), (2.0, -1.0), (-2.0, 0.0)],
    ids=["equal-above", "equal-below", "secant-out-above", "secant-out-below"])
def test_balance_search_steps_back_into_its_bracket(monkeypatch, second, toward):
    # The bracket starts as (-1, 0), since the balance lies below S_1.  A
    # second balance equal to the first has no secant, and one farther from
    # zero on the same side sends the secant out of the bracket.  The third
    # eta then bisects the bracket, toward -1 when both balances are positive
    # and toward 0 when both are negative.  Below, the first step, +1.24e-3
    # from eta = -1/N, leaves the bracket too and is bisected back.
    first = math.copysign(1.0, second)
    result, etas = _scripted_search(
        monkeypatch, [(first, 0.5), (second, 0.25), (0.0, 0.125)])
    assert len(etas) == 3
    assert all(-1.0 < eta < 0.0 for eta in etas), etas
    if toward == 0.0:
        assert etas[1] == 0.5 * etas[0]
    assert etas[2] == 0.5 * (toward + etas[1])
    # The answer is still the rate at the last balance, with its residual.
    assert result.gamma == float(scheme.critical_rate(100, 3) * (1 + Fraction(etas[2])))
    assert result.residual == 0.125


def test_root_between_two_adjacent_doubles_ends_on_its_bracket():
    # The root of this falling sign function, 1 + 2^-53, lies between the
    # doubles 1 and 1 + eps: no value is zero and no correction is small, so
    # the search ends where the bracket's midpoint rounds to one of its ends.
    # The bracket halves at least every two steps, 2 * 54 steps from width 2.
    root = 1 + Fraction(1, 2 ** 53)
    calls = []

    def sign(x):
        calls.append(x)
        assert len(calls) <= 2 * 54
        f = -1.0 if Fraction(x) > root else 1.0
        return f, -f

    assert scheme._root(sign, 0.0, 2.0, 1.5) in (1.0, 1.0 + sys.float_info.epsilon)


def test_numpy_integers_are_integers():
    np = pytest.importorskip("numpy")
    assert scheme._check_reduced_params(np.int64(100), np.int32(3)) == 161700.0
    assert scheme.critical_rate(np.int64(100), np.uint8(3)) == scheme.critical_rate(100, 3)
    with pytest.raises(ValueError, match="integers"):
        scheme._check_params(np.float64(100.0), 3)
