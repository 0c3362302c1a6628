"""Acceptance suite: one test per headline requirement, each printing a
single PASS/FAIL line (visible with pytest -v via the test outcome, and in
captured output on failure)."""

import math
import time

import numpy as np
import pytest

from johnsonwalk import analysis, johnson, linalg, reduced


def _report(index, name, passed, detail):
    print(f"ACCEPTANCE {index} ({name}): {'PASS' if passed else 'FAIL'} -- {detail}")


def test_criterion_1_peak_curve_n100():
    """n=100, k=3, gamma=0.003455: peak >= 0.99 near t = 631.65."""
    start = time.perf_counter()
    curve = linalg.success_curve(reduced.search_hamiltonian(100, 3, 0.003455),
                                 reduced.initial_state(100, 3), 700.0, 2801)
    elapsed = time.perf_counter() - start
    peak = float(curve.probabilities.max())
    t_peak = float(curve.times[int(np.argmax(curve.probabilities))])
    passed = peak >= 0.99 and abs(t_peak - 631.65) <= 5.0 and elapsed < 1.0
    _report(1, "n=100 success curve", passed,
            f"peak={peak:.6f} at t={t_peak:.2f} in {elapsed * 1e3:.1f} ms")
    assert peak >= 0.99
    assert abs(t_peak - 631.65) <= 5.0
    assert elapsed < 1.0


def test_criterion_2_peak_curve_n1000():
    """n=1000, k=3, formula gamma: probability >= 0.99 at t in 20248.5 +- 50."""
    gamma = 1.0 / 3000.0 + 7.0 / 6.0e6
    start = time.perf_counter()
    h = reduced.search_hamiltonian(1000, 3, gamma)
    t_max = 1.5 * analysis.predicted_peak_time(1000, 3)
    curve = linalg.success_curve(h, reduced.initial_state(1000, 3), t_max, 4001)
    elapsed = time.perf_counter() - start
    window = np.abs(curve.times - 20248.5) <= 50.0
    window_max = float(curve.probabilities[window].max())
    global_max = float(curve.probabilities.max())
    passed = window_max >= 0.99 and global_max >= 0.99 and elapsed < 1.0
    _report(2, "n=1000 success curve", passed,
            f"window max={window_max:.6f}, global max={global_max:.6f} "
            f"in {elapsed * 1e3:.1f} ms")
    assert window.any()
    assert window_max >= 0.99
    assert global_max >= 0.99
    assert elapsed < 1.0


def test_criterion_3_full_vs_reduced():
    """Brute-force and reduced curves agree to 1e-10 on five graphs."""
    start = time.perf_counter()
    worst = 0.0
    for n, k in [(5, 2), (6, 2), (6, 3), (7, 3), (8, 4)]:
        for gamma in (0.5 / (k * n), 1.0 / (k * n), 2.0 / (k * n)):
            result = analysis.run_verification(n, k, gamma)
            worst = max(worst, result.max_deviation)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and elapsed < 30.0
    _report(3, "oracle equivalence", passed,
            f"worst deviation {worst:.3e} in {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_4_critical_gamma_consistency():
    """Numeric search vs closed form: within 20/n^3, and the n=100
    discrepancy lands between 1e-6 and 1e-5."""
    start = time.perf_counter()
    diffs = {}
    for n in (50, 100, 200, 500):
        numeric = analysis.gamma_c_numeric(n, 3).gamma
        formula = analysis.gamma_c_formula_k3(n).gamma
        diffs[n] = abs(numeric - formula)
    elapsed = time.perf_counter() - start
    within = all(diffs[n] <= 20.0 / n ** 3 for n in diffs)
    band = 1e-6 <= diffs[100] <= 1e-5
    passed = within and band and elapsed < 10.0
    detail = ", ".join(f"n={n}: {diffs[n]:.3e}" for n in diffs)
    _report(4, "critical-gamma consistency", passed,
            f"{detail} in {elapsed:.2f} s")
    for n in diffs:
        assert diffs[n] <= 20.0 / n ** 3
    assert band
    assert elapsed < 10.0


def test_criterion_5_gap_law():
    """At the numeric critical rate the gap obeys dE = 2/sqrt(N) to 10%."""
    devs = {}
    for n in (100, 300, 1000):
        gamma = analysis.gamma_c_numeric(n, 3).gamma
        gap = analysis.energy_gap(n, 3, gamma)
        devs[n] = abs(gap * math.sqrt(johnson.binomial(n, 3)) / 2.0 - 1.0)
    passed = all(dev <= 0.1 for dev in devs.values())
    _report(5, "gap law", passed,
            ", ".join(f"n={n}: |dE*sqrt(N)/2-1|={dev:.4f}"
                      for n, dev in devs.items()))
    for n, dev in devs.items():
        assert dev <= 0.1


def test_criterion_6_perturbation_report():
    """Two-level off-diagonal and gap within 25% of the sqrt(6)/n^1.5
    laws; lambda_u within 10/n^2 of -1 - 1/(2n)."""
    details = []
    passed = True
    for n in (100, 1000):
        gamma = analysis.gamma_c_formula_k3(n).gamma
        system = analysis.effective_two_level(n, gamma)
        target = math.sqrt(6.0) / n ** 1.5
        off_rel = abs(abs(system.matrix[0, 1]) - target) / target
        gap_rel = abs((system.e_plus - system.e_minus) - 2 * target) / (2 * target)
        lam_dev = abs(system.lambda_u + 1.0 + 1.0 / (2.0 * n))
        details.append(f"n={n}: off {off_rel:.3f}, gap {gap_rel:.3f}, "
                       f"lambda_u dev {lam_dev:.2e}")
        passed = passed and off_rel <= 0.25 and gap_rel <= 0.25
        passed = passed and lam_dev <= 10.0 / n ** 2
    _report(6, "perturbation report", passed, "; ".join(details))
    for n in (100, 1000):
        gamma = analysis.gamma_c_formula_k3(n).gamma
        system = analysis.effective_two_level(n, gamma)
        target = math.sqrt(6.0) / n ** 1.5
        assert abs(abs(system.matrix[0, 1]) - target) / target <= 0.25
        assert abs((system.e_plus - system.e_minus) - 2 * target) / (2 * target) <= 0.25
        assert abs(system.lambda_u + 1.0 + 1.0 / (2.0 * n)) <= 10.0 / n ** 2


def test_criterion_7_structural_identities():
    """Intersection-array sums, basis orthogonality, closed-form H',
    cubic coefficients, and the d0-d3 gap."""
    sums_ok = True
    for k in range(2, 7):
        for n in range(2 * k, 41):
            arr = reduced.intersection_array(n, k)
            c = (0,) + arr.c
            b = arr.b + (0,)
            for i in range(k + 1):
                sums_ok = sums_ok and (c[i] + arr.a[i] + b[i] == k * (n - k))

    basis_ok = True
    for n in (6, 10, 100, 1000):
        gamma = analysis.gamma_c_formula_k3(n).gamma
        t = reduced.basis_change_T(n)
        basis_ok = basis_ok and np.abs(t.T @ t - np.eye(4)).max() <= 1e-12
        diff = np.abs(reduced.transformed_hamiltonian(n, gamma)
                      - reduced.transformed_hamiltonian_closed(n, gamma)).max()
        basis_ok = basis_ok and diff <= 1e-12

    rng = np.random.default_rng(2024)
    cubic_worst = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 2000))
        gamma = float(rng.uniform(0.2 / (3 * n), 3.0 / (3 * n)))
        monic = np.poly(analysis.pt_block(n, gamma))
        c3, c2, c1, c0 = analysis.char_cubic_coeffs(n, gamma)
        mine = np.array([1.0, -c2, -c1, -c0])
        rel = np.abs((mine - monic) / np.maximum(1e-30, np.abs(monic))).max()
        cubic_worst = max(cubic_worst, float(rel))

    coupling = analysis.naive_splitting_diagnostic(100, 0.003).d0_d3_coupling
    passed = sums_ok and basis_ok and cubic_worst <= 1e-9 and coupling == 0.0
    _report(7, "structural identities", passed,
            f"sums {'ok' if sums_ok else 'BAD'}, basis {'ok' if basis_ok else 'BAD'}, "
            f"cubic worst rel {cubic_worst:.2e}, d0-d3 coupling {coupling}")
    assert sums_ok
    assert basis_ok
    assert cubic_worst <= 1e-9
    assert coupling == 0.0


def _diameter(adjacency):
    n = adjacency.shape[0]
    neighbors = adjacency.astype(bool)
    worst = 0
    for source in range(n):
        dist = np.full(n, -1)
        dist[source] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[source] = True
        d = 0
        while frontier.any():
            d += 1
            nxt = neighbors[frontier].any(axis=0) & (dist < 0)
            dist[nxt] = d
            frontier = nxt
        assert np.all(dist >= 0), "graph is disconnected"
        worst = max(worst, int(dist.max()))
    return worst


def test_criterion_8_diameter():
    """Brute-force J(n,3) has diameter exactly 3 for 6 <= n <= 10."""
    diameters = {n: _diameter(johnson.full_adjacency(n, 3).adjacency)
                 for n in range(6, 11)}
    passed = all(d == 3 for d in diameters.values())
    _report(8, "diameter", passed,
            ", ".join(f"J({n},3)={d}" for n, d in diameters.items()))
    for n, d in diameters.items():
        assert d == 3
