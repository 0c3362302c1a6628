"""Symmetric eigensolver wrapper and spectral time evolution."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from johnsonwalk import _split, linalg, reduced


def _random_symmetric(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


@pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1), (8, 2), (33, 3), (60, 4)])
def test_eig_sym_against_lapack(dim, seed):
    """The LAPACK-backed decomposition satisfies the eigen-equation
    H V = V diag(lambda) and V^T V = I; neither check uses a second solver."""
    a = _random_symmetric(dim, seed)
    evals, evecs = linalg.eig_sym(a)
    scale = np.linalg.norm(a)
    assert np.abs(a @ evecs - evecs * evals).max() <= 1e-11 * scale
    assert np.abs(evecs.T @ evecs - np.eye(dim)).max() <= 1e-11
    assert np.abs(evecs @ np.diag(evals) @ evecs.T - a).max() <= 1e-11 * scale


def test_eig_sym_dim_200():
    a = _random_symmetric(200, 7)
    evals, evecs = linalg.eig_sym(a)
    scale = np.linalg.norm(a)
    assert np.abs(evals - np.linalg.eigvalsh(a)).max() <= 1e-11 * scale
    assert np.abs(evecs @ np.diag(evals) @ evecs.T - a).max() <= 1e-11 * scale


def test_eig_sym_ascending_and_deterministic():
    a = _random_symmetric(12, 5)
    first = linalg.eig_sym(a)
    second = linalg.eig_sym(a)
    assert np.all(np.diff(first.eigenvalues) >= 0)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_eig_sym_sign_convention():
    _, evecs = linalg.eig_sym(_random_symmetric(9, 11))
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        lead = col[np.abs(col) > linalg.SIGN_EPS][0]
        assert lead >= 0


def test_eig_sym_diagonal_input():
    evals, evecs = linalg.eig_sym(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(evals, [-1.0, 2.0, 3.0])
    assert np.abs(np.abs(evecs) - np.eye(3)[:, [1, 2, 0]]).max() == 0.0


def test_eig_sym_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        linalg.eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        linalg.eig_sym(np.zeros((3, 4)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eig_sym_rejects_non_finite(bad):
    # nan > x is False, so a symmetry test alone would let these through
    a = np.array([[1.0, bad], [bad, 2.0]])
    with pytest.raises(ValueError, match="eig_sym requires a finite matrix"):
        linalg.eig_sym(a)
    with pytest.raises(ValueError, match="finite"):
        linalg.eig_sym(np.diag([bad, 1.0]))


def test_eig_sym_handles_tiny_offdiagonal():
    a = np.array([[1.0, 1e-305], [1e-305, 2.0]])
    evals, _ = linalg.eig_sym(a)
    assert np.allclose(evals, [1.0, 2.0], atol=1e-14)


def test_returned_arrays_do_not_leak_into_later_calls():
    h = reduced.search_hamiltonian(10, 3, 0.02)
    s = reduced.initial_state(10, 3)
    expected = linalg.overlap_spectrum(h, s)
    expected_evals, expected_evecs = linalg.eig_sym(h)

    spectrum = linalg.overlap_spectrum(h, s)
    for array in spectrum:
        array[:] = 0.0
    evals, evecs = linalg.eig_sym(h.copy())
    evals[:] = 0.0
    evecs[:] = 0.0

    again = linalg.overlap_spectrum(h, s)
    for got, want in zip(again, expected):
        assert np.array_equal(got, want)
    evals, evecs = linalg.eig_sym(h)
    assert np.array_equal(evals, expected_evals)
    assert np.array_equal(evecs, expected_evecs)


def test_evolve_t_zero_is_identity():
    h = reduced.search_hamiltonian(8, 3, 0.05)
    psi0 = reduced.initial_state(8, 3)
    assert np.abs(linalg.evolve(h, psi0, 0.0) - psi0).max() < 1e-13


@given(st.floats(0.0, 50.0))
@settings(max_examples=30, deadline=None)
def test_evolve_is_unitary(t):
    h = reduced.search_hamiltonian(9, 3, 0.04)
    psi = linalg.evolve(h, reduced.initial_state(9, 3), t)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_evolve_composes():
    h = reduced.search_hamiltonian(7, 2, 0.1)
    psi0 = reduced.initial_state(7, 2)
    one_shot = linalg.evolve(h, psi0, 0.7 + 1.9)
    two_step = linalg.evolve(h, linalg.evolve(h, psi0, 0.7), 1.9)
    assert np.abs(one_shot - two_step).max() < 1e-12


def test_evolve_dimension_mismatch():
    h = reduced.search_hamiltonian(7, 2, 0.1)
    with pytest.raises(ValueError):
        linalg.evolve(h, np.ones(4), 1.0)


def test_success_curve_grid_and_consistency():
    h = reduced.search_hamiltonian(8, 3, 0.03)
    psi0 = reduced.initial_state(8, 3)
    curve = linalg.success_curve(h, psi0, 12.0, 25)
    assert curve.times.shape == (25,)
    assert curve.times[0] == 0.0
    assert curve.times[-1] == 12.0
    assert np.allclose(np.diff(curve.times), 12.0 / 24)
    for j in (0, 7, 24):
        psi = linalg.evolve(h, psi0, curve.times[j])
        assert curve.probabilities[j] == pytest.approx(abs(psi[0]) ** 2,
                                                       abs=1e-13)
    assert np.all(curve.probabilities >= 0)
    assert np.all(curve.probabilities <= 1 + 1e-12)


def test_success_curve_validates_arguments():
    h = reduced.search_hamiltonian(8, 3, 0.03)
    psi0 = reduced.initial_state(8, 3)
    with pytest.raises(ValueError):
        linalg.success_curve(h, psi0, 10.0, 1)
    with pytest.raises(ValueError):
        linalg.success_curve(h, np.ones(7), 10.0, 5)


@pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan])
def test_success_curve_rejects_non_finite_t_max(t_max):
    h = reduced.search_hamiltonian(8, 3, 0.03)
    psi0 = reduced.initial_state(8, 3)
    with pytest.raises(ValueError, match="t_max must be finite"):
        linalg.success_curve(h, psi0, t_max, 5)


def test_success_curve_rejects_phase_overflow():
    # J(2,1) at gamma = 1e308 is finite, but E * t_max is not
    h = reduced.search_hamiltonian(2, 1, 1e308)
    with pytest.raises(ValueError, match="overflow"):
        linalg.success_curve(h, reduced.initial_state(2, 1), 10.0, 5)


def test_overlap_spectrum_completeness():
    h = reduced.search_hamiltonian(12, 3, 0.02)
    spectrum = linalg.overlap_spectrum(h, reduced.initial_state(12, 3))
    assert spectrum.energies.shape == (4,)
    assert np.all(np.diff(spectrum.energies) >= 0)
    assert spectrum.overlap_s.sum() == pytest.approx(1.0, abs=1e-12)
    assert spectrum.overlap_w.sum() == pytest.approx(1.0, abs=1e-12)


def test_overlap_spectrum_small_gamma_sits_on_first_excited():
    """Far below the critical rate the uniform state is essentially the
    first excited eigenstate (the marked vertex dominates the ground one)."""
    spectrum = linalg.overlap_spectrum(reduced.search_hamiltonian(100, 3, 0.0005),
                                       reduced.initial_state(100, 3))
    assert spectrum.overlap_s[1] == pytest.approx(0.999991471103782, abs=1e-9)
    assert spectrum.overlap_w[0] > 0.999


def test_search_hamiltonian_eigensolver_matches_lapack():
    gamma = 1.0 / 300.0 + 7.0 / 60000.0
    h = reduced.search_hamiltonian(100, 3, gamma)
    evals, _ = linalg.eig_sym(h)
    assert np.abs(evals - np.linalg.eigvalsh(h)).max() < 1e-13


def _one_product_curve(h, psi0, t_max, steps):
    """The success curve as one product over the whole time grid."""
    evals, evecs = linalg.eig_sym(h)
    times = np.linspace(0.0, t_max, steps)
    weights = evecs[0] * (evecs.T @ psi0.astype(complex))
    return np.abs(weights @ np.exp(-1j * np.outer(evals, times))) ** 2


def _curve(n, k, steps):
    h = reduced.search_hamiltonian(n, k, 1.0 / (k * n))
    psi0 = reduced.initial_state(n, k)
    return h, psi0, linalg.success_curve(h, psi0, 3000.0, steps).probabilities


@pytest.mark.parametrize("n,k,steps", [(8, 3, 1000), (2000, 20, 20001)])
@pytest.mark.parametrize("block_times", [7, 1000, 20001, 1 << 20])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_success_curve_bits_do_not_depend_on_blocks(monkeypatch, n, k, steps,
                                                    block_times, workers):
    # Each time's amplitude is summed over the eigenvalues in one fixed
    # order, so splitting the grid differently, or over other threads,
    # moves no bit.
    _, _, default = _curve(n, k, steps)
    monkeypatch.setattr(linalg, "_BLOCK_TIMES", block_times)
    monkeypatch.setattr(_split, "worker_count", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, _, blocked = _curve(n, k, steps)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(blocked, default)


@pytest.mark.parametrize("n,k,steps", [(8, 3, 1000), (2000, 20, 100000)])
def test_success_curve_matches_one_product(n, k, steps):
    h, psi0, probabilities = _curve(n, k, steps)
    np.testing.assert_allclose(probabilities,
                               _one_product_curve(h, psi0, 3000.0, steps),
                               rtol=0.0, atol=1e-14)


def test_success_curve_rejects_negative_t_max():
    h = reduced.search_hamiltonian(8, 3, 0.03)
    with pytest.raises(ValueError,
                       match="t_max must be non-negative, got -3.0"):
        linalg.success_curve(h, reduced.initial_state(8, 3), -3.0, 3)


def test_eig_sym_rejects_empty_matrix():
    with pytest.raises(ValueError, match="eig_sym requires a non-empty matrix"):
        linalg.eig_sym(np.zeros((0, 0)))


@pytest.mark.parametrize("call", [
    lambda h, s: linalg.evolve(h, s, 1.0),
    lambda h, s: linalg.success_curve(h, s, 1.0, 5),
    lambda h, s: linalg.overlap_spectrum(h, s),
], ids=["evolve", "success_curve", "overlap_spectrum"])
def test_spectral_entry_points_share_input_checks(call):
    h = reduced.search_hamiltonian(7, 2, 0.1)
    with pytest.raises(ValueError, match="hamiltonian/state dimension mismatch"):
        call(h, np.ones(4))
    with pytest.raises(ValueError, match="hamiltonian/state dimension mismatch"):
        call(h[0], np.ones(3))
