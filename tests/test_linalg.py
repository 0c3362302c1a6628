"""Symmetric eigensolver wrapper and the success curve."""

import math

import numpy as np
import pytest

import reference
from johnsonwalk import analysis, linalg, scheme


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
    assert np.all(np.diff(first[0]) >= 0)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_eig_sym_sign_convention():
    _, evecs = linalg.eig_sym(_random_symmetric(9, 11))
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        lead = col[np.abs(col) > scheme.SIGN_EPS][0]
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
    spectrum = scheme.secular_spectrum(10, 3, 0.02)
    h = analysis.search_hamiltonian(10, 3, 0.02)
    expected = linalg.secular_curve(spectrum, 50.0, 7)
    expected_evals, expected_evecs = linalg.eig_sym(h)

    curve = linalg.secular_curve(spectrum, 50.0, 7)
    for array in curve:
        array[:] = 0.0
    evals, evecs = linalg.eig_sym(h.copy())
    evals[:] = 0.0
    evecs[:] = 0.0

    again = linalg.secular_curve(spectrum, 50.0, 7)
    for got, want in zip(again, expected):
        assert np.array_equal(got, want)
    evals, evecs = linalg.eig_sym(h)
    assert np.array_equal(evals, expected_evals)
    assert np.array_equal(evecs, expected_evecs)


@pytest.mark.parametrize("n,k,gamma,steps", [
    (8, 3, 0.03, 2001), (100, 3, 0.00345, 2001), (100, 3, None, 2001),
    (20, 10, None, 2001), (100, 3, 0.00345, 40001), (100, 3, None, 40001),
    (8, 3, 0.03, 2), (8, 3, 0.03, 4095), (8, 3, 0.03, 4096), (8, 3, 0.03, 4097),
    (8, 3, 0.03, 8193),
], ids=["8-3", "100-3", "100-3-s1", "20-10-s1", "100-3-anchors", "100-3-s1-anchors",
        "8-3-2", "8-3-4095", "8-3-4096", "8-3-4097", "8-3-8193"])
def test_secular_curve_matches_the_distance_basis(n, k, gamma, steps):
    # The same curve from the secular roots, with no matrix, as from one
    # dense product (measured: at most 2.5e-13 apart, at J(100,3) and
    # gamma = 0.00345); None is S_1.  40001 times are ten anchors of 4096,
    # and the J(8,3) grids end on an anchor or one time past one.
    if gamma is None:
        gamma = scheme.critical_rate(n, k)
    t_max = 1.5 * scheme.predicted_peak_time(n, k)
    ours = linalg.secular_curve(scheme.secular_spectrum(n, k, gamma), t_max, steps)
    dense = reference.dense_curve(analysis.search_hamiltonian(n, k, float(gamma)),
                                  analysis.initial_state(n, k), t_max, steps)
    assert np.array_equal(ours.times, dense.times)
    assert np.abs(ours.probabilities - dense.probabilities).max() <= 1e-12


@pytest.mark.parametrize("gamma,t_max,message", [
    (0.03, math.nan, "t_max must be finite"),
    (0.03, math.inf, "t_max must be finite"),
    (0.03, -math.inf, "t_max must be finite"),
    (0.03, -3.0, "t_max must be non-negative"),
    (1e308, 10.0, "overflow"),
], ids=["nan", "inf", "-inf", "negative", "phase-overflow"])
def test_secular_curve_shares_the_time_and_phase_rules(gamma, t_max, message):
    # J(2,1) at gamma = 1e308: the shift gamma * D_1 is not finite
    with pytest.raises(ValueError, match=message):
        linalg.secular_curve(scheme.secular_spectrum(2, 1, gamma), t_max, 5)


def test_overlap_spectrum_completeness():
    energies, overlap_s, overlap_w = reference.overlap_spectrum(12, 3, 0.02)
    assert energies.shape == (4,)
    assert np.all(np.diff(energies) >= 0)
    assert overlap_s.sum() == pytest.approx(1.0, abs=1e-12)
    assert overlap_w.sum() == pytest.approx(1.0, abs=1e-12)


def test_overlap_spectrum_small_gamma_sits_on_first_excited():
    """Far below the critical rate the uniform state is essentially the
    first excited eigenstate (the marked vertex dominates the ground one)."""
    _, overlap_s, overlap_w = reference.overlap_spectrum(100, 3, 0.0005)
    assert overlap_s[1] == pytest.approx(0.999991471103782, abs=1e-9)
    assert overlap_w[0] > 0.999


def test_search_hamiltonian_eigensolver_matches_lapack():
    gamma = 1.0 / 300.0 + 7.0 / 60000.0
    h = analysis.search_hamiltonian(100, 3, gamma)
    evals, _ = linalg.eig_sym(h)
    assert np.abs(evals - np.linalg.eigvalsh(h)).max() < 1e-13


def _curve(n, k, steps):
    spectrum = scheme.secular_spectrum(n, k, 1.0 / (k * n))
    return linalg.secular_curve(spectrum, 3000.0, steps).probabilities


@pytest.mark.parametrize("n,k,steps", [(8, 3, 1000), (2000, 20, 20001)])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_secular_curve_bits_do_not_depend_on_cpus(n, k, steps, cpus):
    # Each time's amplitude is summed over the roots in one fixed order from
    # anchors on the whole grid, with no BLAS call, so running on fewer CPUs
    # moves no bit.
    default = _curve(n, k, steps)
    with reference.on_cpus(cpus):
        pinned = _curve(n, k, steps)
    assert np.array_equal(pinned, default)


def test_eig_sym_rejects_empty_matrix():
    with pytest.raises(ValueError, match="eig_sym requires a non-empty matrix"):
        linalg.eig_sym(np.zeros((0, 0)))
