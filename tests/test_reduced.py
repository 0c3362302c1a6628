"""Distance-basis reduction: intersection arrays, quotient Hamiltonian,
and the k=3 orthogonal basis change."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from johnsonwalk import analysis, johnson, linalg, reduced, scheme

# spectrum of the (7,3) search Hamiltonian at gamma = 0.05, from an
# independent dense eigensolver; note the positive top eigenvalue
J73_EIGS = [-1.0425043717786173, -0.564825612964788,
            -0.1783630271877726, 0.08569301193117723]


def test_intersection_array_j63():
    arr = reduced.intersection_array(6, 3)
    assert arr.c == (1, 4, 9)
    assert arr.a == (0, 4, 4, 0)
    assert arr.b == (9, 4, 1)


@given(st.integers(1, 6), st.data())
def test_intersection_array_columns_sum_to_degree(k, data):
    n = data.draw(st.integers(2 * k, 2 * k + 24))
    arr = reduced.intersection_array(n, k)
    degree = k * (n - k)
    c = (0,) + arr.c          # c_0 is not part of the array
    b = arr.b + (0,)          # b_k likewise
    for i in range(k + 1):
        assert c[i] + arr.a[i] + b[i] == degree


def test_reduced_adjacency_j63_frozen():
    expected = np.array([
        [0.0, 3.0, 0.0, 0.0],
        [3.0, 4.0, 4.0, 0.0],
        [0.0, 4.0, 4.0, 3.0],
        [0.0, 0.0, 3.0, 0.0],
    ])
    assert np.allclose(analysis.reduced_adjacency(6, 3), expected, atol=1e-14)


@given(st.integers(1, 6), st.data())
@settings(max_examples=40)
def test_offdiagonal_squares(k, data):
    """Quotient symmetrization: off-diagonal^2 = b_i * c_{i+1}."""
    n = data.draw(st.integers(2 * k, 2 * k + 24))
    adj = analysis.reduced_adjacency(n, k)
    arr = reduced.intersection_array(n, k)
    for i in range(k):
        # arr.c starts at c_1, so index i holds c_{i+1}
        assert adj[i, i + 1] ** 2 == pytest.approx(arr.b[i] * arr.c[i],
                                                   rel=1e-12)


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (8, 4), (10, 2)])
def test_reduced_adjacency_is_equitable_quotient(n, k):
    """Collapsing the brute-force adjacency onto normalized class
    indicators must reproduce the reduced matrix exactly."""
    graph = reference.full_adjacency(n, k)
    classes = reference.distance_classes(graph)
    s = np.zeros((graph.n_vertices, k + 1))
    for i, members in enumerate(classes):
        s[members, i] = 1.0 / math.sqrt(len(members))
    quotient = s.T @ graph.adjacency @ s
    assert np.abs(quotient - analysis.reduced_adjacency(n, k)).max() < 1e-12


def test_search_hamiltonian_structure():
    h = analysis.search_hamiltonian(6, 3, 0.25)
    assert h.shape == (4, 4)
    assert np.array_equal(h, h.T)
    assert h[0, 0] == -1.0   # a_0 = 0, so only the oracle term survives
    assert np.allclose(h + 0.25 * analysis.reduced_adjacency(6, 3)
                       + np.diag([1.0, 0, 0, 0]), 0.0, atol=1e-15)


def test_search_hamiltonian_gamma_zero_is_oracle_only():
    h = analysis.search_hamiltonian(6, 3, 0.0)
    assert np.array_equal(h, np.diag([-1.0, 0.0, 0.0, 0.0]))


def test_search_hamiltonian_rejects_negative_gamma():
    with pytest.raises(ValueError):
        analysis.search_hamiltonian(6, 3, -0.1)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_search_hamiltonian_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="finite"):
        analysis.search_hamiltonian(6, 3, gamma)


def test_search_hamiltonian_rejects_overflowing_gamma():
    with pytest.raises(ValueError, match="overflows"):
        analysis.search_hamiltonian(7, 3, 1e308)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0])
def test_transformed_hamiltonian_closed_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="finite and positive"):
        reduced.transformed_hamiltonian_closed(100, gamma)


def test_k3_basis_change_rejects_vertex_count_beyond_float():
    # C(1e200, 3) overflows a float, and so would n * n inside the formulas
    with pytest.raises(ValueError, match="float range"):
        reduced.basis_change_T(10**200)
    with pytest.raises(ValueError, match="float range"):
        reduced.transformed_hamiltonian_closed(10**200, 0.1)


def test_initial_state_rejects_vertex_count_beyond_float():
    # C(3000, 500) ~ 1e585 and C(1100, 500) ~ 1e327 overflow; C(1000, 500) ~ 1e299 fits
    with pytest.raises(ValueError, match="float range"):
        analysis.initial_state(3000, 500)
    with pytest.raises(ValueError, match="float range"):
        analysis.initial_state(1100, 500)
    s = analysis.initial_state(1000, 500)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


def test_float_range_refusal_skips_the_exact_count(monkeypatch):
    def exact_count(n, k):
        raise AssertionError(f"C({n},{k}) computed exactly")

    monkeypatch.setattr(scheme, "binomial", exact_count)
    with pytest.raises(ValueError, match="float range"):
        reduced._check_reduced_params(10**7, 10**6)


def test_float_range_border():
    # C(1029, 514) ~ 1.2e308 is the largest central binomial below the
    # float maximum; C(1030, 515) ~ 2.4e308 is past it
    assert reduced._check_reduced_params(1029, 514) == float(math.comb(1029, 514))
    with pytest.raises(ValueError, match="float range"):
        reduced._check_reduced_params(1030, 515)


def test_initial_state_j63():
    s = analysis.initial_state(6, 3)
    assert np.allclose(s, np.sqrt([1, 9, 9, 1]) / math.sqrt(20), atol=1e-15)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-14)


@given(st.integers(1, 6), st.data())
def test_initial_state_normalized(k, data):
    n = data.draw(st.integers(2 * k, 2 * k + 24))
    s = analysis.initial_state(n, k)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
    assert np.all(s > 0)


def test_search_spectrum_j73_frozen():
    """Spectrum at (7,3), gamma=0.05; the top eigenvalue is positive."""
    evals, _ = linalg.eig_sym(analysis.search_hamiltonian(7, 3, 0.05))
    assert np.abs(evals - np.array(J73_EIGS)).max() < 1e-12
    assert evals[-1] > 0


@pytest.mark.parametrize("n", [6, 10, 100, 1000])
def test_basis_change_orthogonal(n):
    t = np.array(reduced.basis_change_T(n))
    assert np.abs(t.T @ t - np.eye(4)).max() < 1e-14
    # first column is the marked distance-0 state itself
    assert np.array_equal(t[:, 0], [1.0, 0.0, 0.0, 0.0])


def test_basis_change_r_column_is_rest_superposition():
    """The r column must be the normalized uniform state over the
    161699 unmarked vertices of J(100,3), written in class coordinates."""
    sizes = johnson.class_sizes(100, 3)
    rest = np.array([0.0] + [math.sqrt(d) for d in sizes[1:]])
    rest /= math.sqrt(sum(sizes) - 1)
    assert np.abs(np.array(reduced.basis_change_T(100))[:, 1] - rest).max() < 1e-14


def test_basis_change_requires_n_at_least_6():
    with pytest.raises(ValueError):
        reduced.basis_change_T(5)


@pytest.mark.parametrize("n", [6, 10, 100, 1000])
def test_transformed_hamiltonian_closed_form(n):
    gamma = 1.0 / (3.0 * n) + 7.0 / (6.0 * n * n)
    numeric = reference.transformed_hamiltonian(n, gamma)
    closed = np.array(reduced.transformed_hamiltonian_closed(n, gamma))
    assert np.abs(numeric - closed).max() < 1e-12
    # the (d0, r') and (r, r') couplings vanish identically
    assert closed[0, 2] == 0.0
    assert closed[1, 2] == 0.0


def test_transformed_hamiltonian_same_spectrum():
    gamma = 0.01
    original = analysis.search_hamiltonian(20, 3, gamma)
    transformed = reference.transformed_hamiltonian(20, gamma)
    assert np.allclose(np.sort(np.linalg.eigvalsh(original)),
                       np.sort(np.linalg.eigvalsh(transformed)), atol=1e-12)


def test_transformed_hamiltonian_closed_rejects_bad_params():
    with pytest.raises(ValueError):
        reduced.transformed_hamiltonian_closed(5, 0.01)
    with pytest.raises(ValueError):
        reduced.transformed_hamiltonian_closed(10, 0.0)


def test_reduced_params_validation():
    with pytest.raises(ValueError):
        analysis.reduced_adjacency(5, 3)   # needs n >= 2k
    with pytest.raises(ValueError):
        analysis.initial_state(6, 0)
