"""The Johnson graph's matrix-free adjacency against the dense reference,
the reference distance classes against a breadth-first search, and the
brute-force oracle against the dense success curve."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from johnsonwalk import analysis, cli, johnson, reduced, scheme
from johnsonwalk.johnson import VertexCapError


def test_binomial_small_values():
    assert johnson.binomial(5, 2) == 10
    assert johnson.binomial(100, 3) == 161700
    assert johnson.binomial(7, 0) == 1
    assert johnson.binomial(7, 7) == 1


@given(st.integers(0, 60), st.data())
def test_binomial_matches_comb(n, data):
    k = data.draw(st.integers(0, n))
    assert johnson.binomial(n, k) == math.comb(n, k)


def test_binomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        johnson.binomial(5, 6)
    with pytest.raises(ValueError):
        johnson.binomial(5, -1)
    with pytest.raises(ValueError):
        johnson.binomial(5.0, 2)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 1)])
def test_enumerate_vertices_lexicographic(n, k):
    verts = johnson.enumerate_vertices(n, k)
    assert len(verts) == math.comb(n, k)
    assert verts[0] == tuple(range(k))
    assert verts == sorted(verts)
    assert all(len(set(v)) == k for v in verts)


def _assert_product_matches_the_reference(n, k, seed=0):
    # The matrix-free A x against the dense reference's, for random x: the
    # same integer sums in another order.
    graph = johnson.incidence(n, k)
    adjacency = reference.full_adjacency(n, k).adjacency.astype(float)
    assert graph.n_faces == math.comb(n, k - 1)
    for x in np.random.default_rng(seed).standard_normal((3, len(graph.faces))):
        product = np.array(johnson.adjacency_times(graph, x.tolist()))
        assert np.abs(product - adjacency @ x).max() <= 1e-12 * k * n


def test_full_adjacency_j52():
    graph = reference.full_adjacency(5, 2)
    adj = graph.adjacency
    assert graph.n_vertices == 10
    assert adj.shape == (10, 10)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    # J(n,k) is regular of degree k(n-k)
    assert np.all(adj.sum(axis=0) == 2 * 3)
    ones = [1.0] * 10
    assert johnson.adjacency_times(johnson.incidence(5, 2), ones) == [6.0] * 10


def test_full_adjacency_rule():
    graph = reference.full_adjacency(4, 2)
    verts = graph.vertices
    i = verts.index((0, 1))
    j = verts.index((0, 2))
    disjoint = verts.index((2, 3))
    assert graph.adjacency[i, j] == 1
    assert graph.adjacency[i, disjoint] == 0
    # Column j of A through the matrix-free product
    e_j = [float(v == j) for v in range(graph.n_vertices)]
    column = johnson.adjacency_times(johnson.incidence(4, 2), e_j)
    assert column == graph.adjacency[:, j].tolist()


@pytest.mark.parametrize("n,k", [(8, 2), (9, 4), (10, 5), (12, 3)])
def test_full_adjacency_matches_the_definition(n, k):
    # Reference: two k-subsets are adjacent iff they share k-1 elements.
    graph = reference.full_adjacency(n, k)
    sets = [set(v) for v in graph.vertices]
    expected = [[len(a & b) == k - 1 for b in sets] for a in sets]
    assert np.array_equal(graph.adjacency, expected)
    _assert_product_matches_the_reference(n, k)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 10) for k in range(1, n)])
def test_adjacency_times_matches_the_dense_reference(n, k):
    _assert_product_matches_the_reference(n, k, seed=n * 10 + k)


@pytest.mark.parametrize("n", [7, johnson.DEFAULT_VERTEX_CAP])
def test_full_adjacency_k1_is_complete_graph(n):
    # J(4000,1) is the oracle at its default cap: A x = sum(x) - x.
    x = np.random.default_rng(n).standard_normal(n)
    product = np.array(johnson.adjacency_times(johnson.incidence(n, 1), x.tolist()))
    assert np.abs(product - (x.sum() - x)).max() <= 1e-12 * n
    if n == 7:
        expected = 1 - np.eye(n, dtype=np.int8)
        assert np.array_equal(reference.full_adjacency(n, 1).adjacency, expected)


def test_full_adjacency_large_k_is_complete_graph():
    # J(201,200) is K_201.  Intersection sizes reach k = 200, past int8.
    graph = reference.full_adjacency(201, 200)
    assert graph.adjacency.dtype == np.int8
    assert np.array_equal(graph.adjacency.sum(axis=1), np.full(201, 200))
    assert not graph.adjacency.diagonal().any()
    _assert_product_matches_the_reference(201, 200)


def test_vertex_cap():
    with pytest.raises(VertexCapError) as err:
        johnson.incidence(30, 3, cap=100)
    assert err.value.n_vertices == 4060
    assert err.value.cap == 100


@pytest.mark.parametrize("n,k", [(40000, 5000), (10**7, 10**6),
                                 (10**7, 10**7 - 10**6), (10**400, 3)])
def test_vertex_cap_refuses_far_past_the_cap_without_the_exact_count(
        monkeypatch, n, k):
    def exact_count(n, k):
        raise AssertionError(f"C({n},{k}) computed exactly")

    monkeypatch.setattr(scheme, "binomial", exact_count)
    with pytest.raises(VertexCapError) as err:
        johnson.incidence(n, k)
    assert err.value.n_vertices is None
    assert str(err.value) == (f"J({n},{k}) has far more vertices than the "
                              "configured cap 4000; raise the cap to force "
                              "brute-force construction")


@pytest.mark.parametrize("n,k,cap,text", [
    (30, 3, 4000, "4060 vertices, above the configured cap 4000"),
    (30, 27, 4000, "4060 vertices, above the configured cap 4000"),
    (100, 50, 4000, "about 2^96 vertices, above the configured cap 4000"),
    (300, 6, 0, "962822846700 vertices, above the configured cap 0"),
])
def test_vertex_cap_reports_a_near_count(n, k, cap, text):
    with pytest.raises(VertexCapError) as err:
        johnson.incidence(n, k, cap=cap)
    assert err.value.n_vertices == math.comb(n, k)
    assert str(err.value) == (f"J({n},{k}) has {text}; raise the cap to force "
                              "brute-force construction")


def _bfs_distances(adjacency, source):
    n = adjacency.shape[0]
    dist = np.full(n, -1)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in np.nonzero(adjacency[v])[0]:
                if dist[u] < 0:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (7, 2), (8, 4)])
def test_distance_classes_match_bfs(n, k):
    graph = reference.full_adjacency(n, k)
    classes = reference.distance_classes(graph, w=0)
    assert len(classes) == min(k, n - k) + 1
    bfs = _bfs_distances(graph.adjacency, 0)
    for d, members in enumerate(classes):
        assert np.all(bfs[members] == d)
    # classes partition the vertex set
    assert sum(len(c) for c in classes) == graph.n_vertices


def test_distance_classes_sizes_match_formula():
    graph = reference.full_adjacency(8, 3)
    classes = reference.distance_classes(graph)
    assert [len(c) for c in classes] == johnson.class_sizes(8, 3)
    assert len(classes[0]) == 1 and classes[0][0] == 0


def test_distance_classes_other_marked_vertex():
    graph = reference.full_adjacency(6, 3)
    classes = reference.distance_classes(graph, w=7)
    assert classes[0][0] == 7
    assert [len(c) for c in classes] == [1, 9, 9, 1]
    with pytest.raises(ValueError):
        reference.distance_classes(graph, w=20)


def test_class_sizes_frozen():
    assert johnson.class_sizes(6, 3) == [1, 9, 9, 1]
    assert johnson.class_sizes(100, 3) == [1, 291, 13968, 147440]


@given(st.integers(1, 8), st.data())
def test_class_sizes_sum_to_vertex_count(k, data):
    n = data.draw(st.integers(2 * k, 2 * k + 20))
    sizes = johnson.class_sizes(n, k)
    assert len(sizes) == k + 1
    assert sum(sizes) == math.comb(n, k)


def test_class_sizes_requires_majority_complement():
    with pytest.raises(ValueError):
        johnson.class_sizes(5, 3)


def test_class_sizes_and_reduced_model_share_the_n_2k_rule():
    message = "reduced model requires n >= 2k, got n=5, k=3"
    for call in (johnson.class_sizes, analysis.initial_state,
                 reduced.intersection_array):
        with pytest.raises(ValueError, match=message):
            call(5, 3)


def test_class_sizes_and_reduced_model_share_the_float_range_rule():
    # C(1030, 515) ~ 2.4e308 is past the float maximum.
    message = re.escape("C(1030,515) vertices exceed the float range")
    for call in (johnson.class_sizes, analysis.initial_state,
                 reduced.intersection_array):
        with pytest.raises(ValueError, match=message):
            call(1030, 515)


def test_parameter_validation():
    with pytest.raises(ValueError):
        johnson.incidence(5, 0)
    with pytest.raises(ValueError):
        johnson.incidence(5, 5)
    with pytest.raises(ValueError):
        johnson.enumerate_vertices(3.5, 2)


# The graphs of acceptance criterion 3 at its three rates, and the
# benchmark's six verify graphs at the critical rate.
ORACLE_CASES = ([(n, k, factor / (k * n)) for n, k in
                 [(5, 2), (6, 2), (6, 3), (7, 3), (8, 4)] for factor in (0.5, 1.0, 2.0)]
                + [(n, k, scheme.critical_rate(n, k)) for n, k in
                   [(7, 3), (8, 3), (9, 3), (10, 3), (16, 2), (9, 4)]])


@pytest.mark.parametrize("n,k,gamma", ORACLE_CASES)
def test_lanczos_curve_matches_the_dense_curve(n, k, gamma):
    pairs, _ = johnson._krylov_curve(johnson.incidence(n, k), float(gamma))
    n_vertices = math.comb(n, k)
    t_max, steps = 2.0 * math.pi * math.sqrt(n_vertices), 400
    dense = reference.dense_curve(reference.dense_hamiltonian(n, k, gamma),
                                  np.full(n_vertices, n_vertices ** -0.5), t_max, steps)
    amplitude = sum(c * np.exp(-1j * e * dense.times) for e, c in pairs)
    assert np.abs(np.abs(amplitude) ** 2 - dense.probabilities).max() <= 1e-12


@pytest.mark.parametrize("n,k,gamma", ORACLE_CASES)
def test_krylov_space_of_s_has_dimension_k_plus_1(n, k, gamma):
    result = johnson.run_verification(n, k, gamma)
    assert result.krylov_dimension == k + 1
    assert result.closure_residual <= 1e-20
    assert result.max_deviation <= 1e-12


@pytest.mark.parametrize("n,k,gamma", [(9, 4, 0.0), (9, 3, 1e12), (9, 3, 1e15)])
def test_krylov_space_of_w_does_not_depend_on_gamma(n, k, gamma, capsys):
    # Lanczos runs on A, so its stop does not depend on gamma.  Run on H, it
    # stopped at dimension 1 at gamma = 1e12, once the oracle's coupling to
    # |s> fell below the stop, and verify failed.  At gamma = 0, H = -|w><w|.
    result = johnson.run_verification(n, k, gamma)
    assert result.krylov_dimension == k + 1
    assert result.closure_residual <= 1e-20
    assert result.max_deviation <= 1e-15
    assert cli.main(["verify", "--n", str(n), "--k", str(k), "--gamma", str(gamma)]) == 0
    assert "max |p_full - p_reduced|" in capsys.readouterr().out


def _drop_one_face(monkeypatch):
    # Vertex 5 loses a face, and with it the edges through that face: the
    # graph is no longer distance-regular around the marked vertex.
    incidence = johnson.incidence

    def broken(n, k, cap=johnson.DEFAULT_VERTEX_CAP):
        graph = incidence(n, k, cap)
        graph.faces[5] = graph.faces[5][1:]
        return graph

    monkeypatch.setattr(johnson, "incidence", broken)


def test_oracle_measures_a_krylov_space_that_does_not_close(monkeypatch):
    _drop_one_face(monkeypatch)
    result = johnson.run_verification(7, 3, 0.08)
    assert result.krylov_dimension == 5
    assert result.closure_residual > 1e-3


def test_verify_refuses_a_krylov_space_that_does_not_close(monkeypatch, capsys):
    # The curve on a space that does not close is not the full graph's, so
    # verify prints no deviation for it.
    _drop_one_face(monkeypatch)
    assert cli.main(["verify", "--n", "7", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    match = re.fullmatch(r"error: verification FAILED: closure bound (\S+) "
                         r"above tolerance 1\.0e-08\n", captured.err)
    assert match and float(match.group(1)) > 1e-3
