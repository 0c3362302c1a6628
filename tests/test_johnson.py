"""Brute-force Johnson graph construction, and the reference distance
classes against a breadth-first search."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from johnsonwalk import johnson, reduced, scheme
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


def test_full_adjacency_j52():
    graph = johnson.full_adjacency(5, 2)
    adj = graph.adjacency
    assert graph.n_vertices == 10
    assert adj.shape == (10, 10)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    # J(n,k) is regular of degree k(n-k)
    assert np.all(adj.sum(axis=0) == 2 * 3)


def test_full_adjacency_rule():
    graph = johnson.full_adjacency(4, 2)
    verts = graph.vertices
    i = verts.index((0, 1))
    j = verts.index((0, 2))
    disjoint = verts.index((2, 3))
    assert graph.adjacency[i, j] == 1
    assert graph.adjacency[i, disjoint] == 0


@pytest.mark.parametrize("n,k", [(8, 2), (9, 4), (10, 5), (12, 3)])
def test_full_adjacency_matches_the_definition(n, k):
    # Reference: two k-subsets are adjacent iff they share k-1 elements.
    graph = johnson.full_adjacency(n, k)
    sets = [set(v) for v in graph.vertices]
    expected = [[len(a & b) == k - 1 for b in sets] for a in sets]
    assert np.array_equal(graph.adjacency, expected)


@pytest.mark.parametrize("n", [7, johnson.DEFAULT_VERTEX_CAP])
def test_full_adjacency_k1_is_complete_graph(n):
    # J(4000,1) is the oracle at its default cap.
    graph = johnson.full_adjacency(n, 1)
    expected = 1 - np.eye(n, dtype=np.int8)
    assert np.array_equal(graph.adjacency, expected)


def test_full_adjacency_large_k_is_complete_graph():
    # J(201,200) is K_201.  Intersection sizes reach k = 200, past int8.
    graph = johnson.full_adjacency(201, 200)
    assert graph.adjacency.dtype == np.int8
    assert np.array_equal(graph.adjacency.sum(axis=1), np.full(201, 200))
    assert not graph.adjacency.diagonal().any()


def test_vertex_cap():
    with pytest.raises(VertexCapError) as err:
        johnson.full_adjacency(30, 3, cap=100)
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
        johnson.full_adjacency(n, k)
    assert err.value.n_vertices is None
    assert str(err.value) == ("J(n,k) has far more vertices than the configured "
                              "cap 4000; raise the cap to force brute-force "
                              "construction")


@pytest.mark.parametrize("n,k,cap,text", [
    (30, 3, 4000, "4060 vertices, above the configured cap 4000"),
    (30, 27, 4000, "4060 vertices, above the configured cap 4000"),
    (100, 50, 4000, "about 2^96 vertices, above the configured cap 4000"),
    (300, 6, 0, "962822846700 vertices, above the configured cap 0"),
])
def test_vertex_cap_reports_a_near_count(n, k, cap, text):
    with pytest.raises(VertexCapError) as err:
        johnson.full_adjacency(n, k, cap=cap)
    assert err.value.n_vertices == math.comb(n, k)
    assert text in str(err.value)


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
    graph = johnson.full_adjacency(n, k)
    classes = reference.distance_classes(graph, w=0)
    assert len(classes) == min(k, n - k) + 1
    bfs = _bfs_distances(graph.adjacency, 0)
    for d, members in enumerate(classes):
        assert np.all(bfs[members] == d)
    # classes partition the vertex set
    assert sum(len(c) for c in classes) == graph.n_vertices


def test_distance_classes_sizes_match_formula():
    graph = johnson.full_adjacency(8, 3)
    classes = reference.distance_classes(graph)
    assert [len(c) for c in classes] == johnson.class_sizes(8, 3)
    assert len(classes[0]) == 1 and classes[0][0] == 0


def test_distance_classes_other_marked_vertex():
    graph = johnson.full_adjacency(6, 3)
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
    for call in (johnson.class_sizes, reduced.initial_state,
                 reduced.intersection_array):
        with pytest.raises(ValueError, match=message):
            call(5, 3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        johnson.full_adjacency(5, 0)
    with pytest.raises(ValueError):
        johnson.full_adjacency(5, 5)
    with pytest.raises(ValueError):
        johnson.enumerate_vertices(3.5, 2)
