"""Metric network construction, geodesics, and validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knet.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    IsolatedVertex,
    NonPositiveLength,
    PointsOnDifferentNetworks,
)
from knet.network import build_network, network_from_json, star_junction


@pytest.fixture(scope="module")
def star3():
    return star_junction(3)


@pytest.fixture(scope="module")
def graph5():
    return build_network(
        range(5),
        [(0, 0, 1, 1.0), (1, 1, 2, 0.8), (2, 1, 3, 1.2), (3, 2, 3, 0.7),
         (4, 3, 4, 0.9)],
    )


def test_star_structure(star3):
    assert [v.id for v in star3.interior_vertices] == [0]
    assert sorted(v.id for v in star3.boundary_vertices) == [1, 2, 3]
    assert star3.degree(0) == 3
    assert star3.min_edge_length == 1.0


def test_graph5_structure(graph5):
    assert sorted(v.id for v in graph5.interior_vertices) == [1, 2, 3]
    assert sorted(v.id for v in graph5.boundary_vertices) == [0, 4]


def test_geodesic_same_edge(star3):
    p = star3.point(0, 0.2)
    q = star3.point(0, 0.5)
    assert star3.geodesic_distance(p, q) == pytest.approx(0.3)


def test_geodesic_across_junction(star3):
    p = star3.point(0, 0.2)
    q = star3.point(1, 0.4)
    assert star3.geodesic_distance(p, q) == pytest.approx(0.6)


def test_geodesic_cycle_shortcut(graph5):
    # vertex 2 to vertex 3: direct edge of length 0.7 beats the long way
    assert graph5.vertex_distances[2, 3] == pytest.approx(0.7)  # vertex ids are indices
    # 0-1-3-4 through the long edge beats 0-1-2-3-4 around the cycle
    assert graph5.vertex_distances[0, 4] == pytest.approx(1.0 + 1.2 + 0.9)


def test_vertex_distances_by_hand_on_a_cycle(graph5):
    """Floyd-Warshall over graph5's cycle 1-2-3: 0 to 3 goes 0-1-3 (2.2),
    not 0-1-2-3 (2.5), and 2 to 4 takes the short edge 2-3."""
    hand = [[0.0, 1.0, 1.8, 2.2, 3.1],
            [1.0, 0.0, 0.8, 1.2, 2.1],
            [1.8, 0.8, 0.0, 0.7, 1.6],
            [2.2, 1.2, 0.7, 0.0, 0.9],
            [3.1, 2.1, 1.6, 0.9, 0.0]]
    np.testing.assert_allclose(graph5.vertex_distances, hand, rtol=1e-15, atol=0)


def test_vertex_distances_match_dijkstra_on_random_networks():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from knet.catalog import random_problem

    for s in range(30):
        net = random_problem(np.random.default_rng(s)).network
        n = len(net.vertices)
        index = {v.id: i for i, v in enumerate(net.vertices)}
        rows = [index[e.tail] for e in net.edges]
        cols = [index[e.head] for e in net.edges]
        graph = csr_matrix(([e.length for e in net.edges], (rows, cols)), shape=(n, n))
        np.testing.assert_allclose(net.vertex_distances, dijkstra(graph, directed=False),
                                   rtol=1e-14, atol=0, err_msg=str(s))


def test_vertex_point_canonical(star3):
    # the junction sits at t=0 of every edge; the canonical point uses the
    # lowest incident edge id
    for eid in range(3):
        p = star3.point(eid, 0.0)
        assert p.edge_id == 0 and p.t == 0.0
    assert star3.point_vertex(star3.vertex_point(0)) == 0
    assert star3.point_vertex(star3.point(1, 0.3)) is None


@settings(max_examples=50, deadline=None)
@given(
    e1=st.integers(0, 4), t1=st.floats(0.0, 0.7),
    e2=st.integers(0, 4), t2=st.floats(0.0, 0.7),
    e3=st.integers(0, 4), t3=st.floats(0.0, 0.7),
)
def test_geodesic_triangle_inequality(graph5, e1, t1, e2, t2, e3, t3):
    p = graph5.point(e1, t1)
    q = graph5.point(e2, t2)
    r = graph5.point(e3, t3)
    dpq = graph5.geodesic_distance(p, q)
    assert dpq == pytest.approx(graph5.geodesic_distance(q, p))
    assert dpq <= (graph5.geodesic_distance(p, r)
                   + graph5.geodesic_distance(r, q) + 1e-12)


def test_geodesic_rejects_foreign_point(star3, graph5):
    with pytest.raises(PointsOnDifferentNetworks):
        star3.geodesic_distance(star3.point(0, 0.1), graph5.point(4, 0.1))


def test_build_rejects_nonpositive_length():
    """Also a length that is not finite, which made a network of "2
    components"."""
    for length in (0.0, float("inf"), float("nan")):
        with pytest.raises(NonPositiveLength, match="not finite and > 0"):
            build_network(range(2), [(0, 0, 1, length)])


def test_build_rejects_self_loop_and_parallel_edges():
    with pytest.raises(DuplicateEdge):
        build_network(range(2), [(0, 0, 0, 1.0)])
    with pytest.raises(DuplicateEdge):
        build_network(range(2), [(0, 0, 1, 1.0), (1, 1, 0, 2.0)])


def test_build_rejects_isolated_vertex():
    with pytest.raises(IsolatedVertex):
        build_network(range(3), [(0, 0, 1, 1.0)])


def test_build_rejects_disconnected_graph():
    with pytest.raises(DisconnectedGraph):
        build_network(range(4), [(0, 0, 1, 1.0), (1, 2, 3, 1.0)])
    with pytest.raises(DisconnectedGraph, match="^3 components$"):
        build_network(range(6), [(0, 0, 1, 1.0), (1, 2, 3, 1.0), (2, 4, 5, 1.0)])


def test_network_from_json_roundtrip():
    doc = {
        "vertices": [{"id": 0}, {"id": 1}, {"id": 2}],
        "edges": [
            {"id": 0, "from": 0, "to": 1, "length": 1.5},
            {"id": 1, "from": 1, "to": 2, "length": 0.5},
        ],
    }
    net = network_from_json(doc)
    assert len(net.edges) == 2
    assert net.edge(0).length == 1.5
    assert [v.id for v in net.interior_vertices] == [1]


def test_network_from_json_reads_a_string_and_a_path(tmp_path):
    doc = {"vertices": [0, 1, 2],
           "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.5},
                     {"id": 1, "from": 1, "to": 2, "length": 0.5}]}
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc))
    for source in (json.dumps(doc), str(path)):
        net = network_from_json(source)
        assert [(e.id, e.tail, e.head, e.length) for e in net.edges] == [
            (0, 0, 1, 1.5), (1, 1, 2, 0.5)]


def test_point_parameter_range(star3):
    with pytest.raises(ValueError):
        star3.point(0, 1.5)
