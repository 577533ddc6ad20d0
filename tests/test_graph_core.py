"""Graph validation, hop distances, and shortest-path trees."""

import numpy as np
import pytest

import agecourier as ac
from agecourier.graph_core import (
    DisconnectedGraph,
    DuplicateEdge,
    GraphError,
    IndexOutOfRange,
    SelfLoop,
)

from _support import REF_DEPTHS, REF_EDGES, REF_NODE_COUNT, random_tree_graph, ref_graph


def test_reference_distances_and_tree():
    g = ref_graph()
    assert ac.bfs_distances(g).dist == REF_DEPTHS
    tree = ac.shortest_path_tree(g)
    assert tree.depth == REF_DEPTHS
    assert tree.parent == {1: 0, 2: 0, 3: 1, 4: 2, 5: 0, 6: 5, 7: 6}


def test_edges_are_canonical_and_frozen():
    g = ac.build_graph(3, [(1, 0), (2, 1)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(TypeError):
        ac.Graph(node_count=3, edges=g.edges, base=2)  # the base is always node 0
    with pytest.raises(Exception):
        g.node_count = 5  # frozen dataclass


def test_adjacency_sorted():
    g = ac.build_graph(4, [(0, 3), (0, 1), (0, 2)])
    assert g.adjacency() == [[1, 2, 3], [0], [0], [0]]


def test_build_graph_rejects_bad_inputs():
    with pytest.raises(GraphError):
        ac.build_graph(1, [])
    with pytest.raises(IndexOutOfRange):
        ac.build_graph(3, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        ac.build_graph(3, [(-1, 0)])
    with pytest.raises(SelfLoop):
        ac.build_graph(3, [(1, 1), (0, 1), (0, 2)])
    with pytest.raises(DuplicateEdge):
        ac.build_graph(3, [(0, 1), (1, 0), (0, 2)])
    with pytest.raises(DisconnectedGraph):
        ac.build_graph(4, [(0, 1), (2, 3)])


def test_error_hierarchy():
    for err in (IndexOutOfRange, SelfLoop, DuplicateEdge, DisconnectedGraph):
        assert issubclass(err, GraphError)
    assert issubclass(GraphError, ValueError)


def test_parent_tiebreak_prefers_lowest_neighbor():
    # node 3 is one hop from both 1 and 2; the lower index wins
    g = ac.build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    tree = ac.shortest_path_tree(g)
    assert tree.parent[3] == 1
    assert tree.depth == (0, 1, 1, 2)


def test_cycle_graph_distances():
    n = 6
    g = ac.build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    assert ac.bfs_distances(g).dist == (0, 1, 2, 3, 2, 1)


def _floyd_warshall(node_count, edges):
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(node_count)] for i in range(node_count)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for m in range(node_count):
        for i in range(node_count):
            for j in range(node_count):
                if d[i][m] + d[m][j] < d[i][j]:
                    d[i][j] = d[i][m] + d[m][j]
    return [int(x) for x in d[0]]


def test_random_graphs_match_independent_distance_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        tree_edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        extra = {
            (int(a), int(b))
            for a, b in rng.integers(0, n, size=(3, 2))
            if a < b and (int(a), int(b)) not in tree_edges
        }
        edges = sorted(tree_edges | extra)
        g = ac.build_graph(n, edges)
        assert list(ac.bfs_distances(g).dist) == _floyd_warshall(n, edges)
        tree = ac.shortest_path_tree(g)
        # following parents must walk to the base in exactly depth steps
        for i in range(1, n):
            hops, v = 0, i
            while v != 0:
                v = tree.parent[v]
                hops += 1
            assert hops == tree.depth[i] == ac.bfs_distances(g).dist[i]


def test_random_trees_depths_consistent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        g = random_tree_graph(rng, n)
        tree = ac.shortest_path_tree(g)
        for child, parent in tree.parent.items():
            assert tree.depth[child] == tree.depth[parent] + 1
