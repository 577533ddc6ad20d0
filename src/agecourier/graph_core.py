"""Undirected graphs with a fixed base node: validation, hop distances,
shortest-path trees.

Node indices are dense integers 0..node_count-1 and the base is always node 0.
Hop distance doubles as travel time because every edge takes one slot to
traverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

BASE = 0


class GraphError(ValueError):
    """Base class for graph construction failures."""


class IndexOutOfRange(GraphError):
    """An edge endpoint falls outside 0..node_count-1."""


class SelfLoop(GraphError):
    """An edge joins a node to itself."""


class DuplicateEdge(GraphError):
    """The same undirected edge was given twice."""


class DisconnectedGraph(GraphError):
    """Some node cannot reach the base."""


@dataclass(frozen=True)
class Graph:
    """Connected undirected graph; edges stored as canonical (low, high) pairs."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, sorted ascending for deterministic traversal."""
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        return adj


@dataclass(frozen=True)
class DistanceMap:
    """Hop count from every node to the base; dist[0] is 0."""

    dist: tuple[int, ...]


@dataclass(frozen=True)
class ShortestPathTree:
    """BFS tree rooted at the base.

    parent maps every non-base node to its tree parent; depth[i] equals the
    graph hop distance of node i, so following parents from any node reaches
    the base in exactly depth[i] steps.
    """

    parent: dict[int, int]
    depth: tuple[int, ...]


def build_graph(node_count: int, edges) -> Graph:
    """Validate an edge list and return a connected Graph.

    Raises IndexOutOfRange, SelfLoop, DuplicateEdge, or DisconnectedGraph on
    the corresponding defect; node_count must be at least 2.
    """
    if node_count < 2:
        raise GraphError(f"node_count must be at least 2, got {node_count}")
    canon: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{node_count - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at node {u}")
        e = (u, v) if u < v else (v, u)
        if e in canon:
            raise DuplicateEdge(f"duplicate edge ({e[0]}, {e[1]})")
        canon.add(e)
    g = Graph(node_count=node_count, edges=frozenset(canon))
    dist = _bfs(g.adjacency(), node_count)
    missing = [i for i, d in enumerate(dist) if d < 0]
    if missing:
        raise DisconnectedGraph(f"nodes unreachable from base: {missing}")
    return g


def _bfs(adj: list[list[int]], node_count: int) -> list[int]:
    dist = [-1] * node_count
    dist[BASE] = 0
    queue = deque([BASE])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_distances(g: Graph) -> DistanceMap:
    """Hop distance from each node to the base."""
    return DistanceMap(dist=tuple(_bfs(g.adjacency(), g.node_count)))


def shortest_path_tree(g: Graph) -> ShortestPathTree:
    """Shortest-path tree rooted at the base.

    When a node has several neighbors one hop closer to the base, the lowest
    numbered one becomes the parent, so the tree is unique and reproducible.
    """
    adj = g.adjacency()
    dist = _bfs(adj, g.node_count)
    parent: dict[int, int] = {}
    for i in range(1, g.node_count):
        # adjacency lists are sorted, so the first eligible neighbor wins
        for nbr in adj[i]:
            if dist[nbr] == dist[i] - 1:
                parent[i] = nbr
                break
    return ShortestPathTree(parent=parent, depth=tuple(dist))
