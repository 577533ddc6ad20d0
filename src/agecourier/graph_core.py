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
    """A graph that cannot be built; the message names the defect."""


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

    Raises GraphError on an endpoint outside 0..node_count-1, a self-loop, a
    duplicate edge or a node the base cannot reach; node_count must be at least 2.
    """
    if node_count < 2:
        raise GraphError(f"node_count must be at least 2, got {node_count}")
    canon: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise GraphError(f"edge ({u}, {v}) outside 0..{node_count - 1}")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        e = (u, v) if u < v else (v, u)
        if e in canon:
            raise GraphError(f"duplicate edge ({e[0]}, {e[1]})")
        canon.add(e)
    g = Graph(node_count=node_count, edges=frozenset(canon))
    missing = [i for i, d in enumerate(bfs_distances(g)) if d < 0]
    if missing:
        raise GraphError(f"nodes unreachable from base: {missing}")
    return g


def bfs_distances(g: Graph) -> tuple[int, ...]:
    """Hop distance from each node to the base; entry 0 is 0, and -1 marks a
    node the base cannot reach."""
    adj = g.adjacency()
    dist = [-1] * g.node_count
    dist[BASE] = 0
    queue = deque([BASE])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return tuple(dist)


def shortest_path_tree(g: Graph) -> ShortestPathTree:
    """Shortest-path tree rooted at the base.

    When a node has several neighbors one hop closer to the base, the lowest
    numbered one becomes the parent, so the tree is unique and reproducible.
    """
    adj = g.adjacency()
    dist = bfs_distances(g)
    parent: dict[int, int] = {}
    for i in range(1, g.node_count):
        # adjacency lists are sorted, so the first eligible neighbor wins
        for nbr in adj[i]:
            if dist[nbr] == dist[i] - 1:
                parent[i] = nbr
                break
    return ShortestPathTree(parent=parent, depth=dist)
