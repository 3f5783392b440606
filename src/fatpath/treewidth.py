"""Tree decompositions: validation and min-fill heuristic construction."""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
from networkx.algorithms.approximation import treewidth_min_fill_in

from .graphs import Graph

__all__ = [
    "TreeDecomposition",
    "validate",
    "heuristic_decomposition",
]


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 and undirected tree edges between bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def validate(g: Graph, td: TreeDecomposition) -> bool:
    """The three axioms: vertex cover, edge cover, connected subtrees."""
    b = len(td.bags)
    if b == 0:
        return g.n == 0
    if len(td.tree_edges) != b - 1:
        return False
    # the tree edges must form a tree
    t = nx.Graph()
    t.add_nodes_from(range(b))
    t.add_edges_from(td.tree_edges)
    if b > 0 and not nx.is_connected(t):
        return False
    covered: set[int] = set()
    for bag in td.bags:
        covered |= bag
    if covered != set(range(g.n)):
        return False
    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in td.bags):
            return False
    for v in range(g.n):
        nodes = [i for i, bag in enumerate(td.bags) if v in bag]
        sub = t.subgraph(nodes)
        if len(nodes) > 0 and not nx.is_connected(sub):
            return False
    return True


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def heuristic_decomposition(g: Graph) -> TreeDecomposition:
    """Valid decomposition from a min-fill elimination order.

    Backed by networkx's min-fill heuristic; the result is converted into
    canonical form (bags sorted lexicographically) and validated widths are
    measured downstream, never assumed.
    """
    if g.n == 0:
        return TreeDecomposition((), ())
    if g.n == 1:
        return TreeDecomposition((frozenset({0}),), ())
    _, dec = treewidth_min_fill_in(_to_nx(g))
    raw_bags = sorted(dec.nodes, key=lambda s: tuple(sorted(s)))
    index = {bag: i for i, bag in enumerate(raw_bags)}
    bags = tuple(frozenset(bag) for bag in raw_bags)
    edges = tuple(
        sorted(
            (min(index[a], index[b]), max(index[a], index[b]))
            for a, b in dec.edges
        )
    )
    if not bags:
        bags = (frozenset(range(g.n)),)
        edges = ()
    return TreeDecomposition(bags, edges)
