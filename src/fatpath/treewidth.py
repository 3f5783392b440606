"""Tree decompositions: validation and min-fill heuristic construction."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    import networkx as nx  # imported here, so importing fatpath does not load it

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


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _min_fill_vertex(adj: list[int], deg: list[int], alive: list[int]) -> int | None:
    """The vertex networkx's min_fill_in_heuristic picks, on bitmask rows:
    the first of the live vertices in (degree, id) order whose elimination
    adds the fewest fill edges, a vertex that adds none at once; None when
    the live vertices form a clique."""
    order = sorted(alive, key=deg.__getitem__)
    if deg[order[0]] == len(alive) - 1:
        return None
    best = order[0]
    best2 = math.inf  # twice the least fill-in so far
    for v in order:
        nbrs = adj[v]
        # a neighbour u misses the deg[v] - 1 others but those adjacent to
        # it; each missing edge is counted from both ends
        miss = deg[v] - 1
        fill2 = 0
        rest = nbrs
        while rest and fill2 < best2:
            low = rest & -rest
            rest ^= low
            fill2 += miss - (nbrs & adj[low.bit_length() - 1]).bit_count()
        if fill2 < best2:
            if fill2 == 0:
                return v
            best, best2 = v, fill2
    return best


def heuristic_decomposition(g: Graph) -> TreeDecomposition:
    """Valid decomposition from a min-fill elimination order.

    networkx's treewidth_min_fill_in, step for step on bitmasks: eliminate
    the vertex _min_fill_vertex picks until the rest is a clique, which is
    the first bag; then, in reverse elimination order, each vertex with its
    neighbours at elimination becomes a bag attached to the first earlier
    bag that holds those neighbours, or to the first bag.  The result is
    converted into canonical form (bags sorted lexicographically); widths
    are measured downstream, never assumed.

    The result depends on g alone, and g is immutable, so it is stored on g
    (g._td) the first time and that object is returned on later calls.
    """
    td = getattr(g, "_td", None)
    if td is None:
        td = g._td = _min_fill_decomposition(g)
    return td


def _min_fill_decomposition(g: Graph) -> TreeDecomposition:
    if g.n == 0:
        return TreeDecomposition((), ())
    if g.n == 1:
        return TreeDecomposition((frozenset({0}),), ())
    adj = g.adjacency_masks()
    deg = g.degrees()
    alive = list(range(g.n))
    eliminated: list[tuple[int, int]] = []  # (vertex, its neighbours then)
    while (v := _min_fill_vertex(adj, deg, alive)) is not None:
        nbrs = adj[v]
        for u in _bits(nbrs):
            adj[u] = (adj[u] | nbrs) & ~(1 << u | 1 << v)
            deg[u] = adj[u].bit_count()
        eliminated.append((v, nbrs))
        alive.remove(v)
    masks = [sum(1 << v for v in alive)]
    holding: list[list[int]] = [[] for _ in range(g.n)]  # per vertex, its bags
    for v in alive:
        holding[v].append(0)
    tree: list[tuple[int, int]] = []
    for v, nbrs in reversed(eliminated):
        # every bag that holds nbrs holds its lowest vertex
        pool = holding[(nbrs & -nbrs).bit_length() - 1] if nbrs else [0]
        host = next((i for i in pool if nbrs & ~masks[i] == 0), 0)
        tree.append((host, len(masks)))
        for u in _bits(nbrs) + [v]:
            holding[u].append(len(masks))
        masks.append(nbrs | 1 << v)
    rows = [_bits(b) for b in masks]  # each in ascending id
    rank = sorted(range(len(rows)), key=rows.__getitem__)
    index = {i: r for r, i in enumerate(rank)}
    bags = tuple(frozenset(rows[i]) for i in rank)
    edges = tuple(sorted(
        (min(index[a], index[b]), max(index[a], index[b])) for a, b in tree
    ))
    return TreeDecomposition(bags, edges)
