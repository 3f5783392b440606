"""Tree decompositions: validation, and the min-fill heuristic
construction, which is networkx's treewidth_min_fill_in in canonical form.
networkx is imported inside both functions, so importing fatpath does not
load it."""

from __future__ import annotations

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


def heuristic_decomposition(g: Graph) -> TreeDecomposition:
    """Valid decomposition from a min-fill elimination order.

    networkx's treewidth_min_fill_in (Bodlaender and Koster, "Treewidth
    computations I. Upper bounds", 2010), converted into canonical form:
    bags sorted by their sorted vertex tuples, tree edges as sorted index
    pairs.  Widths are measured downstream, never assumed.

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
    import networkx as nx  # imported here, so importing fatpath does not load it
    from networkx.algorithms.approximation import treewidth_min_fill_in

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    _, dec = treewidth_min_fill_in(nxg)
    bags = sorted(dec.nodes, key=lambda bag: tuple(sorted(bag)))
    index = {bag: i for i, bag in enumerate(bags)}
    edges = sorted(tuple(sorted((index[a], index[b]))) for a, b in dec.edges)
    return TreeDecomposition(tuple(bags), tuple(edges))
