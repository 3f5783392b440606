"""Immutable simple undirected graphs and the primitive operations on them.

Every solver in this package consumes plain graphs: vertex ids 0..n-1
(Python ints), no weights, no directions, no mutation.  A graph stores one
neighbour bitmask per vertex, for the bitmask searches and subset DPs, and
per vertex its neighbours in the order the edge list first names them, for
the walks.  Minimum vertex separators are networkx's minimum_node_cut,
imported on first use, so importing the package does not load networkx.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Iterator, Optional

__all__ = [
    "Graph",
    "bfs_ball",
    "greedy_mis",
    "vertex_connectivity",
    "find_separator_leq",
    "read_graph",
    "write_graph",
]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The constructor stores each vertex's neighbours twice: as a bitmask
    (_masks), which is also the duplicate test, and as a list in the order
    the edge list first names them (_order).  has_edge, equality, hashing,
    adjacency_masks and the bitmask searches read the masks; neighbors()
    and everything that walks neighbours read the lists, so they iterate,
    and edges() yields, in first-occurrence order.  A graph built from
    sorted edges therefore lists its edges sorted.

    Memory: the masks take up to n * (largest id) / 8 bytes, which is what
    a search or subset DP on the graph allocates anyway; the lists take one
    reference per edge end.

    _td holds the graph's min-fill decomposition once
    treewidth.heuristic_decomposition has computed it; __init__ leaves it
    unset."""

    __slots__ = ("n", "_masks", "_order", "_m", "_td")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        order: list[list[int]] = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not masks[u] >> v & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                order[u].append(v)
                order[v].append(u)
                m += 1
        if not set(map(type, masks)) <= {int}:
            # a numpy id shifts in fixed width, which drops bits
            raise TypeError("vertex ids must be Python ints")
        self.n = n
        self._masks = tuple(masks)
        self._order = order
        self._m = m

    @property
    def m(self) -> int:
        return self._m

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's neighbours, in the order the edge list first names them."""
        return tuple(self._order[v])

    def degrees(self) -> list[int]:
        """Every vertex's degree, in id order."""
        return list(map(len, self._order))

    def has_edge(self, u: int, v: int) -> bool:
        return self._masks[u] >> v & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self._order):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new ids to original ids."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        adj = self._order
        edges = [
            (index[u], index[v])
            for u in vs
            for v in adj[u]
            if u < v and v in index
        ]
        return Graph(len(vs), edges), vs

    def is_connected(self) -> bool:
        return self.n == 0 or self.first_component_reaching(self.n) == 0

    def components(self, within: Optional[Iterable[int]] = None) -> list[list[int]]:
        """The connected components as sorted lists, by lowest vertex; given
        within, those of self.induced(within), in this graph's ids."""
        keep = range(self.n) if within is None else set(within)
        adj = self._order
        seen: set[int] = set()
        comps = []
        for s in sorted(keep):
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in seen and w in keep:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def first_component_reaching(self, k: int) -> Optional[int]:
        """The lowest vertex of the first component, by lowest vertex, with
        at least k vertices; None if there is none.  One walk of the stored
        neighbour lists that stops once a component reaches k."""
        if k <= 1:
            return 0 if self.n else None
        order = self._order
        seen = [False] * self.n
        # a component found from s holds no vertex below s
        for s in range(self.n - k + 1):
            if seen[s] or not order[s]:
                continue
            seen[s] = True
            size = 1
            stack = [s]
            while stack:
                for w in order[stack.pop()]:
                    if not seen[w]:
                        size += 1
                        if size >= k:
                            return s
                        seen[w] = True
                        stack.append(w)
        return None

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighborhoods as bitmasks, for subset DPs: a fresh
        list, which the caller may change."""
        return list(self._masks)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return all(self.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def bfs_ball(
    g: Graph, v: int, r: int, within: Optional[Collection[int]] = None
) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices at distance < r from v, and those at distance exactly r.

    The ball always contains v; ball and boundary are disjoint.  Given
    within, which must contain v, distances are those of the subgraph
    induced on it: the ball of g.induced(within), in g's ids.
    """
    keep = range(g.n) if within is None else within
    if not (0 <= v < g.n) or v not in keep:
        raise ValueError(f"vertex {v} out of range")
    if r < 1:
        raise ValueError("radius must be >= 1")
    dist = {v: 0}
    queue = deque([v])
    ball = set()
    boundary = set()
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du < r:
            ball.add(u)
        else:
            boundary.add(u)
            continue  # do not expand past distance r
        for w in g._order[u]:
            if w not in dist and w in keep:
                dist[w] = du + 1
                queue.append(w)
    return frozenset(ball), frozenset(boundary)


def greedy_mis(g: Graph) -> frozenset[int]:
    """Maximal independent set by scanning the vertices in ascending id."""
    taken: set[int] = set()
    blocked: set[int] = set()
    for v in range(g.n):
        if v not in blocked:
            taken.add(v)
            blocked.add(v)
            blocked.update(g._order[v])
    return frozenset(taken)


def vertex_connectivity(g: Graph) -> int:
    """Minimum vertex-separator size; n-1 for complete graphs, 0 if disconnected.

    A connected graph that is not complete has a separator of at most n-2
    vertices (all but a nonadjacent pair), so one call finds the minimum.
    """
    if g.n <= 1 or not g.is_connected():
        return 0
    sep = find_separator_leq(g, range(g.n), g.n - 2)
    return g.n - 1 if sep is None else len(sep)


def find_separator_leq(
    g: Graph, induced_on: Iterable[int], s: int
) -> Optional[frozenset[int]]:
    """A minimum vertex separator of g[induced_on], returned only if its size <= s.

    Absent means g[induced_on] is (s+1)-connected or complete.  g[induced_on]
    must be connected.  The separator is networkx's minimum_node_cut, which
    runs max flows from one vertex of minimum degree to each non-neighbour
    and between the nonadjacent pairs of its neighbours (Even 1975;
    Esfahanian and Hakimi 1984), not one per nonadjacent pair.  Its result
    depends on the graph's node and edge order alone, which here are the
    sorted vertices and their neighbour lists, so reruns are identical.
    """
    if s < 0:
        raise ValueError("separator budget must be >= 0")
    nodes = sorted(set(induced_on))
    # on a clique networkx returns a neighbourhood, which separates nothing
    if g.is_clique(nodes):
        return None
    import networkx as nx  # imported here, so importing fatpath does not load it

    keep = set(nodes)
    h = nx.Graph()
    h.add_nodes_from(nodes)
    h.add_edges_from((u, w) for u in nodes for w in g._order[u] if w in keep)
    cut = nx.minimum_node_cut(h)
    return frozenset(cut) if len(cut) <= s else None


def write_graph(g: Graph) -> str:
    """Line-oriented text: `p <n> <m>` then one `e <u> <v>` per edge, 0-indexed."""
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    """The graph write_graph wrote: the problem line's edge count must be a
    nonnegative int equal to the number of edge records."""
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None or len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed problem line")
            n, m = int(parts[1]), int(parts[2])
            if m < 0:
                raise ValueError(f"line {lineno}: negative edge count")
        elif parts[0] == "e":
            if n is None or len(parts) != 3:
                raise ValueError(f"line {lineno}: edge before problem line or malformed")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ValueError("missing problem line")
    if len(edges) != m:
        raise ValueError(f"problem line gives {m} edges, the file has {len(edges)}")
    return Graph(n, edges)
