"""Graph builders, reference implementations and test-only checks shared by
the test modules."""

import json
import random
from itertools import combinations

from fatpath.graphs import Graph
from fatpath.linkage import LinkageRequest, find_spanning_linkage
from fatpath.partition import LINKED, Partition


def random_graph(n, p, seed):
    """G(n, p) drawn with random.Random(seed), one draw per vertex pair in
    lexicographic order."""
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def disjoint_union(parts):
    """The graphs in parts side by side, each with the ids after the last."""
    edges, n = [], 0
    for part in parts:
        edges += [(n + u, n + v) for u, v in part.edges()]
        n += part.n
    return Graph(n, edges)


def reference_neighbour_lists(n, edges):
    """Each vertex's neighbours in the order the edge list first names them,
    repeats dropped: the order neighbors() and edges() must keep."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def reference_edges(lists):
    """edges() of a graph with these neighbour lists, in its order."""
    return [(u, v) for u, nbrs in enumerate(lists) for v in nbrs if u < v]


def independence_number_exact(g):
    """Exact independence number by branch and bound.  Guarded at n <= 30."""
    if g.n > 30:
        raise ValueError("independence_number_exact is limited to n <= 30")
    masks = g.adjacency_masks()
    best = 0

    def bb(candidates, size):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        bb(candidates & ~(1 << v) & ~masks[v], size + 1)  # take v
        bb(candidates & ~(1 << v), size)  # skip v

    bb((1 << g.n) - 1, 0)
    return best


def is_hamiltonian_l_linked(g, part, l):
    """True iff every choice of l disjoint terminal pairs in part admits a
    spanning linkage.  Enumerates all terminal configurations; guarded at
    |part| <= 14."""
    vs = sorted(part)
    if len(vs) > 14:
        raise ValueError("is_hamiltonian_l_linked is limited to parts of size <= 14")
    if len(vs) < 2 * l:
        return False
    for chosen in combinations(vs, 2 * l):
        for pairing in _pairings(list(chosen)):
            req = LinkageRequest(frozenset(part), tuple(pairing))
            if find_spanning_linkage(g, req) is None:
                return False
    return True


def _pairings(items):
    """Every way to split items into unordered pairs."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in _pairings(rest):
            yield [(first, items[i])] + tail


def partition_from_json(text):
    """The Partition that partition.partition_to_json wrote."""
    doc = json.loads(text)
    parts = tuple(frozenset(part) for part in doc["parts"])
    kinds = []
    conn = []
    for k in doc["kinds"]:
        if k.startswith("linked:"):
            kinds.append(LINKED)
            conn.append(int(k.split(":", 1)[1]))
        else:
            kinds.append(k)
            conn.append(0)
    return Partition(parts, tuple(kinds), tuple(conn))
