"""Graph builders shared by the test modules."""

import random

from fatpath.graphs import Graph


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
