"""The exhaustive search both solvers fall back on for small, wide graphs.

The Hamiltonian solvers call it as ``hamilton._dfs_ham`` and the long path
solver as ``longpath._dfs_longpath``; both names are checked here on
G(n,p) graphs against the oracles and against a path enumeration.
"""

import random

from fatpath import hamilton, longpath
from fatpath.graphs import Graph
from fatpath.oracle import held_karp_cycle, held_karp_path, longest_path_exact


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def gnp_cases(count, n_max, base):
    for seed in range(base, base + count):
        rng = random.Random(seed)
        yield seed, random_graph(rng.randint(6, n_max), rng.uniform(0.2, 0.8), seed)


def max_path_weight(g, weights):
    """The largest total weight of a simple path, by enumerating every
    (vertex set, end) pair a path can reach."""
    adj = g.adjacency_masks()
    seen = {(1 << v, v) for v in range(g.n)}
    stack = list(seen)
    while stack:
        mask, v = stack.pop()
        rest = adj[v] & ~mask
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            state = (mask | 1 << u, u)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return max(sum(weights[v] for v in range(g.n) if mask >> v & 1)
               for mask, _ in seen)


def test_hamiltonian_search_matches_held_karp():
    for seed, g in gnp_cases(60, 14, 9000):
        for kind, oracle in (("cycle", held_karp_cycle), ("path", held_karp_path)):
            cert = hamilton._dfs_ham(g, kind)
            assert (cert is None) == (oracle(g) is None), (seed, kind)
            if cert is not None:
                assert cert.kind == kind, (seed, kind)
                assert cert.validate(g, hamiltonian=True), (seed, kind)


def test_unit_weight_search_matches_longest_path():
    for seed, g in gnp_cases(60, 14, 9100):
        best, _ = longest_path_exact(g)
        for k in (best - 1, best, best + 1):
            cert = longpath._dfs_longpath(g, weights=[1] * g.n, k=k)
            assert (cert is None) == (k > best), (seed, k)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k, (seed, k)


def test_weighted_search_matches_enumeration():
    for seed, g in gnp_cases(60, 14, 9200):
        rng = random.Random(seed)
        weights = [rng.randint(1, 3) for _ in range(g.n)]
        best = max_path_weight(g, weights)
        for k in (best - 1, best, best + 1):
            cert = longpath._dfs_longpath(g, weights=weights, k=k)
            assert (cert is None) == (k > best), (seed, k)
            if cert is not None:
                assert cert.validate(g), (seed, k)
                assert sum(weights[v] for v in cert.vertices) >= k, (seed, k)


def test_hamiltonian_path_search_starts_at_a_pendant():
    # C4 with vertex 4 hanging off vertex 3: every Hamiltonian path ends at 4
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    cert = hamilton._dfs_ham(g, "path")
    assert cert is not None and cert.vertices[0] == 4
    # dense G(m, 0.6) with two pendants: a search that starts elsewhere
    # exhausts every other start first and runs for seconds
    for m in range(14, 20):
        a, b = random.Random(m).sample(range(m), 2)
        g = Graph(m + 2, list(random_graph(m, 0.6, m).edges()) + [(a, m), (b, m + 1)])
        cert = hamilton._dfs_ham(g, "path")
        assert cert is not None and cert.validate(g, hamiltonian=True), m
        assert cert.vertices[0] == m, m
