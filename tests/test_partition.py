import itertools
import math
import random

import pytest

from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph, vertex_connectivity
from fatpath.oracle import planted_two_clique_graph
from fatpath.partition import (
    CLIQUE,
    SolverConfig,
    build_quotient,
    clique_partition_exact,
    kappa_partition,
    partition_to_json,
    refine_to_linked,
    separator_tree,
)

from helpers import partition_from_json, random_graph


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_kappa_k5_single_part():
    p = kappa_partition(k(5))
    q = build_quotient(k(5), p.parts)
    assert len(p.parts) == 1 and p.parts[0] == frozenset(range(5))
    assert q.n == 1 and q.m == 0


def test_kappa_edgeless_singletons():
    p = kappa_partition(Graph(4, []))
    assert sorted(sorted(x) for x in p.parts) == [[0], [1], [2], [3]]


def test_kappa_c6_frozen():
    # vertex 5 has both MIS neighbors 0 and 4; the smaller id wins
    p = kappa_partition(cycle(6))
    q = build_quotient(cycle(6), p.parts)
    assert sorted(sorted(x) for x in p.parts) == [[0, 1, 5], [2, 3], [4]]
    assert sorted(q.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_kappa_parts_connected():
    for seed in range(20):
        g = random_graph(18, 0.25, seed)
        p = kappa_partition(g)
        for part in p.parts:
            sub, _ = g.induced(part)
            assert sub.is_connected()


def _mis_of(g):
    from fatpath.graphs import greedy_mis
    return greedy_mis(g)


def test_kappa_non_center_adjacent_to_center():
    for seed in range(20):
        g = random_graph(16, 0.3, seed)
        mis = _mis_of(g)
        p = kappa_partition(g)
        for part in p.parts:
            (center,) = part & mis
            for v in part - {center}:
                assert g.has_edge(v, center)


def test_separator_tree_k6_single_leaf():
    leaves, interior = separator_tree(k(6), frozenset(range(6)), 3)
    assert leaves == [frozenset(range(6))] and interior == frozenset()


def test_separator_tree_cut_vertex():
    # two K4's sharing vertex 0
    edges = list(itertools.combinations(range(4), 2))
    edges += [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    g = Graph(7, edges)
    leaves, interior = separator_tree(g, frozenset(range(7)), 1)
    assert interior == frozenset({0})
    assert sorted(map(sorted, leaves)) == [[1, 2, 3], [4, 5, 6]]


def test_separator_tree_planted_two_cliques():
    for seed in range(100):
        g = planted_two_clique_graph(7, 7, cross=6, seed=seed)
        leaves, interior = separator_tree(g, frozenset(range(g.n)), 4)
        assert len(leaves) <= 2
        assert len(interior) <= 4


def test_separator_tree_leaf_connectivity():
    g = random_graph(15, 0.5, 3)
    comp = max(g.components(), key=len)
    leaves, _ = separator_tree(g, frozenset(comp), 3)
    for leaf in leaves:
        sub, _ = g.induced(leaf)
        full = sub.m == sub.n * (sub.n - 1) // 2
        assert full or vertex_connectivity(sub) >= 4


def test_refine_k5_clique():
    g = k(5)
    p0 = kappa_partition(g)
    p, _ = refine_to_linked(g, p0, SolverConfig())
    assert len(p.parts) == 1 and p.kinds[0] == CLIQUE


def test_refine_c6_all_cliques():
    g = cycle(6)
    p0 = kappa_partition(g)
    p, _ = refine_to_linked(g, p0, SolverConfig(g_threshold=2))
    assert all(kind == CLIQUE for kind in p.kinds)
    assert p.check(g)


def test_refine_two_k6_single_edge():
    edges = list(itertools.combinations(range(6), 2))
    edges += [(u + 6, v + 6) for u, v in itertools.combinations(range(6), 2)]
    edges.append((0, 6))
    g = Graph(12, edges)
    p0 = kappa_partition(g)
    p, _ = refine_to_linked(g, p0, SolverConfig(g_threshold=1))
    assert p.check(g)


def test_refine_output_invariants_random():
    cfg = SolverConfig()
    for seed in range(30):
        g = random_graph(20, 0.3, 500 + seed)
        if not g.is_connected():
            continue
        p0 = kappa_partition(g)
        p, q = refine_to_linked(g, p0, cfg)
        assert p.check(g)  # false on any violated kind/cover/connectivity invariant
        assert sum(len(x) for x in p.parts) == g.n
        # quotient edge iff cross-part edge
        owner = p.part_of()
        for i in range(len(p.parts)):
            for j in range(i + 1, len(p.parts)):
                expected = any(
                    owner[u] == i and owner[v] == j or owner[u] == j and owner[v] == i
                    for u, v in g.edges()
                )
                assert q.has_edge(i, j) == expected


def test_clique_partition_triangle():
    g = cycle(3)
    parts = clique_partition_exact(g, frozenset(range(3)), 1)
    assert parts is not None and parts[0] == frozenset(range(3))


def test_clique_partition_independent_absent():
    g = Graph(3, [])
    assert clique_partition_exact(g, frozenset(range(3)), 2) is None


def test_clique_partition_planted_split():
    rng = random.Random(4)
    for seed in range(20):
        rng = random.Random(seed)
        sizes = [rng.randint(1, 4) for _ in range(3)]
        edges = []
        base = 0
        groups = []
        for s in sizes:
            grp = list(range(base, base + s))
            groups.append(grp)
            edges += list(itertools.combinations(grp, 2))
            base += s
        # noise edges between groups keep every planted part a clique
        n = base
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.2:
                    edges.append((u, v))
        g = Graph(n, edges)
        parts = clique_partition_exact(g, frozenset(range(n)), 3)
        assert parts is not None
        for part in parts:
            sub, _ = g.induced(part)
            assert sub.m == sub.n * (sub.n - 1) // 2


def test_clique_partition_guard():
    with pytest.raises(ValueError):
        clique_partition_exact(Graph(30, []), frozenset(range(30)), 3)


def test_partition_json_round_trip():
    g = random_graph(15, 0.35, 9)
    if not g.is_connected():
        g = k(15)
    p0 = kappa_partition(g)
    p, _ = refine_to_linked(g, p0, SolverConfig())
    again = partition_from_json(partition_to_json(p))
    assert again.parts == p.parts and again.kinds == p.kinds


def test_parts_of_geometric_instance_stay_close():
    # objects sharing a part sit within 2*beta of each other
    beta = 1.5
    inst = generate_instance(d=2, beta=beta, n=60, box_side=16.0, seed=21)
    g = intersection_graph(inst)
    comp = max(g.components(), key=len)
    sub, ids = g.induced(comp)
    p = kappa_partition(sub)
    for part in p.parts:
        for u, v in itertools.combinations(sorted(part), 2):
            a, b = inst.objects[ids[u]], inst.objects[ids[v]]
            gap = math.dist(a.center, b.center) - a.radius - b.radius
            assert gap <= 2 * beta + 1e-9
