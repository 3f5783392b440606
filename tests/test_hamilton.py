import itertools
import random

from hypothesis import given, settings, strategies as st

from fatpath.certificates import Certificate
from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph
from fatpath.hamilton import (
    compress,
    hamiltonian_cycle_dp,
    hamiltonian_path_dp,
    red_closure,
    reconstruct,
    select_blue_edges,
    solve_hamiltonian_cycle,
    solve_hamiltonian_path,
)
from fatpath.oracle import held_karp_cycle, held_karp_path
from fatpath.partition import SolverConfig, kappa_partition, refine_to_linked
from fatpath.treewidth import heuristic_decomposition


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def refined(g, cfg=None):
    p0, _ = kappa_partition(g)
    return refine_to_linked(g, p0, cfg or SolverConfig())[0]


def test_red_closure_cliques_no_fill():
    g = k(5)
    p = refined(g)
    assert red_closure(g, p) == frozenset()


def test_red_closure_c6_two_parts():
    from fatpath.partition import Partition, CLIQUE, RAW
    g = cycle(6)
    p = Partition((frozenset({0, 1, 2}), frozenset({3, 4, 5})),
                  (RAW, RAW), (None, None), "test")
    assert red_closure(g, p) == {(0, 2), (3, 5)}


def test_red_closure_parts_complete():
    for seed in range(15):
        g = random_graph(14, 0.3, seed)
        comp = max(g.components(), key=len)
        sub, _ = g.induced(comp)
        p = refined(sub)
        red = red_closure(sub, p)
        for part in p.parts:
            for u, v in itertools.combinations(sorted(part), 2):
                assert sub.has_edge(u, v) != ((u, v) in red)


def test_blue_single_cross_edge_both_strategies():
    # two triangles joined by one edge
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    p = refined(g)
    for strategy in ("all", "bounded"):
        blue = select_blue_edges(g, p, strategy)
        assert sum(len(v) for v in blue.sets.values()) == 1


def test_blue_bounded_cap():
    for seed in range(10):
        g = random_graph(16, 0.4, seed)
        comp = max(g.components(), key=len)
        sub, _ = g.induced(comp)
        p = refined(sub)
        from fatpath.partition import build_quotient
        q = build_quotient(sub, p.parts)
        delta = max(q.graph.max_degree(), 1)
        blue = select_blue_edges(sub, p, "bounded")
        for pairs in blue.sets.values():
            assert len(pairs) <= 4 * (2 * delta - 1) ** 2


def test_compress_all_blue_incident_keeps_everything():
    g = cycle(6)
    p = refined(g, SolverConfig(g_threshold=2))
    blue = select_blue_edges(g, p, "all")
    comp = compress(g, p, blue)
    # every vertex of C6 has a cross edge, so nothing is dropped
    assert comp.h.n == 6


def test_compress_interior_dropped():
    from fatpath.partition import Partition, CLIQUE
    # K8 joined to a triangle by a single cross edge: clique interiors
    # shrink to one contracted vertex each
    edges = list(itertools.combinations(range(8), 2))
    edges += [(8, 9), (8, 10), (9, 10), (0, 8)]
    g = Graph(11, edges)
    p = Partition((frozenset(range(8)), frozenset({8, 9, 10})),
                  (CLIQUE, CLIQUE), (None, None), "test")
    blue = select_blue_edges(g, p, "all")
    comp = compress(g, p, blue)
    assert comp.h.n == 4  # two blue endpoints plus two contracted vertices
    assert comp.u_sets == (tuple(range(1, 8)), (9, 10))
    # in input-id order, a contracted vertex in its smallest vertex's slot
    assert comp.origin == (0, None, 8, None)
    assert comp.weights == (1, 7, 1, 2)
    assert sorted(comp.h.edges()) == [(0, 1), (0, 2), (2, 3)]


def test_cycle_dp_c5():
    g = cycle(5)
    cert = hamiltonian_cycle_dp(g, heuristic_decomposition(g))
    assert cert is not None and cert.validate(g, hamiltonian=True)


def test_cycle_dp_star_absent():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert hamiltonian_cycle_dp(g, heuristic_decomposition(g)) is None


def test_path_dp_p4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cert = hamiltonian_path_dp(g, heuristic_decomposition(g))
    assert cert is not None and cert.validate(g, hamiltonian=True)


def test_path_dp_star_absent():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert hamiltonian_path_dp(g, heuristic_decomposition(g)) is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dp_matches_held_karp(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    g = random_graph(n, rng.uniform(0.2, 0.9), seed)
    td = heuristic_decomposition(g)
    assert (hamiltonian_cycle_dp(g, td) is None) == (held_karp_cycle(g) is None)
    assert (hamiltonian_path_dp(g, td) is None) == (held_karp_path(g) is None)


def test_reconstruct_identity_when_uncompressed():
    g = cycle(6)
    p = refined(g, SolverConfig(g_threshold=2))
    blue = select_blue_edges(g, p, "all")
    comp = compress(g, p, blue)
    cert_h = hamiltonian_cycle_dp(comp.h, heuristic_decomposition(comp.h))
    cert = reconstruct(g, p, comp, cert_h)
    assert cert.validate(g, hamiltonian=True)


def test_reconstruct_inserts_clique_interior():
    # K8 core with a small satellite triangle; interior of the clique is
    # contracted in H and must be expanded where its vertex sits
    edges = list(itertools.combinations(range(8), 2))
    edges += [(0, 8), (1, 9), (8, 9)]
    g = Graph(10, edges)
    cert = solve_hamiltonian_cycle(g)
    assert cert is not None and cert.validate(g, hamiltonian=True)


def test_solve_k5():
    cert = solve_hamiltonian_cycle(k(5))
    assert cert is not None and cert.validate(k(5), hamiltonian=True)


def test_solve_tree_absent():
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert solve_hamiltonian_cycle(tree) is None
    assert solve_hamiltonian_path(tree) is None


def test_solve_path_on_path():
    g = Graph(6, [(i, i + 1) for i in range(5)])
    cert = solve_hamiltonian_path(g)
    assert cert is not None and cert.validate(g, hamiltonian=True)


def test_solve_tiny():
    assert solve_hamiltonian_cycle(Graph(2, [(0, 1)])) is None
    cert = solve_hamiltonian_path(Graph(1, []))
    assert cert is not None and cert.vertices == (0,)


def test_solve_matches_oracle_random():
    for seed in range(40):
        rng = random.Random(3000 + seed)
        n = rng.randint(4, 12)
        g = random_graph(n, rng.uniform(0.2, 0.8), 3000 + seed)
        for solve, oracle in ((solve_hamiltonian_cycle, held_karp_cycle),
                              (solve_hamiltonian_path, held_karp_path)):
            mine, ref = solve(g), oracle(g)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert mine.validate(g, hamiltonian=True)


def test_solve_matches_oracle_geometric():
    for seed in range(25):
        rng = random.Random(seed)
        inst = generate_instance(d=2, beta=rng.choice([1.0, 2.0]),
                                 n=rng.randint(5, 14),
                                 box_side=rng.uniform(5.0, 9.0), seed=seed)
        g = intersection_graph(inst)
        mine, ref = solve_hamiltonian_cycle(g), held_karp_cycle(g)
        assert (mine is None) == (ref is None)
        if mine is not None:
            assert mine.validate(g, hamiltonian=True)


def test_bounded_strategy_matches_oracle():
    cases = []
    for seed in range(30):
        rng = random.Random(7000 + seed)
        n = rng.randint(4, 11)
        cases.append((random_graph(n, rng.uniform(0.25, 0.7), 7000 + seed),
                      SolverConfig()))
    # at g_threshold=1 every Hamiltonian cycle and path of this graph uses a
    # cross edge between two kept vertices that the bounded selection skips
    cases.append((Graph(10, [
        (0, 1), (0, 2), (0, 7), (0, 8), (0, 9), (1, 2), (1, 5), (1, 6), (1, 7),
        (1, 8), (1, 9), (2, 3), (2, 5), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
        (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8),
        (6, 9)]), SolverConfig(g_threshold=1)))
    for g, cfg in cases:
        for solve, oracle in ((solve_hamiltonian_cycle, held_karp_cycle),
                              (solve_hamiltonian_path, held_karp_path)):
            mine = solve(g, cfg, blue_strategy="bounded")
            assert (mine is None) == (oracle(g) is None)
            if mine is not None:
                assert mine.validate(g, hamiltonian=True)


def test_certificate_serialization():
    cert = Certificate("cycle", (0, 2, 1))
    assert cert.serialize() == "cycle: 0 2 1"
