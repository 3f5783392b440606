import itertools
import random

from hypothesis import given, settings, strategies as st

from fatpath import hamilton
from fatpath.certificates import Certificate
from fatpath.dp import solve_dp
from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph
from fatpath.hamilton import (
    compress,
    red_closure,
    reconstruct,
    select_blue_edges,
    solve_hamiltonian_cycle,
    solve_hamiltonian_path,
)
from fatpath.oracle import held_karp_cycle, held_karp_path
from fatpath.partition import SolverConfig, kappa_partition, refine_to_linked
from fatpath.treewidth import heuristic_decomposition

from helpers import disjoint_union, random_graph


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def refined(g, cfg=None):
    p0 = kappa_partition(g)
    return refine_to_linked(g, p0, cfg or SolverConfig())[0]


def test_red_closure_cliques_no_fill():
    g = k(5)
    p = refined(g)
    assert red_closure(g, p) == frozenset()


def test_red_closure_c6_two_parts():
    from fatpath.partition import Partition, CLIQUE, RAW
    g = cycle(6)
    p = Partition((frozenset({0, 1, 2}), frozenset({3, 4, 5})),
                  (RAW, RAW), (None, None))
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


def test_blue_single_cross_edge_keeps_its_endpoints():
    # two triangles joined by one edge
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    p = refined(g)
    assert sorted(map(sorted, p.parts)) == [[0, 1, 2], [3, 4, 5]]
    assert select_blue_edges(g, p) == {2, 3}
    comp = compress(g, p, select_blue_edges(g, p))
    # each triangle keeps its cross-edge endpoint and contracts the other two
    assert comp.origin == (None, 2, 3, None)
    assert comp.u_sets in (((0, 1), (4, 5)), ((4, 5), (0, 1)))


def test_compress_all_blue_incident_keeps_everything():
    g = cycle(6)
    p = refined(g, SolverConfig(g_threshold=2))
    comp = compress(g, p, select_blue_edges(g, p))
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
                  (CLIQUE, CLIQUE), (None, None))
    comp = compress(g, p, select_blue_edges(g, p))
    assert comp.h.n == 4  # two blue endpoints plus two contracted vertices
    assert comp.u_sets == (tuple(range(1, 8)), (9, 10))
    # in input-id order, a contracted vertex in its smallest vertex's slot
    assert comp.origin == (0, None, 8, None)
    assert sorted(comp.h.edges()) == [(0, 1), (0, 2), (2, 3)]


def test_cycle_dp_c5():
    g = cycle(5)
    cert = solve_dp(g, heuristic_decomposition(g), "cycle")
    assert cert is not None and cert.validate(g, hamiltonian=True)


def test_cycle_dp_star_absent():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert solve_dp(g, heuristic_decomposition(g), "cycle") is None


def test_path_dp_p4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cert = solve_dp(g, heuristic_decomposition(g), "path")
    assert cert is not None and cert.validate(g, hamiltonian=True)


def test_path_dp_star_absent():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert solve_dp(g, heuristic_decomposition(g), "path") is None


def test_degree_rejections_skip_the_search(monkeypatch):
    # a dense G(m, 0.6) is too wide for the DP, so its H goes to the search,
    # which alone ran for seconds on these graphs; a pendant vertex rules out
    # a cycle, and three rule out a path
    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(hamilton, "_dfs_ham", search)
    for seed in range(4):
        m = 13 + 2 * seed
        dense = list(random_graph(m, 0.6, seed).edges())
        one = Graph(m + 1, dense + [(0, m)])
        three = Graph(m + 3, dense + [(i, m + i) for i in range(3)])
        assert solve_hamiltonian_cycle(one) is None, seed
        assert solve_hamiltonian_path(three) is None, seed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dp_matches_held_karp(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    g = random_graph(n, rng.uniform(0.2, 0.9), seed)
    td = heuristic_decomposition(g)
    assert (solve_dp(g, td, "cycle") is None) == (held_karp_cycle(g) is None)
    assert (solve_dp(g, td, "path") is None) == (held_karp_path(g) is None)


def test_reconstruct_identity_when_uncompressed():
    g = cycle(6)
    p = refined(g, SolverConfig(g_threshold=2))
    comp = compress(g, p, select_blue_edges(g, p))
    cert_h = solve_dp(comp.h, heuristic_decomposition(comp.h), "cycle")
    cert = reconstruct(g, p, comp, cert_h)
    assert cert.validate(g, hamiltonian=True)


def spy(monkeypatch, name):
    """Count the calls _solve makes to hamilton.<name>; the list holds each
    call's arguments."""
    calls = []
    inner = getattr(hamilton, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(hamilton, name, counted)
    return calls


def test_reconstruct_inserts_clique_interior(monkeypatch):
    # K8 core with a small satellite triangle; interior of the clique is
    # contracted in H and must be expanded where its vertex sits.  The
    # search on G would decide it before the contraction; with no budget
    # the pipeline runs.
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    calls = spy(monkeypatch, "reconstruct")
    edges = list(itertools.combinations(range(8), 2))
    edges += [(0, 8), (1, 9), (8, 9)]
    g = Graph(10, edges)
    cert = solve_hamiltonian_cycle(g)
    assert cert is not None and cert.validate(g, hamiltonian=True)
    assert calls


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


def test_pipeline_matches_oracle_past_the_budget(monkeypatch):
    # the search on G would decide every case before the blue selection;
    # with no budget the pipeline runs
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    calls = spy(monkeypatch, "select_blue_edges")
    cases = []
    for seed in range(30):
        rng = random.Random(7000 + seed)
        n = rng.randint(4, 11)
        cases.append((random_graph(n, rng.uniform(0.25, 0.7), 7000 + seed),
                      SolverConfig()))
    # at g_threshold=1 every Hamiltonian cycle and path of this graph uses a
    # cross edge whose endpoints both have other cross edges, so H must keep
    # every input cross edge between kept vertices
    cases.append((Graph(10, [
        (0, 1), (0, 2), (0, 7), (0, 8), (0, 9), (1, 2), (1, 5), (1, 6), (1, 7),
        (1, 8), (1, 9), (2, 3), (2, 5), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
        (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8),
        (6, 9)]), SolverConfig(g_threshold=1)))
    reached = []
    for g, cfg in cases:
        for solve, oracle in ((solve_hamiltonian_cycle, held_karp_cycle),
                              (solve_hamiltonian_path, held_karp_path)):
            calls.clear()
            mine = solve(g, cfg)
            assert (mine is None) == (oracle(g) is None)
            if mine is not None:
                assert mine.validate(g, hamiltonian=True)
            reached.append(len(calls))
    # both solves of the hand-built graph reach the blue selection, as do
    # most of the random cases
    assert reached[-2:] == [1, 1], reached[-2:]
    assert sum(bool(r) for r in reached) > len(reached) // 2, reached


def test_certificate_serialization():
    cert = Certificate("cycle", (0, 2, 1))
    assert cert.serialize() == "cycle: 0 2 1"


def test_route_decides_g_before_the_partition(monkeypatch):
    calls = spy(monkeypatch, "kappa_partition")
    graphs = []
    for seed in range(60):
        rng = random.Random(9000 + seed)
        graphs.append(random_graph(rng.randint(4, 10), rng.uniform(0.2, 0.8), 9000 + seed))
    for budget in (hamilton.SEARCH_NODES, 0):
        calls.clear()
        monkeypatch.setattr(hamilton, "SEARCH_NODES", budget)
        for i, g in enumerate(graphs):
            for solve, oracle in ((solve_hamiltonian_cycle, held_karp_cycle),
                                  (solve_hamiltonian_path, held_karp_path)):
                cert = solve(g)
                assert (cert is None) == (oracle(g) is None), (budget, i)
                if cert is not None:
                    assert cert.validate(g, hamiltonian=True), (budget, i)
        # within the budget the search on G decides every graph; with none,
        # the connected graphs that pass the degree check reach the partition
        assert calls if budget == 0 else not calls, budget

    # still at budget 0: a complete graph answers before any search,
    # partition or DP
    def unreachable(*args, **kwargs):
        raise AssertionError("a complete graph reached the pipeline")

    for name in ("kappa_partition", "heuristic_decomposition", "solve_dp", "_dfs_ham"):
        monkeypatch.setattr(hamilton, name, unreachable)
    for kind, solve in (("cycle", solve_hamiltonian_cycle), ("path", solve_hamiltonian_path)):
        assert solve(k(30)) == Certificate(kind, tuple(range(30)))


def test_disconnected_graphs_have_no_hamiltonian_cycle_or_path(monkeypatch):
    # two disjoint cycles pass the degree rejection; at budget 0 the answer
    # still comes before any partition
    graphs = [
        disjoint_union([cycle(4), cycle(5)]),
        disjoint_union([Graph(5, [(i, i + 1) for i in range(4)]), Graph(1, [])]),
        disjoint_union([k(4), k(6)]),
    ]
    calls = spy(monkeypatch, "kappa_partition")
    for budget in (hamilton.SEARCH_NODES, 0):
        monkeypatch.setattr(hamilton, "SEARCH_NODES", budget)
        for i, g in enumerate(graphs):
            assert solve_hamiltonian_cycle(g) is None, (budget, i)
            assert solve_hamiltonian_path(g) is None, (budget, i)
    assert not calls
