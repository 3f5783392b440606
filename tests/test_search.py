"""The exhaustive search, the first exact step of both solvers.

The Hamiltonian solvers call it as ``hamilton._dfs_ham`` and the long path
solver as ``longpath._dfs_longpath``; both names are checked here on
G(n,p) graphs against the oracles, along with its node budget and the
solvers' fallback to the DP when the budget runs out.
"""

import hashlib
import itertools
import random

import pytest

from fatpath import hamilton, longpath
from fatpath.graphs import Graph
from fatpath.oracle import held_karp_cycle, held_karp_path, longest_path_exact

from helpers import disjoint_union, random_graph


def gnp_cases(count, n_max, base):
    for seed in range(base, base + count):
        rng = random.Random(seed)
        yield seed, random_graph(rng.randint(6, n_max), rng.uniform(0.2, 0.8), seed)


def max_path_vertices(g):
    """The most vertices on a simple path, by enumerating every (vertex set,
    end) pair a path can reach."""
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
    return max(mask.bit_count() for mask, _ in seen)


def test_hamiltonian_search_matches_held_karp():
    for seed, g in gnp_cases(60, 14, 9000):
        for kind, oracle in (("cycle", held_karp_cycle), ("path", held_karp_path)):
            cert = hamilton._dfs_ham(g, kind)
            assert (cert is None) == (oracle(g) is None), (seed, kind)
            if cert is not None:
                assert cert.kind == kind, (seed, kind)
                assert cert.validate(g, hamiltonian=True), (seed, kind)
                if kind == "cycle":
                    # the cycle starts at the lowest id of fewest neighbours
                    degrees = g.degrees()
                    assert cert.vertices[0] == degrees.index(min(degrees)), seed


def test_unit_weight_search_matches_longest_path():
    for seed, g in gnp_cases(60, 14, 9100):
        best, _ = longest_path_exact(g)
        for k in (best - 1, best, best + 1):
            cert = longpath._dfs_longpath(g, k=k)
            assert (cert is None) == (k > best), (seed, k)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k, (seed, k)


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


def test_budget_counts_popped_nodes():
    # a search that is done at its first node needs a budget of one
    single = Graph(1, [])
    assert hamilton._dfs_ham(single, "path", budget=1).vertices == (0,)
    with pytest.raises(hamilton.SearchBudgetExceeded):
        hamilton._dfs_ham(single, "path", budget=0)
    for seed, g in gnp_cases(30, 12, 9300):
        calls = [dict(kind="cycle"), dict(kind="path"), dict(k=max_path_vertices(g))]
        for call in calls:
            full = hamilton._dfs_ham(g, **call)

            def decided(budget):
                try:
                    hamilton._dfs_ham(g, budget=budget, **call)
                except hamilton.SearchBudgetExceeded:
                    return False
                return True

            need = next(b for b in itertools.count() if decided(b))
            assert need >= 1, (seed, call)
            with pytest.raises(hamilton.SearchBudgetExceeded):
                hamilton._dfs_ham(g, budget=need - 1, **call)
            for budget in (need, need + 100):
                assert hamilton._dfs_ham(g, budget=budget, **call) == full, (seed, call)


def test_a_target_is_for_path_searches_only():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(ValueError):
        hamilton._dfs_ham(c5, "cycle", k=3)
    # the path searches with a target are unchanged
    for k in range(1, 6):
        cert = hamilton._dfs_ham(c5, "path", k=k)
        assert cert.kind == "path" and cert.validate(c5) and len(cert) >= k, k
        assert longpath._dfs_longpath(c5, k=k) == cert, k
    assert hamilton._dfs_ham(c5, "path", k=6) is None


def test_cycle_with_a_vertex_of_degree_below_two_costs_one_pop():
    # the cycle starts at a vertex of fewest neighbours, here isolated or a
    # pendant: no cycle through it, which its first pop decides
    rng = random.Random(9350)
    for case in range(60):
        n = rng.randint(3, 14)
        base = random_graph(n, rng.uniform(0.3, 0.9), 9350 + case)
        v = rng.randrange(n)
        edges = [e for e in base.edges() if v not in e]
        if case % 2:
            edges.append((v, rng.choice([u for u in range(n) if u != v])))
        g = Graph(n, edges)
        assert min(g.degrees()) < 2, case
        assert hamilton._dfs_ham(g, "cycle", budget=1) is None, case
        assert least_budget(g, kind="cycle") == 1, case


def test_cycle_search_decides_cycles_and_wheels_within_n_pops():
    rng = random.Random(9360)
    for n in range(3, 40):
        # C_n under a random labelling: every vertex has degree 2, and each
        # step has one way on
        ids = rng.sample(range(n), n)
        c = Graph(n, [(ids[i], ids[(i + 1) % n]) for i in range(n)])
        assert least_budget(c, kind="cycle") <= n, n
        assert hamilton._dfs_ham(c, "cycle").validate(c, hamiltonian=True), n
        # the wheel: a hub joined to every vertex of a rim in id order
        for hub in {0, n // 2, n - 1}:
            rim = [v for v in range(n) if v != hub]
            w = Graph(n, [(rim[i - 1], rim[i]) for i in range(len(rim))]
                      + [(hub, v) for v in rim])
            assert least_budget(w, kind="cycle") <= n, (n, hub)
            assert hamilton._dfs_ham(w, "cycle").validate(w, hamiltonian=True), (n, hub)


def test_solvers_fall_back_to_the_dp_past_the_budget(monkeypatch):
    calls = []

    def counted(solve_dp):
        def wrapper(*args, **kwargs):
            calls.append(args[2])
            return solve_dp(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hamilton, "solve_dp", counted(hamilton.solve_dp))
    monkeypatch.setattr(longpath, "solve_dp", counted(longpath.solve_dp))
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 1)
    for seed, g in gnp_cases(30, 11, 9400):
        for solve, oracle in ((hamilton.solve_hamiltonian_cycle, held_karp_cycle),
                              (hamilton.solve_hamiltonian_path, held_karp_path)):
            cert = solve(g)
            assert (cert is None) == (oracle(g) is None), seed
            if cert is not None:
                assert cert.validate(g, hamiltonian=True), seed
        best, _ = longest_path_exact(g)
        for k in (best, best + 1):
            cert = longpath.solve_long_path(g, k)
            assert (cert is None) == (k > best), (seed, k)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k, (seed, k)
    assert {"cycle", "path", "longpath"} <= set(calls)


def small_components(rng, k, count):
    """count G(n,p) graphs of 1 to k - 1 vertices, so every component of
    their union is too small for a path on k vertices."""
    return [random_graph(rng.randint(1, k - 1), rng.uniform(0.3, 0.9),
                         rng.randrange(1 << 30)) for _ in range(count)]


def non_isolated_components(g):
    return sum(len(comp) > 1 for comp in g.components())


def least_budget(g, **call):
    """The fewest popped nodes with which the search on g decides call."""
    def decided(budget):
        try:
            longpath._dfs_longpath(g, budget=budget, **call)
        except hamilton.SearchBudgetExceeded:
            return False
        return True

    lo, hi = -1, 1  # hi decides; lo does not, or is below every budget
    while not decided(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if decided(mid) else (mid, hi)
    return hi


def test_search_skips_components_too_small_for_k():
    # small components first, then one of at least k vertices holding the
    # highest ids: the search on the whole graph finds what the search on
    # that component finds, and spends one node per small component with an
    # edge on the way
    rng = random.Random(9500)
    for case in range(20):
        k = rng.randint(4, 8)
        big = random_graph(rng.randint(k, 11), rng.uniform(0.25, 0.6), 9500 + case)
        small = small_components(rng, k, rng.randint(1, 12))
        g = disjoint_union(small + [big])
        offset = g.n - big.n
        for k_ in (k, k + 1, big.n):
            alone = longpath._dfs_longpath(big, k=k_)
            cert = longpath._dfs_longpath(g, k=k_)
            if alone is None:
                assert cert is None, (case, k_)
            else:
                assert cert.vertices == tuple(offset + v for v in alone.vertices), (case, k_)
                assert cert.validate(g) and len(cert) >= k_, (case, k_)
            skipped = non_isolated_components(disjoint_union(small))
            assert least_budget(g, k=k_) == least_budget(big, k=k_) + skipped, (case, k_)


def test_search_rejects_components_too_small_within_one_node_each():
    rng = random.Random(9600)
    for case in range(20):
        k = rng.randint(4, 9)
        g = disjoint_union(small_components(rng, k, rng.randint(1, 15)))
        budget = non_isolated_components(g)
        assert longpath._dfs_longpath(g, k=k, budget=budget) is None, case
        if budget:
            with pytest.raises(hamilton.SearchBudgetExceeded):
                longpath._dfs_longpath(g, k=k, budget=budget - 1)


def test_long_path_rejects_components_too_small_before_the_partition(monkeypatch):
    # with no budget the search stops at its first node, and the component
    # sizes past it decide these graphs before any partition is built
    def partition(*args, **kwargs):
        raise AssertionError("the partition was built")

    monkeypatch.setattr(longpath, "kappa_partition", partition)
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    rng = random.Random(9700)
    for case in range(20):
        k = rng.randint(4, 9)
        g = disjoint_union(small_components(rng, k, rng.randint(2, 15)))
        if g.n >= k:
            assert longpath.solve_long_path(g, k) is None, case


def test_search_matches_its_golden_digest():
    # the witness and the fewest popped nodes that decide each call, on 300
    # G(n, p) graphs, in two halves: the Hamiltonian calls and the long path
    # calls (k given).  A change to the order in which the search visits its
    # nodes, or to how many it pops, changes the digest of its half; the
    # verdicts alone have a third digest, which no such change may move
    hamiltonian, long_path, verdicts = (hashlib.sha256() for _ in range(3))
    for i in range(300):
        n, p = 1 + i // 4 % 14, (0.15, 0.3, 0.5, 0.7)[i % 4]
        g = random_graph(n, p, 9800 + i)
        for half, call in ((hamiltonian, dict(kind="cycle")),
                           (hamiltonian, dict(kind="path")),
                           (long_path, dict(k=n // 2)), (long_path, dict(k=n - 1))):
            need = least_budget(g, **call)
            cert = hamilton._dfs_ham(g, budget=need, **call)
            half.update(repr((cert and cert.vertices, need)).encode())
            verdicts.update(repr(cert is None).encode())
    assert hamiltonian.hexdigest() == "b17edf248983827c0a8222951b729d6bc602c7ca524adb0d93c1f12dc93dda38"
    assert long_path.hexdigest() == "fc066a221770ceca1436fdefabe578d83636daf2e84c1a58b6fe3320dc71d770"
    assert verdicts.hexdigest() == "9e83188679e5e19f2441d6d78a54a14f65716209f67d7077716dd753cd05fc0e"
