import hashlib
import itertools
import math
import random
import time

import pytest

from fatpath import hamilton, longpath
from fatpath.certificates import CertificateError
from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph, bfs_ball
from fatpath.hamilton import FallbackRequired
from fatpath.longpath import (
    build_weighted,
    mark,
    outer_cover,
    pattern_cover,
    solve_long_path,
    weighted_longpath_dp,
)
from fatpath.oracle import longest_path_exact
from fatpath.partition import (
    RAW,
    Partition,
    SolverConfig,
    kappa_partition,
    refine_to_linked,
)
from fatpath.treewidth import heuristic_decomposition

from helpers import disjoint_union, random_graph


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def pipeline(g, cfg=None):
    cfg = cfg or SolverConfig()
    p0 = kappa_partition(g)
    p, _ = refine_to_linked(g, p0, cfg)
    return p


def test_mark_full_keeps_all():
    g = random_graph(12, 0.4, 1)
    p = pipeline(g)
    assert mark(g, p) == frozenset(range(g.n))


def test_build_weighted_full_marking_no_contraction():
    g = random_graph(10, 0.4, 2)
    p = pipeline(g)
    wc = build_weighted(g, p, mark(g, p))
    assert wc.origin == tuple(range(g.n))
    assert all(us == () for us in wc.u_sets)
    assert wc.h.n == g.n


def test_build_weighted_single_part_contraction():
    # K7 is one part without cross edges, so the Hamiltonian kept set is
    # empty and the whole part contracts to one vertex
    g = k(7)
    p = pipeline(g)
    wc = build_weighted(g, p, hamilton.select_blue_edges(g, p))
    assert wc.h.n == 1 and wc.origin == (None,)
    assert wc.u_sets == (tuple(range(7)),)


def test_build_weighted_keeps_raw_parts_whole():
    # C6 cut into two RAW paths: nothing is contracted and no red edge is
    # added, so H is G itself
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    p = Partition((frozenset({0, 1, 2}), frozenset({3, 4, 5})),
                  (RAW, RAW), (None, None))
    for keep in (mark(g, p), hamilton.select_blue_edges(g, p)):
        wc = build_weighted(g, p, keep)
        assert wc.u_sets == ((), ()) and wc.origin == tuple(range(6))
        assert sorted(wc.h.edges()) == sorted(g.edges())


def test_outer_cover_radius_invariant():
    for seed in range(30):
        g = random_graph(40, 0.08, seed)
        k_ = 8
        a = outer_cover(g, k_, seed)
        cap = math.ceil(4.0 * k_ * math.log2(k_))
        sub, ids = g.induced(a)
        for comp in sub.components():
            cg, _ = sub.induced(comp)
            ball, _ = bfs_ball(cg, 0, cap + 1)
            assert len(ball) == cg.n  # some vertex reaches all within cap


def test_outer_cover_deterministic():
    g = random_graph(50, 0.1, 5)
    assert outer_cover(g, 8, 123) == outer_cover(g, 8, 123)


def test_outer_cover_k_guard():
    with pytest.raises(ValueError):
        outer_cover(Graph(1, []), 3, 0)


def test_outer_cover_singleton_rate():
    g = Graph(1, [])
    hits = sum(1 for t in range(2000) if outer_cover(g, 8, t) == {0})
    assert hits / 2000 >= 0.05


def test_pattern_cover_k1():
    sample = pattern_cover(Graph(1, []), 8, 0)
    assert sample.vertices == {0} and not sample.aborted


def test_pattern_cover_invariants():
    for seed in range(50):
        g = random_graph(45, 0.08, 300 + seed)
        k_ = 9
        sample = pattern_cover(g, k_, seed, d=2)
        big_r = math.ceil(4.0 * k_ ** 0.5)
        l_cap = math.ceil(k_ ** 0.5 * math.log2(k_))
        for _v, r in sample.clusters:
            assert 1 <= r <= big_r
        if sample.aborted:
            assert sample.vertices == frozenset()
        else:
            assert len(sample.boundary) <= l_cap


def test_pattern_cover_deterministic():
    g = random_graph(40, 0.1, 9)
    a = pattern_cover(g, 8, 77)
    b = pattern_cover(g, 8, 77)
    assert a == b


def test_pattern_cover_abort_path():
    # dense graph, tiny k: boundaries are huge, so a seed that triggers the
    # rare boundary sampling overflows the pool; 12 888 is the first seed
    # that does, so the scan starts there
    g = random_graph(60, 0.5, 1)
    hit = None
    for seed in range(12_888, 20_000):
        s = pattern_cover(g, 4, seed)
        if s.aborted:
            hit = s
            break
    assert hit is not None
    assert hit.vertices == frozenset()
    assert hit.records[-1]["aborted"] is True


def test_covers_match_their_golden_digest():
    # both covers on fixed G(n, p) and geometric graphs, every field of the
    # pattern cover included: a change to the carving, or to the order in
    # which it draws from its generator, changes the digest
    h = hashlib.sha256()
    for s in range(3):
        for g in (
            random_graph(40, 0.1, s),
            random_graph(30, 0.4, 10 + s),
            intersection_graph(generate_instance(
                d=2, beta=1.0, n=50, box_side=1.2 * math.sqrt(50), seed=s)),
            intersection_graph(generate_instance(
                d=2, beta=2.0, n=40, box_side=math.sqrt(40), shape_mix=0.5, seed=s)),
        ):
            for k_ in (4, 8, 17, 30):
                for seed in range(4):
                    h.update(repr(sorted(outer_cover(g, k_, seed))).encode())
                    c = pattern_cover(g, k_, seed)
                    h.update(repr((sorted(c.vertices), c.clusters, sorted(c.boundary),
                                   c.aborted, c.seed, c.records)).encode())
    assert h.hexdigest() == "543dd42398d237db23cf60fccc933fc8279598dec8fc2bf34271e9a0fbcd6ea7"


def test_weighted_dp_path_graph():
    g = path(6)
    td = heuristic_decomposition(g)
    cert = weighted_longpath_dp(g, td, 6)
    assert cert is not None and len(cert.vertices) == 6


def test_weighted_dp_matches_oracle():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        g = random_graph(n, rng.uniform(0.2, 0.7), seed)
        best, _ = longest_path_exact(g)
        td = heuristic_decomposition(g)
        # a path on two or more vertices has an edge, which the DP needs
        for target in {2, max(best, 2), best + 1}:
            cert = weighted_longpath_dp(g, td, target)
            assert (cert is not None) == (target <= best), (seed, target)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= target, (seed, target)


def test_solve_k1_target():
    g = random_graph(8, 0.3, 1)
    cert = solve_long_path(g, 1)
    assert cert is not None and len(cert.vertices) >= 1


def test_solve_p20_full_recovery():
    g = path(20)
    cert = solve_long_path(g, 20, seed=0)
    assert cert is not None
    assert cert.validate(g) and len(cert.vertices) == 20


def test_solve_too_large_k():
    assert solve_long_path(path(5), 6) is None


def test_solve_rejects_k_below_one():
    # every path has at least 0 vertices, so k < 1 asks no question
    for k_ in (0, -2):
        with pytest.raises(ValueError, match="k must be >= 1"):
            solve_long_path(path(5), k_)


def test_solve_rejects_without_a_k_vertex_component(monkeypatch):
    # two disjoint P5s: no path has 6 vertices, and no component says so
    # before any search runs or any partition is built
    g = Graph(10, [(i, i + 1) for i in (0, 1, 2, 3, 5, 6, 7, 8)])

    def partition(*args, **kwargs):
        raise AssertionError("the partition was built")

    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(longpath, "kappa_partition", partition)
    monkeypatch.setattr(longpath, "_dfs_longpath", search)
    assert solve_long_path(g, 6) is None
    # forests of components of 1 to 5 vertices, isolated vertices included
    rng = random.Random(9700)
    for case in range(40):
        parts = [random_graph(rng.randint(1, 5), 0.7, 9700 + 50 * case + i)
                 for i in range(rng.randint(1, 12))]
        forest = disjoint_union(parts)
        for k_ in range(6, 9):
            assert solve_long_path(forest, k_) is None, (case, k_)
    monkeypatch.undo()
    cert = solve_long_path(g, 5)
    assert cert is not None and cert.validate(g) and len(cert) == 5


def relabelled(g, perm):
    """g with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_search_starts_in_the_first_component_of_k_vertices(monkeypatch):
    # components of fewer than k vertices around one larger component at
    # low, middle, high and shuffled ids: every solve is decided by the
    # budgeted search, with the certificate of the unbudgeted search from
    # vertex 0, which tries the smaller components first
    def partition(*args, **kwargs):
        raise AssertionError("the partition was built")

    search = longpath._dfs_longpath
    monkeypatch.setattr(longpath, "kappa_partition", partition)
    rng = random.Random(9900)
    found = 0
    for case in range(30):
        k0 = rng.randint(4, 7)
        nb = rng.randint(k0 + 1, 11)
        tree = [(v, rng.randrange(v)) for v in range(1, nb)]
        big = Graph(nb, tree + [tuple(rng.sample(range(nb), 2)) for _ in range(3)])
        small = [random_graph(rng.randint(1, k0 - 1), 0.6, 9900 + 20 * case + i)
                 for i in range(rng.randint(2, 8))]
        mid = len(small) // 2
        layouts = [[big] + small, small[:mid] + [big] + small[mid:], small + [big]]
        graphs = [disjoint_union(parts) for parts in layouts]
        perm = list(range(graphs[0].n))
        rng.shuffle(perm)
        graphs.append(relabelled(graphs[0], perm))
        for where, g in enumerate(graphs):
            for k_ in (k0, k0 + 1, nb):
                want = search(g, k=k_)
                assert solve_long_path(g, k_) == want, (case, where, k_)
                found += want is not None
    assert found > 0


def test_search_decides_past_many_small_components(monkeypatch):
    # 6 000 P3s, then a P6 at the highest ids, k = 6: a search from vertex
    # 0 spends one pop per P3 and runs out of its budget; started in the P6
    # it decides the solve, with no partition built
    g = disjoint_union([path(3)] * 6000 + [path(6)])
    with pytest.raises(hamilton.SearchBudgetExceeded):
        longpath._dfs_longpath(g, k=6, budget=hamilton.SEARCH_NODES)

    def partition(*args, **kwargs):
        raise AssertionError("the partition was built")

    monkeypatch.setattr(longpath, "kappa_partition", partition)
    t0 = time.perf_counter()
    cert = solve_long_path(g, 6)
    assert time.perf_counter() - t0 < 1.0
    assert cert is not None and cert.validate(g) and len(cert) == 6
    assert min(cert.vertices) == 18_000


def test_direct_small_witnesses_are_checked(monkeypatch):
    # k <= 3 is answered without the search; a wrong witness on that branch
    # must raise, not be returned; here vertex 0 has no edge, but is told
    # every other vertex is its neighbour
    g = Graph(4, [(2, 3)])

    def lying(self, v):
        return frozenset(range(self.n)) - {v}

    monkeypatch.setattr(Graph, "neighbors", lying)
    for k_ in (2, 3):
        with pytest.raises(CertificateError):
            solve_long_path(g, k_)


def small_cases():
    """(seed, g) for the G(n,p) graphs the oracle tests run on."""
    for seed in range(12):
        rng = random.Random(9000 + seed)
        n = rng.randint(5, 12)
        yield seed, random_graph(n, rng.uniform(0.2, 0.6), 9000 + seed)


def test_solve_matches_oracle_small():
    bad = 0
    for seed, g in small_cases():
        best, _ = longest_path_exact(g)
        for k_ in range(1, g.n + 1):
            cert = solve_long_path(g, k_, seed=seed)
            if cert is not None:
                assert cert.validate(g) and len(cert.vertices) >= k_
                assert k_ <= best  # soundness is unconditional
            elif k_ <= best:
                bad += 1
    assert bad == 0


def test_search_decides_g_before_the_partition(monkeypatch):
    def partition(*args, **kwargs):
        raise AssertionError("the partition was built")

    monkeypatch.setattr(longpath, "kappa_partition", partition)
    for seed, g in small_cases():
        best, _ = longest_path_exact(g)
        for k_ in range(4, g.n + 1):
            cert = solve_long_path(g, k_, seed=seed)
            assert (cert is not None) == (k_ <= best), (seed, k_)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k_, (seed, k_)


def test_solve_matches_oracle_past_the_budget(monkeypatch):
    # with no budget every solve with k >= 4 and a k-vertex component runs
    # the partition pipeline; n <= 12 keeps it on the exact route
    partitions = 0
    inner = longpath.kappa_partition

    def counted(*args, **kwargs):
        nonlocal partitions
        partitions += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(longpath, "kappa_partition", counted)
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    for seed, g in small_cases():
        best, _ = longest_path_exact(g)
        for k_ in range(1, g.n + 1):
            cert = solve_long_path(g, k_, seed=seed)
            assert (cert is not None) == (k_ <= best), (seed, k_)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k_, (seed, k_)
    assert partitions > 0


def test_search_is_not_repeated_on_h_equal_to_g(monkeypatch):
    # mark keeps every vertex, so H is G when it has no more edges; the
    # budgeted search, already run out on G, must then not run on H
    budgeted = []
    h_edges = []
    search, contract = longpath._dfs_longpath, longpath.build_weighted

    def spy_search(h, **kwargs):
        if kwargs.get("budget") is not None:
            budgeted.append(h)
        return search(h, **kwargs)

    def spy_contract(*args, **kwargs):
        wc = contract(*args, **kwargs)
        h_edges.append(wc.h.m)
        return wc

    monkeypatch.setattr(longpath, "_dfs_longpath", spy_search)
    monkeypatch.setattr(longpath, "build_weighted", spy_contract)
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 1)
    seen = set()
    for cfg in (SolverConfig(), SolverConfig(g_threshold=1)):
        for seed, g in small_cases():
            best, _ = longest_path_exact(g)
            for k_ in (best, best + 1):
                budgeted.clear()
                h_edges.clear()
                cert = solve_long_path(g, k_, cfg, seed=seed)
                assert (cert is not None) == (k_ <= best), (seed, k_)
                if k_ <= 3 or not h_edges:
                    continue
                # one search on G, then one on each contraction that is not G
                assert budgeted[0] is g, (seed, k_)
                assert len(budgeted) == 1 + sum(m != g.m for m in h_edges), (seed, k_)
                seen.update(m == g.m for m in h_edges)
    assert seen == {True, False}


def test_solve_geometric_sound():
    for seed in range(10):
        inst = generate_instance(d=2, beta=2.0, n=12, box_side=7.0, seed=seed)
        g = intersection_graph(inst)
        best, _ = longest_path_exact(g)
        cert = solve_long_path(g, max(4, best), seed=seed)
        if cert is not None:
            assert cert.validate(g) and len(cert.vertices) >= max(4, best)


def test_search_on_h_decides_past_the_budget_on_g(monkeypatch):
    # a dense unit-disk graph whose search runs out on G; H, with its linked
    # parts made cliques, has more edges and the search on it finds a
    # 60-vertex path, which the lift turns into one of G
    g = intersection_graph(generate_instance(
        d=2, beta=1.0, n=60, box_side=0.7 * math.sqrt(60), seed=1))
    searched = []
    search = longpath._dfs_longpath

    def spy(h, **kwargs):
        searched.append(h)
        return search(h, **kwargs)

    def decomposition(*args, **kwargs):
        raise AssertionError("G was decomposed")

    monkeypatch.setattr(longpath, "_dfs_longpath", spy)
    monkeypatch.setattr(longpath, "heuristic_decomposition", decomposition)
    with pytest.raises(hamilton.SearchBudgetExceeded):
        search(g, k=60, budget=hamilton.SEARCH_NODES)
    cert = solve_long_path(g, 60)
    assert cert is not None and cert.validate(g) and len(cert) == 60
    assert searched[0] is g and len(searched) == 2 and searched[1].m > g.m


def test_failed_lift_falls_through_to_g(monkeypatch):
    # the search runs out on G alone and every lift from H fails, so every
    # verdict past the search on H comes from G itself
    search = longpath._dfs_longpath
    lifts = 0

    def search_h(h, **kwargs):
        if h is g:
            raise hamilton.SearchBudgetExceeded(0)
        return search(h, **kwargs)

    def blame(g_, p, wc, cert_h, hamiltonian):
        nonlocal lifts
        lifts += 1
        raise FallbackRequired(wc.part_of_h[cert_h.vertices[0]])

    monkeypatch.setattr(longpath, "_dfs_longpath", search_h)
    monkeypatch.setattr(longpath, "_expand", blame)
    # g_threshold=1 makes linked parts, and so an H with more edges than G
    for cfg, (seed, g) in itertools.product(
            (SolverConfig(), SolverConfig(g_threshold=1)), small_cases()):
        best, _ = longest_path_exact(g)
        for k_ in (best, best + 1):
            cert = solve_long_path(g, k_, cfg, seed=seed)
            assert (cert is not None) == (k_ <= best), (seed, k_)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k_, (seed, k_)
    assert lifts > 0


def test_cover_route_certificates_validate(monkeypatch):
    # no budget and a width cap of 1 send every graph of more than 24
    # vertices past H to the cover route, whose pieces are mapped back to G
    covers = 0
    inner = longpath.outer_cover

    def counted(*args, **kwargs):
        nonlocal covers
        covers += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(longpath, "outer_cover", counted)
    monkeypatch.setattr(longpath, "DP_WIDTH_CAP", 1)
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    found = 0
    for seed in range(4):
        g = intersection_graph(generate_instance(
            d=2, beta=1.0, n=40, box_side=1.2 * math.sqrt(40), seed=seed))
        assert max(map(len, g.components())) > 24, seed
        for k_ in (4, 6, 8):
            cert = solve_long_path(g, k_, seed=seed)
            if cert is not None:
                found += 1
                assert cert.validate(g) and len(cert) >= k_, (seed, k_)
    assert covers > 0 and found > 0


def test_components_of_k_vertices_skip_the_cover_route(monkeypatch):
    # no budget and a width cap of 1 send these graphs past H to G's wide
    # route; every component of at least k vertices has exactly k, so a
    # k-path is a Hamiltonian path of one of them and the covers never run
    def cover_route(*args, **kwargs):
        raise AssertionError("the cover route ran")

    decided = 0
    inner = hamilton.solve_hamiltonian_path

    def counted(*args, **kwargs):
        nonlocal decided
        decided += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(longpath, "_cover_route", cover_route)
    monkeypatch.setattr(hamilton, "solve_hamiltonian_path", counted)
    monkeypatch.setattr(longpath, "DP_WIDTH_CAP", 1)
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    rng = random.Random(9800)
    verdicts = set()
    for case in range(12):
        k_ = rng.randint(13, 14)
        comps = []
        while len(comps) < 2 + case % 2:
            if rng.random() < 0.5:
                # a random tree with two more edges: many leaves, often no
                # Hamiltonian path
                tree = [(v, rng.randrange(v)) for v in range(1, k_)]
                c = Graph(k_, tree + [tuple(rng.sample(range(k_), 2)) for _ in "ab"])
            else:
                c = random_graph(k_, rng.uniform(0.15, 0.4), rng.randrange(1 << 30))
            if c.is_connected():
                comps.append(c)
        comps += [random_graph(rng.randint(1, k_ - 1), 0.5, rng.randrange(1 << 30))
                  for _ in range(3)]
        # the components' vertices interleave in G's ids
        union = disjoint_union(comps)
        label = list(range(union.n))
        rng.shuffle(label)
        g = Graph(union.n, [(label[u], label[v]) for u, v in union.edges()])
        # the oracle per component, since G is past its size guard
        best = max(longest_path_exact(g.induced(comp)[0])[0]
                   for comp in g.components())
        cert = solve_long_path(g, k_, seed=case)
        assert (cert is not None) == (k_ <= best), case
        if cert is not None:
            assert cert.validate(g) and len(cert) >= k_, case
        verdicts.add(cert is not None)
    assert verdicts == {True, False} and decided > 0
