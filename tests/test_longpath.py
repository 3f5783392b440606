import itertools
import math
import random

import pytest

from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph, bfs_ball
from fatpath.longpath import (
    _twin_complete,
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


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def pipeline(g, cfg=None):
    cfg = cfg or SolverConfig()
    p0, _ = kappa_partition(g)
    p, _ = refine_to_linked(g, p0, cfg)
    return p


def test_mark_full_keeps_all():
    g = random_graph(12, 0.4, 1)
    p = pipeline(g)
    m = mark(g, p, "full")
    assert all(m.sets[i] == p.parts[i] for i in range(len(p.parts)))


def test_mark_bounded_single_cross_edge():
    # two triangles, one cross edge: its endpoints plus two extras per part
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    p = pipeline(g)
    m = mark(g, p, "bounded")
    for i, part in enumerate(p.parts):
        endpoint = part & {2, 3}
        assert endpoint <= m.sets[i]
        assert len(m.sets[i]) == min(len(part), len(endpoint) + 2)


def test_build_weighted_full_marking_no_contraction():
    g = random_graph(10, 0.4, 2)
    p = pipeline(g)
    wc = build_weighted(g, p, mark(g, p, "full"))
    assert wc.contracted == {}
    assert all(w == 1 for w in wc.weights)
    assert wc.h.n == _twin_complete(g, p, wc)[0].n == g.n


def test_build_weighted_single_part_contraction():
    g = k(7)
    p = pipeline(g)
    m = mark(g, p, "bounded")
    wc = build_weighted(g, p, m)
    # no cross edges: only the two extras are marked; the rest contracts
    assert len(wc.contracted) == 1
    v = wc.contracted[0]
    assert wc.weights[v] == 5


def test_build_weighted_keeps_raw_parts_whole():
    # C6 cut into two RAW paths: nothing is contracted and no red edge is
    # added, so H is G itself
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    p = Partition((frozenset({0, 1, 2}), frozenset({3, 4, 5})),
                  (RAW, RAW), (None, None), "test")
    for strategy in ("full", "bounded"):
        wc = build_weighted(g, p, mark(g, p, strategy))
        assert wc.contracted == {}
        assert sorted(wc.h.edges()) == sorted(g.edges())


def test_twin_completion():
    for seed in range(40):
        g = random_graph(13, 0.35, 200 + seed)
        comp = max(g.components(), key=len)
        sub, _ = g.induced(comp)
        p = pipeline(sub)
        for raw in (frozenset(), frozenset({0})):
            wc = build_weighted(sub, p, mark(sub, p, "bounded"), raw)
            hc, order = _twin_complete(sub, p, wc)
            at = {hv: x for x, hv in enumerate(order)}
            assert sorted(order) == list(range(wc.h.n))
            # numbered part by part
            assert [wc.part_of_h[hv] for hv in order] == sorted(wc.part_of_h)
            for a, b in wc.h.edges():
                assert hc.has_edge(at[a], at[b])
            # every input cross edge is there, a contracted vertex standing
            # for its whole set
            to_h = {v: hv for hv, v in enumerate(wc.origin) if v is not None}
            for i, hv in wc.contracted.items():
                to_h.update((v, hv) for v in wc.u_sets[i])
            for u, v in sub.edges():
                if to_h[u] != to_h[v]:
                    assert hc.has_edge(at[to_h[u]], at[to_h[v]])
            # the vertices of a part that is not raw are true twins towards
            # every part that is not raw
            members = {}
            for x, hv in enumerate(order):
                members.setdefault(wc.part_of_h[hv], []).append(x)
            raw_x = {x for i in wc.raw_parts for x in members[i]}
            for i, xs in members.items():
                if i not in wc.raw_parts:
                    hoods = {frozenset((hc.neighbors(x) | {x}) - raw_x) for x in xs}
                    assert len(hoods) == 1


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
    # rare boundary sampling overflows the pool
    g = random_graph(60, 0.5, 1)
    hit = None
    for seed in range(20_000):
        s = pattern_cover(g, 4, seed)
        if s.aborted:
            hit = s
            break
    assert hit is not None
    assert hit.vertices == frozenset()
    assert hit.records[-1]["aborted"] is True


def test_weighted_dp_path_graph():
    g = path(6)
    td = heuristic_decomposition(g)
    cert = weighted_longpath_dp(g, [1] * 6, td, 6)
    assert cert is not None and len(cert.vertices) == 6


def test_weighted_dp_single_heavy_vertex():
    g = Graph(1, [])
    cert = weighted_longpath_dp(g, [7], heuristic_decomposition(g), 7)
    assert cert is not None and cert.vertices == (0,)


def test_weighted_dp_matches_oracle():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        g = random_graph(n, rng.uniform(0.2, 0.7), seed)
        w = [rng.randint(1, 5) for _ in range(n)]
        best, _ = longest_path_exact(g, w)
        td = heuristic_decomposition(g)
        for target in {1, best, best + 1}:
            cert = weighted_longpath_dp(g, w, td, target)
            assert (cert is not None) == (target <= best)
            if cert is not None:
                assert sum(w[v] for v in cert.vertices) >= target


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


def test_solve_matches_oracle_small():
    bad = 0
    for seed in range(12):
        rng = random.Random(9000 + seed)
        n = rng.randint(5, 12)
        g = random_graph(n, rng.uniform(0.2, 0.6), 9000 + seed)
        best, _ = longest_path_exact(g, [1] * n)
        for k_ in range(1, n + 1):
            cert = solve_long_path(g, k_, seed=seed)
            if cert is not None:
                assert cert.validate(g) and len(cert.vertices) >= k_
                assert k_ <= best  # soundness is unconditional
            elif k_ <= best:
                bad += 1
    assert bad == 0


def test_solve_geometric_sound():
    for seed in range(10):
        inst = generate_instance(d=2, beta=2.0, n=12, box_side=7.0, seed=seed)
        g = intersection_graph(inst)
        best, _ = longest_path_exact(g, [1] * g.n)
        cert = solve_long_path(g, max(4, best), seed=seed)
        if cert is not None:
            assert cert.validate(g) and len(cert.vertices) >= max(4, best)
