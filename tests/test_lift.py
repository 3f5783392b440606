"""The contraction both solvers share, and the shared lift from a
witness of the contraction back to the input graph.

At g_threshold=1 the refined partitions have many small linked parts, so
spanning linkages fail often.  The Hamiltonian solvers then go through
fallback rounds: the blamed part is kept whole and the solve is retried.
The long path solver instead leaves the verdict to G itself.
"""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import fatpath
from fatpath import dp, hamilton, longpath
from fatpath.certificates import CertificateError, checked
from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph
from fatpath.linkage import Linkage
from fatpath.oracle import held_karp_cycle, held_karp_path, longest_path_exact
from fatpath.partition import (
    RAW,
    SolverConfig,
    kappa_partition,
    partition_to_json,
    refine_to_linked,
)
from fatpath.treewidth import heuristic_decomposition

from helpers import random_graph


def _count_raises(monkeypatch, module, name, counts):
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except Exception:
            counts[name] += 1
            raise

    monkeypatch.setattr(module, name, counted)


def test_contraction_invariants():
    for seed in range(40):
        g = random_graph(13, 0.35, 200 + seed)
        sub, _ = g.induced(max(g.components(), key=len))
        p = refine_to_linked(sub, kappa_partition(sub), SolverConfig())[0]
        owner = p.part_of()
        # the Hamiltonian kept set contracts the vertices without a cross
        # edge; long path keeps every vertex and contracts nothing
        keeps = [hamilton.select_blue_edges(sub, p), longpath.mark(sub, p)]
        assert keeps[1] == frozenset(range(sub.n))
        for keep, raw in itertools.product(keeps, (frozenset(), frozenset({0}))):
            c = hamilton.compress(sub, p, keep, raw)
            h = c.h
            raw_kinds = {i for i, kind in enumerate(p.kinds) if kind == RAW}
            assert c.raw_parts == raw | raw_kinds
            # origin and u_sets partition V(G)
            kept = [v for v in c.origin if v is not None]
            contracted = [v for us in c.u_sets for v in us]
            assert sorted(kept + contracted) == list(range(sub.n))
            # H vertices in input-id order, a contracted vertex in the slot of
            # the smallest vertex it stands for
            slots = [c.u_sets[i][0] if v is None else v
                     for v, i in zip(c.origin, c.part_of_h)]
            assert slots == sorted(slots)
            # one contracted vertex per part with a nonempty set
            contracted_hv = [hv for hv, v in enumerate(c.origin) if v is None]
            assert sorted(c.part_of_h[hv] for hv in contracted_hv) == [
                i for i, us in enumerate(c.u_sets) if us]
            if keep == frozenset(range(sub.n)):
                assert contracted_hv == []
            for hv, v in enumerate(c.origin):
                if v is not None:
                    assert c.part_of_h[hv] == owner[v]
            members = {}
            for hv, i in enumerate(c.part_of_h):
                members.setdefault(i, []).append(hv)
            for i, vs in members.items():
                kept_i = {c.origin[hv] for hv in vs} - {None}
                if i in c.raw_parts:
                    # raw parts keep exactly G's edges
                    assert kept_i == p.parts[i]
                    for a, b in itertools.combinations(vs, 2):
                        assert h.has_edge(a, b) == sub.has_edge(
                            c.origin[a], c.origin[b])
                else:
                    # the kept vertices plus a clique
                    assert kept_i == p.parts[i] & keep
                    for a, b in itertools.combinations(vs, 2):
                        assert h.has_edge(a, b)
            # H's cross edges are exactly the G edges between kept vertices
            to_h = {v: hv for hv, v in enumerate(c.origin) if v is not None}
            cross_h = {(a, b) for a, b in h.edges()
                       if c.part_of_h[a] != c.part_of_h[b]}
            cross_g = {tuple(sorted((to_h[u], to_h[v]))) for u, v in sub.edges()
                       if owner[u] != owner[v] and u in to_h and v in to_h}
            assert cross_h == cross_g
            assert not {v for e in cross_h for v in e} & set(contracted_hv)


def test_fallback_rounds_match_oracles(monkeypatch):
    counts = {"reconstruct": 0}
    _count_raises(monkeypatch, hamilton, "reconstruct", counts)
    # the search on G would decide these graphs before the partition is
    # built; with no budget the pipeline and its lift run
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    cfg = SolverConfig(g_threshold=1)
    for seed in range(45, 65):
        rng = random.Random(seed)
        n = rng.randint(8, 13)
        g = random_graph(n, rng.uniform(0.3, 0.8), seed)
        if not g.is_connected():
            continue
        for solve, oracle in ((hamilton.solve_hamiltonian_cycle, held_karp_cycle),
                              (hamilton.solve_hamiltonian_path, held_karp_path)):
            cert = solve(g, cfg)
            assert (cert is None) == (oracle(g) is None), seed
            if cert is not None:
                assert cert.validate(g, hamiltonian=True), seed
    assert counts["reconstruct"] >= 1


def test_longpath_lift_failures_fall_through_to_g(monkeypatch):
    # the search runs out on G alone, so the search on H decides first; a
    # path of H that cannot be lifted leaves the verdict to G itself
    counts = {"_expand": 0}
    _count_raises(monkeypatch, longpath, "_expand", counts)
    search = longpath._dfs_longpath

    def search_h(h, **kwargs):
        if h is g:
            raise hamilton.SearchBudgetExceeded(0)
        return search(h, **kwargs)

    monkeypatch.setattr(longpath, "_dfs_longpath", search_h)
    cfg = SolverConfig(g_threshold=1)
    for seed in range(45, 65):
        rng = random.Random(seed)
        n = rng.randint(8, 13)
        g = random_graph(n, rng.uniform(0.3, 0.8), seed)
        best, _ = longest_path_exact(g)
        for k in (best, best + 1):
            cert = longpath.solve_long_path(g, k, cfg)
            assert (cert is not None) == (k <= best), (seed, k)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k, (seed, k)
    assert counts["_expand"] >= 1


def test_corrupt_dp_witness_raises_certificate_error(monkeypatch):
    # a Hamiltonian cycle of K5 that uses non-edges of C5
    corrupt = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]
    monkeypatch.setattr(dp, "_witness", lambda *args, **kwargs: corrupt)
    # the search would decide C5 first; with no budget the DP's witness is used
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(CertificateError):
        hamilton.solve_hamiltonian_cycle(c5)
    with pytest.raises(CertificateError):
        hamilton.solve_hamiltonian_path(c5)


def test_corrupt_linkage_raises_certificate_error(monkeypatch):
    # linkage paths with their interiors reversed keep their ends; on this
    # graph the joined cycle then uses a non-edge: a solver bug, which no
    # fallback round may hide by keeping a part whole
    find = hamilton.find_spanning_linkage

    def reversed_interiors(g, req):
        link = find(g, req)
        if link is None:
            return None
        return Linkage(tuple(p[:1] + p[-2:0:-1] + p[-1:] if len(p) > 1 else p
                             for p in link.paths))

    monkeypatch.setattr(hamilton, "find_spanning_linkage", reversed_interiors)
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    dense = intersection_graph(generate_instance(
        d=2, beta=2.0, n=12, box_side=math.sqrt(12), shape_mix=0.5, seed=5))
    with pytest.raises(CertificateError):
        hamilton.solve_hamiltonian_cycle(dense, SolverConfig(g_threshold=1))


def test_corrupt_longpath_witness_raises_certificate_error(monkeypatch):
    p6 = Graph(6, [(i, i + 1) for i in range(5)])
    # a 5-vertex path of K5 that uses non-edges of P6, and a path of P6 on
    # fewer than the 5 vertices asked for
    for corrupt in ([(0, 2), (2, 4), (4, 1), (1, 3)], [(0, 1), (1, 2)]):
        monkeypatch.setattr(dp, "_witness", lambda *args, **kwargs: corrupt)
        with pytest.raises(CertificateError):
            longpath.weighted_longpath_dp(p6, heuristic_decomposition(p6), 5)


def test_checked_counts_vertices_without_weights():
    p3 = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(CertificateError):
        checked(p3, "path", [0, 1], target=3)
    assert checked(p3, "path", [0, 1, 2], target=3).vertices == (0, 1, 2)


def test_certificate_check_survives_python_O():
    code = (
        "from fatpath import dp, hamilton\n"
        "from fatpath.certificates import CertificateError\n"
        "from fatpath.graphs import Graph\n"
        "dp._witness = lambda *a, **k: [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]\n"
        "hamilton.SEARCH_NODES = 0\n"
        "c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])\n"
        "try:\n"
        "    hamilton.solve_hamiltonian_cycle(c5)\n"
        "except CertificateError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit(1)\n"
        "# a valid path of P6 on fewer than the 5 vertices asked for\n"
        "from fatpath import longpath\n"
        "from fatpath.treewidth import heuristic_decomposition\n"
        "dp._witness = lambda *a, **k: [(0, 1), (1, 2)]\n"
        "p6 = Graph(6, [(i, i + 1) for i in range(5)])\n"
        "try:\n"
        "    longpath.weighted_longpath_dp(p6, heuristic_decomposition(p6), 5)\n"
        "except CertificateError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(fatpath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert done.returncode == 0


def _past_budget_outputs(cfg):
    """Every solver output at search budget 0 (the pipeline, the DP and the
    lift) on seeded G(n, p), n = 0-12, and a few beta=2 graphs, one line per
    call: a certificate, "none", or the name of the exception raised."""
    graphs = [random_graph(n, (0.25, 0.45, 0.7)[s], 7100 + 3 * n + s)
              for n in range(13) for s in range(3)]
    for seed in range(3):
        graphs.append(intersection_graph(generate_instance(
            d=2, beta=2.0, n=10, box_side=math.sqrt(10), shape_mix=0.5, seed=seed)))
    for g in graphs:
        calls = [lambda: hamilton.solve_hamiltonian_cycle(g, cfg),
                 lambda: hamilton.solve_hamiltonian_path(g, cfg)]
        calls += [lambda k=k: longpath.solve_long_path(g, k, cfg)
                  for k in sorted({4, g.n // 2, g.n} - {0})]
        calls.append(lambda: partition_to_json(
            refine_to_linked(g, kappa_partition(g), cfg)[0]))
        for call in calls:
            try:
                out = call()
            except Exception as exc:
                out = type(exc).__name__
            yield out if isinstance(out, str) else "none" if out is None else out.serialize()


def test_past_budget_route_matches_its_golden_digest(monkeypatch):
    # with no search budget every solve takes the route past it: a change to
    # the partition, the contraction, the DP or the lift that alters any
    # verdict, certificate or part changes the first digest.  The second
    # keeps each certificate's kind alone, so only a change of verdict, part
    # or exception moves it
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    h, verdicts = hashlib.sha256(), hashlib.sha256()
    for threshold in (1, 8):
        for line in _past_budget_outputs(SolverConfig(g_threshold=threshold)):
            h.update(line.encode() + b"\n")
            if line.startswith(("cycle: ", "path: ")):
                line = line.split(":")[0]
            verdicts.update(line.encode() + b"\n")
    assert h.hexdigest() == "9bccd4afede6d95099c4bad4e7d0df74add9f94db33bcd8704632dd9d281527c"
    assert verdicts.hexdigest() == "52d7011c0ef660a22f7f76235abad04ec82cda3f8b4faf16c4ce5edcbe10022a"
