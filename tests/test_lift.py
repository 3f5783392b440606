"""The contraction both solvers share, and the shared lift from a
witness of the contraction back to the input graph.

At g_threshold=1 the refined partitions have many small linked parts, so
spanning linkages fail often and both solvers go through fallback rounds:
the blamed part is kept whole and the solve is retried.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

import fatpath
from fatpath import hamilton, longpath
from fatpath.certificates import CertificateError
from fatpath.graphs import Graph
from fatpath.oracle import held_karp_cycle, held_karp_path, longest_path_exact
from fatpath.partition import RAW, SolverConfig, kappa_partition, refine_to_linked
from fatpath.treewidth import heuristic_decomposition


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


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
        p = refine_to_linked(sub, kappa_partition(sub)[0], SolverConfig())[0]
        owner = p.part_of()
        selections = [hamilton.select_blue_edges(sub, p, s) for s in ("all", "bounded")]
        selections += [longpath.mark(sub, p, s) for s in ("full", "bounded")]
        for sel, raw in itertools.product(selections, (frozenset(), frozenset({0}))):
            c = hamilton.compress(sub, p, sel, raw)
            h = c.h
            raw_kinds = {i for i, kind in enumerate(p.kinds) if kind == RAW}
            assert c.raw_parts == raw | raw_kinds
            assert sum(c.weights) == sub.n
            # origin and u_sets partition V(G)
            kept = [v for v in c.origin if v is not None]
            contracted = [v for us in c.u_sets for v in us]
            assert sorted(kept + contracted) == list(range(sub.n))
            # H vertices in input-id order, a contracted vertex in the slot of
            # the smallest vertex it stands for
            slots = [c.u_sets[i][0] if v is None else v
                     for v, i in zip(c.origin, c.part_of_h)]
            assert slots == sorted(slots)
            for hv, v in enumerate(c.origin):
                if v is None:
                    assert c.contracted[c.part_of_h[hv]] == hv
                    assert c.weights[hv] == len(c.u_sets[c.part_of_h[hv]])
                else:
                    assert c.part_of_h[hv] == owner[v] and c.weights[hv] == 1
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
                    # the selected vertices plus a clique
                    assert kept_i == p.parts[i] & sel.kept()
                    for a, b in itertools.combinations(vs, 2):
                        assert h.has_edge(a, b)
            # H's cross edges are exactly the G edges between kept vertices
            to_h = {v: hv for hv, v in enumerate(c.origin) if v is not None}
            cross_h = {(a, b) for a, b in h.edges()
                       if c.part_of_h[a] != c.part_of_h[b]}
            cross_g = {tuple(sorted((to_h[u], to_h[v]))) for u, v in sub.edges()
                       if owner[u] != owner[v] and u in to_h and v in to_h}
            assert cross_h == cross_g
            assert not {v for e in cross_h for v in e} & set(c.contracted.values())


def test_fallback_rounds_match_oracles(monkeypatch):
    counts = {"reconstruct": 0, "_expand": 0}
    _count_raises(monkeypatch, hamilton, "reconstruct", counts)
    _count_raises(monkeypatch, longpath, "_expand", counts)
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
        best, _ = longest_path_exact(g, [1] * n)
        for k in (best, best + 1):
            cert = longpath.solve_long_path(g, k, cfg)
            # n <= 13 keeps every contraction on the exact route
            assert (cert is not None) == (k <= best), (seed, k)
            if cert is not None:
                assert cert.validate(g) and len(cert) >= k, (seed, k)
    assert counts["reconstruct"] >= 1
    assert counts["_expand"] >= 1


def test_corrupt_dp_witness_raises_certificate_error(monkeypatch):
    # a Hamiltonian cycle of K5 that uses non-edges of C5
    corrupt = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]
    monkeypatch.setattr(hamilton, "solve_dp", lambda *args, **kwargs: corrupt)
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(CertificateError):
        hamilton.solve_hamiltonian_cycle(c5)
    with pytest.raises(CertificateError):
        hamilton.solve_hamiltonian_path(c5)


def test_corrupt_longpath_witness_raises_certificate_error(monkeypatch):
    # a 5-vertex path of K5 that uses non-edges of P6
    monkeypatch.setattr(longpath, "solve_dp",
                        lambda *args, **kwargs: [(0, 2), (2, 4), (4, 1), (1, 3)])
    p6 = Graph(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(CertificateError):
        longpath.weighted_longpath_dp(p6, [1] * 6, heuristic_decomposition(p6), 5)


def test_certificate_check_survives_python_O():
    code = (
        "from fatpath import hamilton\n"
        "from fatpath.certificates import CertificateError\n"
        "from fatpath.graphs import Graph\n"
        "hamilton.solve_dp = lambda *a, **k: [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]\n"
        "c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])\n"
        "try:\n"
        "    hamilton.solve_hamiltonian_cycle(c5)\n"
        "except CertificateError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(fatpath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert done.returncode == 0
