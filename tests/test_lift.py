"""The shared lift from a compressed witness back to the input graph.

At g_threshold=1 the refined partitions have many small linked parts, so
spanning linkages fail often and both solvers go through fallback rounds:
the blamed part is kept whole and the solve is retried.
"""

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
from fatpath.partition import SolverConfig
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
