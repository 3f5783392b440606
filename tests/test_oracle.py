import itertools
import os
import subprocess
import sys

import pytest

import fatpath
from fatpath.graphs import Graph
from fatpath.oracle import (
    held_karp_cycle,
    held_karp_path,
    longest_path_exact,
    planted_clique_partition_graph,
    planted_two_clique_graph,
    separator_enum,
    treewidth_exact,
)

from helpers import random_graph


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_hk_cycle_c5():
    cert = held_karp_cycle(cycle(5))
    assert cert is not None and cert.validate(cycle(5), hamiltonian=True)


def test_hk_cycle_star_absent():
    assert held_karp_cycle(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None


def test_hk_path_p4():
    cert = held_karp_path(path(4))
    assert cert is not None and cert.validate(path(4), hamiltonian=True)


def test_hk_path_star_absent():
    assert held_karp_path(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None


def test_hk_guard():
    with pytest.raises(ValueError):
        held_karp_cycle(Graph(21, []))


def test_oracle_check_survives_python_O():
    # a broken reconstruction must raise, also where python -O strips asserts
    code = (
        "from fatpath import oracle\n"
        "from fatpath.certificates import CertificateError\n"
        "from fatpath.graphs import Graph\n"
        "oracle._recover_path = lambda *args: [0, 2, 1, 3, 4]\n"
        "c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])\n"
        "for solve in (oracle.held_karp_cycle, oracle.held_karp_path):\n"
        "    try:\n"
        "        solve(c5)\n"
        "    except CertificateError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(fatpath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert done.returncode == 0


def test_hk_cross_consistency():
    # a hamiltonian cycle implies a hamiltonian path, never the reverse
    for seed in range(30):
        g = random_graph(9, 0.4, seed)
        if held_karp_cycle(g) is not None:
            assert held_karp_path(g) is not None


def test_longest_path_p5():
    best, cert = longest_path_exact(path(5))
    assert best == 5
    assert cert is not None and cert.validate(path(5))


def test_longest_path_small_graphs():
    best, cert = longest_path_exact(Graph(1, []))
    assert best == 1 and cert.vertices == (0,)
    best, cert = longest_path_exact(Graph(2, []))
    assert best == 1 and cert.vertices == (0,)
    # a triangle and a pendant: the path ends at the pendant
    best, cert = longest_path_exact(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    assert best == 4 and 3 in (cert.vertices[0], cert.vertices[-1])
    with pytest.raises(ValueError):
        longest_path_exact(Graph(0, []))


def test_longest_path_matches_permutations():
    for seed in range(15):
        g = random_graph(7, 0.35, seed)
        best, cert = longest_path_exact(g)
        brute = 0
        for r in range(1, 8):
            for perm in itertools.permutations(range(7), r):
                if all(g.has_edge(a, b) for a, b in zip(perm, perm[1:])):
                    brute = max(brute, r)
        assert best == brute
        assert len(cert.vertices) == best and cert.validate(g)


def test_treewidth_exact_values():
    assert treewidth_exact(k(4)) == 3
    assert treewidth_exact(cycle(5)) == 2
    assert treewidth_exact(Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])) == 1
    assert treewidth_exact(Graph(1, [])) == 0


def test_separator_enum_cut_vertex():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    found = separator_enum(g, frozenset(range(5)), 1)
    assert found == frozenset({0})


def test_separator_enum_complete_absent():
    assert separator_enum(k(5), frozenset(range(5)), 3) is None


def test_planted_clique_partition_is_valid():
    for seed in range(10):
        g, parts = planted_clique_partition_graph(12, kappa=3, seed=seed)
        assert sum(len(p) for p in parts) == 12
        for part in parts:
            sub, _ = g.induced(part)
            assert sub.m == sub.n * (sub.n - 1) // 2


def test_planted_two_clique_shape():
    g = planted_two_clique_graph(5, 6, cross=4, seed=1)
    assert g.n == 11
    a, b = frozenset(range(5)), frozenset(range(5, 11))
    for part in (a, b):
        sub, _ = g.induced(part)
        assert sub.m == sub.n * (sub.n - 1) // 2
    cross = [e for e in g.edges() if (e[0] in a) != (e[1] in a)]
    assert len(cross) == 4
