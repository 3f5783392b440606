import itertools

import pytest

from fatpath.graphs import Graph, vertex_connectivity
from fatpath.linkage import LinkageRequest, find_spanning_linkage

from helpers import independence_number_exact, is_hamiltonian_l_linked, random_graph


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_request_rejects_repeated_endpoints():
    with pytest.raises(ValueError):
        LinkageRequest(frozenset(range(4)), ((0, 0),))
    with pytest.raises(ValueError):
        LinkageRequest(frozenset(range(4)), ((0, 1), (1, 2)))


def test_k4_two_pairs():
    link = find_spanning_linkage(k(4), LinkageRequest(frozenset(range(4)), ((0, 1), (2, 3))))
    assert link is not None
    assert link.check(k(4), LinkageRequest(frozenset(range(4)), ((0, 1), (2, 3))))


def test_c6_opposite_pair_absent():
    # either 0-3 arc leaves the other arc's interior uncovered
    assert find_spanning_linkage(cycle(6), LinkageRequest(frozenset(range(6)), ((0, 3),))) is None


def test_k6_hamiltonian_pair():
    req = LinkageRequest(frozenset(range(6)), ((0, 1),))
    link = find_spanning_linkage(k(6), req)
    assert link is not None
    (p,) = link.paths
    assert p[0] == 0 and p[-1] == 1 and sorted(p) == list(range(6))


def test_linkage_checker_on_random_successes():
    for seed in range(40):
        g = random_graph(9, 0.55, seed)
        part = frozenset(range(9))
        sub, _ = g.induced(part)
        if not sub.is_connected():
            continue
        req = LinkageRequest(part, ((0, 5), (2, 7)))
        link = find_spanning_linkage(g, req)
        if link is not None:
            assert link.check(g, req)


def test_l_linked_k4():
    assert is_hamiltonian_l_linked(k(4), frozenset(range(4)), 1)


def test_l_linked_c6_false():
    assert not is_hamiltonian_l_linked(cycle(6), frozenset(range(6)), 1)


def test_l_linked_k6_two():
    assert is_hamiltonian_l_linked(k(6), frozenset(range(6)), 2)


def test_high_connectivity_implies_linked():
    # Chvatal-Erdos: connectivity above the independence number makes a
    # graph Hamiltonian-connected, which is Hamiltonian 1-linked
    checked = 0
    for seed in range(60):
        g = random_graph(8, 0.9, seed)
        if vertex_connectivity(g) >= independence_number_exact(g) + 1:
            assert is_hamiltonian_l_linked(g, frozenset(range(8)), 1), seed
            checked += 1
    assert checked >= 50


def test_linkage_matches_exhaustive_single_pair():
    # brute-force all hamiltonian s-t orders as the oracle
    for seed in range(25):
        g = random_graph(7, 0.4, seed)
        part = frozenset(range(7))
        sub, _ = g.induced(part)
        if not sub.is_connected():
            continue
        s, t = 0, 6
        exists = any(
            all(g.has_edge(a, b) for a, b in zip((s,) + perm + (t,), perm + (t,)))
            for perm in itertools.permutations(range(1, 6))
        )
        link = find_spanning_linkage(g, LinkageRequest(part, ((s, t),)))
        assert (link is not None) == exists
