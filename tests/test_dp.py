"""The partition-matching DP, called directly in all three modes.

Each G(n,p) graph is solved under three decompositions: min-fill, one bag
holding every vertex, and the min-fill bags re-indexed so that node 0, the
root, is a leaf.  Between them they give edges whose endpoints leave the
table at different nodes, at the same node, and below join nodes.  A few
hand-built decompositions make the witness close at a join node, which the
G(n,p) cases rarely do.
"""

import random

import pytest

from helpers import random_graph
from test_search import max_path_vertices

from fatpath import dp
from fatpath.dp import solve_dp
from fatpath.graphs import Graph
from fatpath.oracle import held_karp_cycle, held_karp_path
from fatpath.treewidth import TreeDecomposition, heuristic_decomposition, validate


def gnp_cases(count, base):
    for seed in range(base, base + count):
        rng = random.Random(seed)
        yield seed, random_graph(rng.randint(3, 9), rng.uniform(0.2, 0.8), seed)


def leaf_rooted(td):
    """td with its last leaf and node 0 swapped, so the root is a leaf."""
    degree = [0] * len(td.bags)
    for a, b in td.tree_edges:
        degree[a] += 1
        degree[b] += 1
    leaf = max(i for i, d in enumerate(degree) if d <= 1)
    swap = {0: leaf, leaf: 0}
    bags = list(td.bags)
    bags[0], bags[leaf] = bags[leaf], bags[0]
    edges = tuple((swap.get(a, a), swap.get(b, b)) for a, b in td.tree_edges)
    return TreeDecomposition(tuple(bags), edges)


def decompositions(g):
    td = heuristic_decomposition(g)
    tds = (td, TreeDecomposition((frozenset(range(g.n)),), ()), leaf_rooted(td))
    for t in tds:
        assert validate(g, t)
    return tds


def test_hamiltonian_modes_match_held_karp():
    for seed, g in gnp_cases(70, 5000):
        for kind, oracle in (("cycle", held_karp_cycle), ("path", held_karp_path)):
            expected = oracle(g) is not None
            for i, td in enumerate(decompositions(g)):
                cert = solve_dp(g, td, kind)
                assert (cert is not None) == expected, (seed, kind, i)
                if cert is not None:
                    assert cert.kind == kind, (seed, kind, i)
                    assert cert.validate(g, hamiltonian=True), (seed, kind, i)


def star(root, *children):
    """A decomposition of a root bag with one child bag per argument."""
    bags = tuple(frozenset(b) for b in (root,) + children)
    return TreeDecomposition(bags, tuple((0, i) for i in range(1, len(bags))))


JOIN_CLOSURES = [
    # C6: each child builds a 0-3 segment, and the join closes the cycle
    (Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
     star({0, 3}, {0, 1, 2, 3}, {0, 3, 4, 5}), "cycle"),
    # the path 1-0-4-5-3-2: one child forgets both of its ends, the other
    # builds its middle, and the join closes it between the two final ends
    (Graph(6, [(0, 1), (0, 4), (4, 5), (3, 5), (2, 3)]),
     star({0, 3}, {0, 1, 2, 3}, {0, 3, 4, 5}), "path"),
    # the 4-cycles 0-4-1-6 and 2-5-3-7 both close at the join, which must
    # not take two closed structures; the edge 1-2 above it makes a path
    (Graph(8, [(0, 4), (1, 4), (0, 6), (1, 6), (2, 5), (3, 5), (2, 7), (3, 7), (1, 2)]),
     star({0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 6, 7}), None),
]


def test_witness_closing_at_a_join_matches_held_karp(monkeypatch):
    closed_at_join = []
    merge = dp._merge_states

    def recording(st1, mt1, d1, st2, mt2, d2, mode):
        merged = merge(st1, mt1, d1, st2, mt2, d2, mode)
        if merged is not None and merged[2] and not (d1 or d2):
            closed_at_join.append(mode)
        return merged

    monkeypatch.setattr(dp, "_merge_states", recording)
    for case, (g, td, closes_in) in enumerate(JOIN_CLOSURES):
        assert validate(g, td)
        for kind, oracle in (("cycle", held_karp_cycle), ("path", held_karp_path)):
            closed_at_join.clear()
            cert = solve_dp(g, td, kind)
            assert (cert is not None) == (oracle(g) is not None), (case, kind)
            if cert is not None:
                assert cert.validate(g, hamiltonian=True), (case, kind)
            if kind == closes_in:
                assert closed_at_join, (case, kind)


def test_longpath_mode_matches_enumeration():
    for seed, g in gnp_cases(70, 5100):
        rng = random.Random(seed)
        # the DP reports paths with at least one edge; on a graph with an
        # edge every longest path has one
        best = max_path_vertices(g) if g.m else 0
        target = rng.randint(max(1, best - 2), best + 1)
        for i, td in enumerate(decompositions(g)):
            cert = solve_dp(g, td, "longpath", target=target)
            assert (cert is not None) == (g.m > 0 and best >= target), (seed, i)
            if cert is not None:
                assert cert.kind == "path" and cert.validate(g), (seed, i)
                assert len(cert) == best, (seed, i)


def test_rejects_decomposition_missing_an_edge():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    td = TreeDecomposition((frozenset({0, 1, 2}), frozenset({2, 3})), ((0, 1),))
    for mode in ("cycle", "path", "longpath"):
        with pytest.raises(ValueError, match=r"edge \(0,3\)"):
            solve_dp(g, td, mode)


def test_rejects_decomposition_missing_a_vertex():
    # vertex 3 is isolated, so no edge check would notice it
    g = Graph(4, [(0, 1), (1, 2), (0, 2)])
    td = TreeDecomposition((frozenset({0, 1, 2}),), ())
    for mode in ("cycle", "path", "longpath"):
        with pytest.raises(ValueError, match="vertex 3"):
            solve_dp(g, td, mode)
    with pytest.raises(ValueError, match="vertex 0"):
        solve_dp(g, TreeDecomposition((), ()), "cycle")


def test_rejects_decomposition_with_disconnected_bags():
    # vertex 0 is in the bags of nodes 0 and 2, but not in node 1 between them
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})), ((0, 1), (1, 2))
    )
    for mode in ("cycle", "path", "longpath"):
        with pytest.raises(ValueError, match="vertex 0 are not connected"):
            solve_dp(g, td, mode)
