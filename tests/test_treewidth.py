import itertools
import random

import networkx as nx
from hypothesis import given, settings, strategies as st
from networkx.algorithms.approximation import treewidth_min_fill_in

from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph
from fatpath.oracle import treewidth_exact
from fatpath.treewidth import TreeDecomposition, heuristic_decomposition, validate

from helpers import random_graph


def grid(rows, cols):
    def idx(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    return Graph(rows * cols, edges)


def test_validate_single_bag():
    td = TreeDecomposition((frozenset({0, 1, 2}),), ())
    assert validate(Graph(3, [(0, 1), (1, 2), (0, 2)]), td)


def test_validate_uncovered_edge():
    td = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),))
    assert not validate(Graph(3, [(0, 1), (1, 2)]), td)


def test_validate_disconnected_occurrence():
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        ((0, 1), (1, 2)),
    )
    # vertex 0 appears in bags 0 and 2, which are not adjacent
    assert not validate(Graph(3, [(0, 1), (1, 2), (0, 2)]), td)


def test_heuristic_tree_width_one():
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    td = heuristic_decomposition(tree)
    assert validate(tree, td)
    assert td.width == 1


def test_heuristic_complete():
    g = Graph(6, list(itertools.combinations(range(6), 2)))
    td = heuristic_decomposition(g)
    assert validate(g, td)
    assert td.width == 5


def test_heuristic_grid_5x5():
    g = grid(5, 5)
    td = heuristic_decomposition(g)
    assert validate(g, td)
    assert td.width <= 6  # exact treewidth is 5; allow heuristic slack


def test_heuristic_matches_exact_small():
    for seed in range(12):
        g = random_graph(9, 0.35, seed)
        td = heuristic_decomposition(g)
        assert validate(g, td)
        assert td.width >= treewidth_exact(g)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 18))
def test_heuristic_always_valid(seed, n):
    g = random_graph(n, 0.3, seed)
    td = heuristic_decomposition(g)
    assert validate(g, td)


def test_heuristic_is_networkx_min_fill():
    # networkx's min-fill decomposition in canonical form: the same width,
    # bags and tree edges, with the bags sorted by their sorted tuples and
    # the tree edges as sorted index pairs
    graphs = [Graph(n, []) for n in range(3)] + [Graph(2, [(0, 1)]), Graph(7, [])]
    graphs += [Graph(n, list(itertools.combinations(range(n), 2))) for n in (3, 7)]
    for seed in range(30):
        rng = random.Random(seed)
        graphs.append(random_graph(rng.randint(0, 30), rng.random(), seed))
    for seed in range(20):
        n = 20 + 4 * seed
        graphs.append(intersection_graph(generate_instance(
            d=2, beta=2.0, n=n, box_side=0.9 * n ** 0.5, shape_mix=0.5, seed=seed)))
    for i, g in enumerate(graphs):
        td = heuristic_decomposition(g)
        assert validate(g, td), i
        keys = [tuple(sorted(bag)) for bag in td.bags]
        assert keys == sorted(keys), i
        assert list(td.tree_edges) == sorted(td.tree_edges), i
        assert all(a < b for a, b in td.tree_edges), i
        if g.n == 0:  # networkx gives one empty bag; the package gives none
            assert td == TreeDecomposition((), ()), i
            continue
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        width, dec = treewidth_min_fill_in(h)
        assert td.width == width, i
        assert len(td.bags) == len(dec) and set(td.bags) == set(dec), i
        tree = {frozenset((td.bags[a], td.bags[b])) for a, b in td.tree_edges}
        assert tree == set(map(frozenset, dec.edges)), i


def test_decomposition_is_stored_on_the_graph():
    g = grid(4, 5)
    td = heuristic_decomposition(g)
    assert heuristic_decomposition(g) is td
    # an equal graph is another object and computes its own
    twin = Graph(g.n, list(g.edges()))
    assert twin == g
    td_twin = heuristic_decomposition(twin)
    assert td_twin is not td and td_twin == td
    assert heuristic_decomposition(twin) is td_twin
