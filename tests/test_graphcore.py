import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from fatpath.graphs import (
    Graph,
    bfs_ball,
    find_separator_leq,
    greedy_mis,
    read_graph,
    vertex_connectivity,
    write_graph,
)
from fatpath.oracle import separator_enum

from helpers import (
    independence_number_exact,
    random_graph,
    reference_edges,
    reference_neighbour_lists,
)

PETERSEN = Graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
])


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_ball_r1_is_vertex_plus_neighbors():
    g = random_graph(12, 0.3, 1)
    for v in range(12):
        ball, boundary = bfs_ball(g, v, 1)
        assert ball == {v}
        assert boundary == set(g.neighbors(v))


def test_ball_p3():
    g = path(3)
    ball, boundary = bfs_ball(g, 0, 2)
    assert ball == {0, 1} and boundary == {2}


def test_ball_matches_shortest_path_oracle():
    g = random_graph(30, 0.12, 7)
    h = nx.Graph(list(g.edges()))
    h.add_nodes_from(range(30))
    for v in range(30):
        dist = nx.single_source_shortest_path_length(h, v)
        for r in range(1, 7):
            ball, boundary = bfs_ball(g, v, r)
            assert ball == {u for u, d in dist.items() if d < r}
            assert boundary == {u for u, d in dist.items() if d == r}
    # within a vertex subset: the ball and the components of the induced
    # subgraph, in g's ids
    rng = random.Random(7)
    for size in (1, 5, 12, 20, 30):
        within = set(rng.sample(range(30), size))
        sub, ids = g.induced(within)
        assert g.components(within) == [[ids[x] for x in c] for c in sub.components()]
        for x in range(sub.n):
            for r in range(1, 7):
                ball, boundary = bfs_ball(sub, x, r)
                assert bfs_ball(g, ids[x], r, within) == (
                    {ids[u] for u in ball}, {ids[u] for u in boundary})
        outside = min(set(range(30)) - within, default=None)
        if outside is not None:
            with pytest.raises(ValueError):
                bfs_ball(g, outside, 1, within)


def test_mis_k5_singleton():
    assert len(greedy_mis(k(5))) == 1


def test_mis_edgeless():
    assert greedy_mis(Graph(4, [])) == {0, 1, 2, 3}


def test_mis_c5_frozen():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert greedy_mis(c5) == {0, 2}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000))
def test_mis_independent_and_maximal(seed):
    g = random_graph(14, 0.3, seed)
    s = greedy_mis(g)
    for u in s:
        assert not (set(g.neighbors(u)) & s)
    for v in range(g.n):
        if v not in s:
            assert set(g.neighbors(v)) & s


def test_connectivity_complete():
    assert vertex_connectivity(k(6)) == 5


def test_connectivity_path():
    assert vertex_connectivity(path(4)) == 1


def test_connectivity_petersen():
    assert vertex_connectivity(PETERSEN) == 3


def test_connectivity_petersen_brute_force():
    # no separator of size < 3 exists
    g = PETERSEN
    for size in range(3):
        for sep in itertools.combinations(range(10), size):
            rest = [v for v in range(10) if v not in sep]
            sub, _ = g.induced(rest)
            assert sub.is_connected()


def test_connectivity_at_most_min_degree():
    # ten graphs on 12 vertices plus 45 of other sizes and densities; each
    # is also checked against networkx's node connectivity
    inputs = [(12, 0.4, seed) for seed in range(10)]
    inputs += [(4 + s % 11, (0.2, 0.4, 0.7)[s % 3], 200 + s) for s in range(45)]
    for n, p, seed in inputs:
        g = random_graph(n, p, seed)
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(n))
        assert vertex_connectivity(g) == nx.node_connectivity(h)
        if not g.is_connected() or g.m == n * (n - 1) // 2:
            continue
        assert vertex_connectivity(g) <= min(g.degrees())


def test_separator_k5_absent():
    assert find_separator_leq(k(5), frozenset(range(5)), 3) is None


def test_separator_cut_vertex():
    # two triangles joined at vertex 0
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert find_separator_leq(g, frozenset(range(5)), 1) == {0}
    # P5 has three cut vertices; the first nonadjacent pair's cut is kept
    assert find_separator_leq(path(5), frozenset(range(5)), 1) == {1}


def test_separator_agrees_with_enumeration():
    for seed in range(15):
        g = random_graph(20, 0.18, 100 + seed)
        comp = max(g.components(), key=len)
        if len(comp) < 4:
            continue
        x = frozenset(comp)
        found = find_separator_leq(g, x, 2)
        exists = False
        for size in range(3):
            for sep in itertools.combinations(sorted(x), size):
                rest = x - set(sep)
                if not rest:
                    continue
                sub, _ = g.induced(rest)
                if len(sub.components()) > 1:
                    exists = True
                    break
            if exists:
                break
        assert (found is not None) == exists
        if found is not None:
            sub, _ = g.induced(x - found)
            assert len(sub.components()) > 1
    # minimum size against subset enumeration, at every cap up to 3
    for seed in range(30):
        g = random_graph(6 + seed % 9, (0.3, 0.5, 0.7)[seed % 3], 300 + seed)
        x = frozenset(max(g.components(), key=len))
        for cap in range(4):
            found = find_separator_leq(g, x, cap)
            ref = separator_enum(g, x, cap)
            assert (found is None) == (ref is None), (seed, cap)
            assert found is None or len(found) == len(ref), (seed, cap)


def test_alpha_complete():
    assert independence_number_exact(k(7)) == 1


def test_alpha_c5():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert independence_number_exact(c5) == 2


def test_alpha_petersen():
    assert independence_number_exact(PETERSEN) == 4


def test_alpha_guard():
    with pytest.raises(ValueError):
        independence_number_exact(Graph(31, []))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5000), r=st.integers(1, 5))
def test_ball_monotone(seed, r):
    g = random_graph(15, 0.25, seed)
    v = seed % 15
    ball, boundary = bfs_ball(g, v, r)
    ball2, _ = bfs_ball(g, v, r + 1)
    assert ball <= ball2
    assert ball2 == ball | boundary


def test_graph_file_round_trip():
    g = random_graph(17, 0.3, 5)
    text = write_graph(g)
    assert text.splitlines()[0] == f"p 17 {g.m}"
    again = read_graph(text)
    assert write_graph(again) == text
    # graphs built from shuffled edge lists: the text read back writes
    # itself again, line for line
    rng = random.Random(31)
    for trial in range(300):
        n = rng.randint(2, 40)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3]
        rng.shuffle(edges)
        text = write_graph(Graph(n, edges))
        assert write_graph(read_graph(text)) == text, trial


def test_read_graph_malformed():
    with pytest.raises(ValueError):
        read_graph("p 3\ne 0 1\n")
    with pytest.raises(ValueError):
        read_graph("p 3 1\ne 0 5\n")


@pytest.mark.parametrize("text", [
    "p 3 x\ne 0 1\n",   # a count that is no int
    "p 3 -2\ne 0 1\n",  # a negative count
    "p 3 7\ne 0 1\n",   # more edges promised than listed
    "p 3 0\ne 0 1\n",   # fewer
])
def test_read_graph_checks_the_edge_count(text):
    with pytest.raises(ValueError):
        read_graph(text)


def test_read_graph_counts_repeated_edge_records():
    g = read_graph("p 3 2\ne 0 1\ne 1 0\n")
    assert g.m == 1 and list(g.edges()) == [(0, 1)]


def test_neighbour_order_is_first_occurrence_order():
    # shuffled edge lists with repeated and reversed pairs: neighbors() and
    # edges() follow the order the edge list first names each neighbour
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(0, 70)
        p = rng.random() * 0.6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        edges += [rng.choice(edges) for _ in range(len(edges) // 3)] if edges else []
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        g = Graph(n, edges)
        ref = reference_neighbour_lists(n, edges)
        assert [list(g.neighbors(v)) for v in range(n)] == ref, trial
        assert list(g.edges()) == reference_edges(ref), trial
        assert g.m == len(reference_edges(ref))
        masks = g.adjacency_masks()
        assert masks == [sum(1 << w for w in a) for a in ref], trial
        masks[:] = [0] * n
        assert g.adjacency_masks() == [sum(1 << w for w in a) for a in ref]
        assert g.degrees() == [len(a) for a in ref]
        assert all(g.has_edge(u, v) == (v in ref[u]) for u in range(n) for v in range(n))
        again = Graph(n, rng.sample(edges, len(edges)))
        assert again == g and hash(again) == hash(g), trial


def test_numpy_vertex_ids_are_refused():
    # a fixed-width shift would drop the bits of ids past 63
    np = pytest.importorskip("numpy")
    with pytest.raises(TypeError):
        Graph(100, [(np.int64(0), np.int64(70))])


def test_large_sparse_graph_stays_linear():
    # a path on 20 000 vertices: the masks are n^2 / 16 bytes in all, but
    # nothing may scan bit positions one by one
    n = 20_000
    t0 = time.perf_counter()
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    assert g.m == n - 1
    assert g.degrees() == [1] + [2] * (n - 2) + [1]
    assert sum(1 for _ in g.edges()) == n - 1
    assert sorted(g.neighbors(n // 2)) == [n // 2 - 1, n // 2 + 1]
    assert time.perf_counter() - t0 < 5.0


def test_first_component_reaching_agrees_with_components():
    # sparse graphs with isolated vertices, the empty graph and every k up
    # to n + 1: the lowest vertex of the first component of k vertices, and
    # is_connected, which asks for a component of all n
    rng = random.Random(23)
    for trial in range(300):
        n = 0 if trial == 0 else rng.randint(1, 40)
        g = random_graph(n, rng.random() * 3 / max(n, 1), 7000 + trial)
        sizes = [(len(c), c[0]) for c in g.components()]
        assert g.is_connected() == (len(sizes) <= 1), trial
        for k_ in range(1, n + 2):
            want = next((low for size, low in sizes if size >= k_), None)
            assert g.first_component_reaching(k_) == want, (trial, k_)
