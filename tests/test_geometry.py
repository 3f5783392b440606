import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fatpath.geometry import (
    Ball,
    Box,
    GeometricInstance,
    empirical_growth,
    generate_instance,
    instance_from_json,
    instance_to_json,
    intersection_graph,
    objects_intersect,
    validate_fatness,
)
from fatpath.graphs import Graph


def test_fatness_unit_ball():
    assert validate_fatness(Ball((0.0, 0.0), 1.0), beta=1.0, d=2)


def test_fatness_oversized_ball():
    assert not validate_fatness(Ball((0.0, 0.0), 3.0), beta=2.0, d=2)


def test_fatness_unit_box():
    # circumradius sqrt(2) <= 1.5, inradius 1
    assert validate_fatness(Box((0.0, 0.0), (1.0, 1.0)), beta=1.5, d=2)
    assert not validate_fatness(Box((0.0, 0.0), (1.0, 1.0)), beta=1.3, d=2)


def test_fatness_dimension_mismatch():
    with pytest.raises(ValueError):
        validate_fatness(Ball((0.0, 0.0, 0.0), 1.0), beta=1.0, d=2)


def test_tangent_balls_intersect():
    inst = GeometricInstance(
        dimension=2, beta=1.0, seed=0,
        objects=(Ball((0.0, 0.0), 1.0), Ball((2.0, 0.0), 1.0)),
    )
    g = intersection_graph(inst)
    assert g.n == 2 and g.has_edge(0, 1)


def test_single_object_k1():
    inst = GeometricInstance(2, 1.0, (Ball((0.0, 0.0), 1.0),), 0)
    g = intersection_graph(inst)
    assert g.n == 1 and g.m == 0


def _exact_ball_ball(a: Ball, b: Ball) -> bool:
    # rational re-evaluation; centers/radii live on the 2^-20 grid exactly
    d2 = sum(
        (Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a.center, b.center)
    )
    return d2 <= (Fraction(a.radius) + Fraction(b.radius)) ** 2


def _exact_intersect(a, b) -> bool:
    if isinstance(a, Ball) and isinstance(b, Ball):
        return _exact_ball_ball(a, b)
    if isinstance(a, Box) and isinstance(b, Box):
        return all(
            abs(Fraction(ca) - Fraction(cb)) <= Fraction(ha) + Fraction(hb)
            for ca, cb, ha, hb in zip(a.center, b.center, a.half_extents, b.half_extents)
        )
    ball, box = (a, b) if isinstance(a, Ball) else (b, a)
    d2 = Fraction(0)
    for c, bc, h in zip(ball.center, box.center, box.half_extents):
        lo, hi = Fraction(bc) - Fraction(h), Fraction(bc) + Fraction(h)
        x = min(max(Fraction(c), lo), hi)
        d2 += (Fraction(c) - x) ** 2
    return d2 <= Fraction(ball.radius) ** 2


def test_intersection_graph_matches_exact_rational_oracle():
    inst = generate_instance(d=2, beta=2.0, n=50, box_side=18.0, shape_mix=0.5, seed=11)
    g = intersection_graph(inst)
    for i in range(50):
        for j in range(i + 1, 50):
            assert g.has_edge(i, j) == _exact_intersect(inst.objects[i], inst.objects[j])


def test_generator_beta_one_forces_unit_disks():
    inst = generate_instance(d=2, beta=1.0, n=1, box_side=10.0, shape_mix=1.0, seed=7)
    (obj,) = inst.objects
    assert isinstance(obj, Ball) and obj.radius == 1.0


def test_generator_deterministic():
    a = generate_instance(d=2, beta=2.0, n=30, box_side=15.0, shape_mix=0.5, seed=42)
    b = generate_instance(d=2, beta=2.0, n=30, box_side=15.0, shape_mix=0.5, seed=42)
    assert instance_to_json(a) == instance_to_json(b)


def test_unit_ball_distance_rule():
    # beta=1: edge iff center distance <= 2
    inst = generate_instance(d=2, beta=1.0, n=40, box_side=14.0, seed=5)
    g = intersection_graph(inst)
    for i in range(40):
        for j in range(i + 1, 40):
            d = math.dist(inst.objects[i].center, inst.objects[j].center)
            assert g.has_edge(i, j) == (d <= 2.0)


def test_generator_degree_obeys_packing_bound():
    # similarly sized objects in a square: degree bounded by area packing
    inst = generate_instance(d=2, beta=2.0, n=200, box_side=40.0, shape_mix=0.5, seed=3)
    g = intersection_graph(inst)
    # neighbors of v fit in a radius-4beta disk, each containing a disjoint
    # unit-ball core: at most (4*beta+1)^2 of them
    cap = (4 * 2.0 + 1) ** 2
    assert max(g.degrees()) <= cap


def test_growth_k1():
    assert empirical_growth(Graph(1, []), 3) == [(1, 1), (2, 1), (3, 1)]


def test_growth_p5():
    p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert empirical_growth(p5, 3) == [(1, 1), (2, 3), (3, 5)]


def test_json_round_trip():
    inst = generate_instance(d=3, beta=2.5, n=12, box_side=9.0, shape_mix=0.4, seed=9)
    again = instance_from_json(instance_to_json(inst))
    assert instance_to_json(again) == instance_to_json(inst)
    assert intersection_graph(again).m == intersection_graph(inst).m


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_intersection_symmetric_irreflexive(seed):
    inst = generate_instance(d=2, beta=1.5, n=12, box_side=8.0, shape_mix=0.5, seed=seed)
    g = intersection_graph(inst)
    for u, v in g.edges():
        assert u != v
        assert objects_intersect(inst.objects[u], inst.objects[v])
        assert objects_intersect(inst.objects[v], inst.objects[u])


# ------------------------------------------------ generator golden output

GOLDEN_N_SEEDS = ((1, 0), (2, 3), (7, 1), (40, 5), (40, 12))


def _golden_digest(d: int, beta: float) -> str:
    """sha256 over the JSON of every instance of one (d, beta) cell."""
    h = hashlib.sha256()
    for mix in (0.0, 0.5, 1.0):
        for n, seed in GOLDEN_N_SEEDS:
            side = 1.7 * math.sqrt(n) + d
            h.update(instance_to_json(generate_instance(d, beta, n, side, mix, seed)).encode())
    return h.hexdigest()


# recorded from the scalar-draw generator (one numpy call per value), so a
# rewrite of the draws must reproduce its objects bit for bit
GOLDEN = {
    (1, 1.0): "0cdda80dcac67429b7cbb950a4fa50e9babfe7b136e70d19077a9f6c083fbd0e",
    (1, 2.0): "e8cc12b694eaf54b2d15605a49d3fa1ab2747acc7f58c760b28c9974ab200309",
    (1, 2.5): "2db6861553bac6ea397657e62a9cf91806f3e3e342be0f5e3101e9928ca5667b",
    (2, 1.0): "f8aa3aaff2e87a3c6094e34e54c1050e051519915b5aee68bac56f650ba3a29e",
    (2, 2.0): "1c0ed603f56cac7096c98aefa0c4593ba8b9110fcce97c7cc8d895c3a453595a",
    (2, 2.5): "13784253ab049a956930c347465b2f0f25c56135123fde2ce2884055b70ceb7a",
    (3, 1.0): "045e38ec5e92ec6b0b72010617af6546866167b095272500efff1ffbc831d833",
    (3, 2.0): "2ec7b5964fecaaea492ae18075b13c88482fcc9841b87680a610637b591c99ee",
    (3, 2.5): "a9ec668522c5bc7cf6bbb8f8225cd9e0234061dcc294e8304addab092e1b3d75",
}


@pytest.mark.parametrize("d,beta", sorted(GOLDEN))
def test_generator_matches_golden_hashes(d, beta):
    assert _golden_digest(d, beta) == GOLDEN[d, beta]


# ----------------------------------------- intersection graph vs all pairs


def _random_objects(rng: random.Random, d: int, beta: float, n: int) -> list:
    """Unsnapped random objects with duplicate centres, shared first
    coordinates and pairs that touch along the first axis."""
    hmax = beta / math.sqrt(d)
    side = rng.uniform(0.5, 3.0) * max(1.0, n ** (1.0 / d))
    objs = []
    for i in range(n):
        center = [rng.uniform(-side, side) for _ in range(d)]
        roll = rng.random()
        if objs and roll < 0.15:
            center = list(rng.choice(objs).center)  # duplicate centre
        elif objs and roll < 0.3:
            center[0] = rng.choice(objs).center[0]  # equal first coordinate
        if hmax >= 1.0 and rng.random() < 0.5:
            obj = Box(tuple(center), tuple(rng.uniform(1.0, hmax) for _ in range(d)))
        else:
            obj = Ball(tuple(center), rng.choice((1.0, beta, rng.uniform(1.0, beta))))
        if objs and 0.3 <= roll < 0.45:
            # touch a previous object along the first axis
            other = rng.choice(objs)
            reach = (obj.radius if isinstance(obj, Ball) else obj.half_extents[0]) + (
                other.radius if isinstance(other, Ball) else other.half_extents[0])
            moved = (other.center[0] + reach,) + other.center[1:]
            obj = Ball(moved, obj.radius) if isinstance(obj, Ball) else Box(moved, obj.half_extents)
        objs.append(obj)
    return objs


def test_intersection_graph_matches_all_pairs_reference():
    rng = random.Random(2024)
    cases = [(d, n) for d in (1, 2, 3) for n in (0, 1, 2)]
    cases += [(rng.randint(1, 3), rng.randint(3, 60)) for _ in range(150)]
    for case, (d, n) in enumerate(cases):
        beta = rng.choice((1.0, 1.5, 2.0, 3.0))
        inst = GeometricInstance(d, beta, tuple(_random_objects(rng, d, beta, n)))
        g = intersection_graph(inst)
        objs = inst.objects
        ref = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                        if objects_intersect(objs[i], objs[j])])
        assert g.n == ref.n and g.m == ref.m, case
        # the same neighbours in the same order: the edges reach Graph in
        # ascending (i, j) order, as they do in the reference
        assert [list(g.neighbors(v)) for v in range(n)] == [
            list(ref.neighbors(v)) for v in range(n)], case
