"""Similarly sized fat objects in R^d and their intersection graphs.

Objects are balls or axis-aligned boxes in abstract units where every object
contains a unit ball and fits inside a radius-beta ball.  Generated centers
are snapped to a 2^-20 grid so that floating-point predicates agree with an
exact rational re-evaluation (the test oracle relies on this).

`intersection_graph` sweeps along the first axis.  With the objects sorted by
their first coordinate, object i can meet only the later objects within
r_i + r_max of it (r: circumscribed radius).  The objects are similarly
sized, so at a fixed density in a cube that window is a slab holding
O(n^(1-1/d)) objects, and the sweep lists O(n^(2-1/d)) pairs, not n^2/2.
The window pairs are built in chunks of at most max(CHUNK_PAIRS, n) pairs, so
the sweep holds O(n) memory however many pairs there are; a
circumscribed-ball test in numpy drops most pairs, and `objects_intersect`
decides the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graphs import Graph, bfs_ball

__all__ = [
    "Ball",
    "Box",
    "GeometricInstance",
    "validate_fatness",
    "objects_intersect",
    "intersection_graph",
    "generate_instance",
    "empirical_growth",
    "instance_to_json",
    "instance_from_json",
]

GRID = 1 << 20  # coordinate grid resolution: multiples of 2^-20
CHUNK_PAIRS = 1 << 16  # sweep pairs held at once, or n if that is more


def snap(x: np.ndarray) -> np.ndarray:
    """Round to the nearest multiple of 2^-20 (exact in binary floating point),
    halves to even as Python's round does."""
    return np.rint(x * GRID) / GRID


def _finite(*values: float) -> bool:
    """True iff every value is a finite number; an int too large for a float
    is not."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    @property
    def dimension(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by center and per-axis half-extents."""

    center: tuple[float, ...]
    half_extents: tuple[float, ...]

    def __post_init__(self):
        if len(self.center) != len(self.half_extents):
            raise ValueError("center and half_extents dimension mismatch")

    @property
    def dimension(self) -> int:
        return len(self.center)


FatObject = Ball | Box


def validate_fatness(obj: FatObject, beta: float, d: int) -> bool:
    """True iff a unit ball fits inside obj and obj fits in some radius-beta ball."""
    if d < 1 or beta < 1:
        raise ValueError("require d >= 1 and beta >= 1")
    if obj.dimension != d:
        raise ValueError(f"object dimension {obj.dimension} != {d}")
    if isinstance(obj, Ball):
        return 1.0 <= obj.radius <= beta
    inradius = min(obj.half_extents)
    circumradius = math.sqrt(sum(h * h for h in obj.half_extents))
    return inradius >= 1.0 and circumradius <= beta


def objects_intersect(a: FatObject, b: FatObject) -> bool:
    """Closed-set intersection; tangency counts."""
    if isinstance(a, Ball) and isinstance(b, Ball):
        d2 = sum((x - y) ** 2 for x, y in zip(a.center, b.center))
        r = a.radius + b.radius
        return d2 <= r * r
    if isinstance(a, Box) and isinstance(b, Box):
        return all(
            abs(x - y) <= ha + hb
            for x, y, ha, hb in zip(a.center, b.center, a.half_extents, b.half_extents)
        )
    ball, box = (a, b) if isinstance(a, Ball) else (b, a)
    d2 = 0.0
    for x, c, h in zip(ball.center, box.center, box.half_extents):
        gap = max(abs(x - c) - h, 0.0)
        d2 += gap * gap
    return d2 <= ball.radius * ball.radius


@dataclass(frozen=True)
class GeometricInstance:
    """An ordered family of fat objects; object i is vertex i of the graph."""

    dimension: int
    beta: float
    objects: tuple[FatObject, ...]
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1 or not _finite(self.beta) or self.beta < 1:
            raise ValueError("require dimension >= 1 and a finite beta >= 1")
        # a non-finite size fails the fatness check below
        if not _finite(*chain.from_iterable(obj.center for obj in self.objects)):
            raise ValueError("object centers must be finite")
        for i, obj in enumerate(self.objects):
            if not validate_fatness(obj, self.beta, self.dimension):
                raise ValueError(f"object {i} fails the fatness check")


def _circumradius(obj: FatObject) -> float:
    if isinstance(obj, Ball):
        return obj.radius
    return math.sqrt(sum(h * h for h in obj.half_extents))


def intersection_graph(inst: GeometricInstance) -> Graph:
    """Edge {i,j} iff objects i and j intersect (closed sets).

    A sweep along the first axis (module docstring) lists the candidate
    pairs; the edges reach Graph in ascending (i, j) order, so neighbours
    and edges() iterate in ascending order.
    """
    objs = inst.objects
    n = len(objs)
    if n < 2:
        return Graph(n, [])
    centers = np.array([o.center for o in objs], dtype=float)
    radii = np.array([_circumradius(o) for o in objs])
    order = np.argsort(centers[:, 0], kind="stable")
    xs = centers[order, 0]
    reach = radii[order] + radii.max()
    # widened far past the rounding of xs + reach, so that the float
    # comparison can only admit extra pairs, which the ball test drops
    ends = np.searchsorted(xs, xs + reach + 1e-9 * (np.abs(xs) + reach), side="right")
    counts = ends - np.arange(1, n + 1)  # later objects in each window
    last = np.cumsum(counts)  # pairs up to and including each sorted row
    keys = []
    cap = max(CHUNK_PAIRS, n)  # a row has at most n - 1 pairs, so every chunk gains one
    row = 0
    while row < n:
        done = int(last[row - 1]) if row else 0
        stop = int(np.searchsorted(last, done + cap, side="right"))
        c = counts[row:stop]
        a = np.repeat(np.arange(row, stop), c)
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(c) - c, c)
        i, j = order[a], order[b]
        # coarse prune on circumscribed balls before the exact pairwise predicate
        d2 = np.sum((centers[j] - centers[i]) ** 2, axis=1)
        near = d2 <= (radii[j] + radii[i]) ** 2
        i, j = i[near], j[near]
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
        row = stop
    pairs = np.sort(np.concatenate(keys))
    edges = [
        (i, j)
        for i, j in zip((pairs // n).tolist(), (pairs % n).tolist())
        if objects_intersect(objs[i], objs[j])
    ]
    return Graph(n, edges)


def generate_instance(
    d: int,
    beta: float,
    n: int,
    box_side: float,
    shape_mix: float = 1.0,
    seed: int = 0,
) -> GeometricInstance:
    """n random objects: centers uniform in [0, box_side]^d, sizes uniform in [1, beta].

    shape_mix, in [0, 1], is the fraction of balls (the rest are boxes).
    Deterministic in all arguments; coordinates are snapped to the 2^-20 grid.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not _finite(beta) or beta < 1:
        raise ValueError("beta must be finite and >= 1")
    if not _finite(box_side) or box_side < 0:
        raise ValueError("box_side must be finite and >= 0")
    if not 0 <= shape_mix <= 1:  # also false for NaN
        raise ValueError("shape_mix must be in [0, 1]")
    rng = np.random.default_rng(seed)
    boxes_possible = beta >= math.sqrt(d)  # h_i >= 1 forces circumradius >= sqrt(d)
    # half-extents in [1, beta/sqrt(d)] keep the circumradius <= beta
    hmax = beta / math.sqrt(d)
    # One block of draws, read in the order of one Generator.uniform call per
    # value: per object d center values, one shape value, then a radius or d
    # half-extents; the block covers the longest case.  Generator.uniform(lo,
    # hi) is lo + (hi - lo) * u on the same draws, so each kind of value is
    # computed for every draw and the loop reads the ones it needs.
    u = rng.random(n * (2 * d + 1))
    coord = snap(0.0 + (box_side - 0.0) * u).tolist()
    radius = np.clip(snap(1.0 + (beta - 1.0) * u), 1.0, beta).tolist()
    half = np.clip(snap(1.0 + (hmax - 1.0) * u), 1.0, hmax).tolist()
    shape = u.tolist()
    objects: list[FatObject] = []
    at = 0
    for _ in range(n):
        center = tuple(coord[at:at + d])
        at += d + 1
        if shape[at - 1] < shape_mix or not boxes_possible:
            objects.append(Ball(center, radius[at]))
            at += 1
        else:
            objects.append(Box(center, tuple(half[at:at + d])))
            at += d
    return GeometricInstance(d, beta, tuple(objects), seed=seed)


def empirical_growth(g: Graph, r_max: int) -> list[tuple[int, int]]:
    """For r = 1..r_max, the maximum BFS-ball size over all vertices."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    table = []
    for r in range(1, r_max + 1):
        best = 0
        for v in range(g.n):
            ball, _ = bfs_ball(g, v, r)
            best = max(best, len(ball))
        table.append((r, best))
    return table


def _obj_to_dict(obj: FatObject) -> dict:
    if isinstance(obj, Ball):
        return {"type": "ball", "center": list(obj.center), "radius": obj.radius}
    return {"type": "box", "center": list(obj.center), "half_extents": list(obj.half_extents)}


def _obj_from_dict(rec: dict) -> FatObject:
    kind = rec.get("type")
    if kind == "ball":
        return Ball(tuple(rec["center"]), float(rec["radius"]))
    if kind == "box":
        return Box(tuple(rec["center"]), tuple(rec["half_extents"]))
    raise ValueError(f"unknown object type {kind!r}")


def instance_to_json(inst: GeometricInstance) -> str:
    doc = {
        "dimension": inst.dimension,
        "beta": inst.beta,
        "seed": inst.seed,
        "objects": [_obj_to_dict(o) for o in inst.objects],
    }
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


def instance_from_json(text: str) -> GeometricInstance:
    doc = json.loads(text)
    return GeometricInstance(
        dimension=int(doc["dimension"]),
        beta=float(doc["beta"]),
        objects=tuple(_obj_from_dict(rec) for rec in doc["objects"]),
        seed=int(doc.get("seed", 0)),
    )
