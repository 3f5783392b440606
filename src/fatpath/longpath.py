"""Long Path via weighted contraction and randomized low-treewidth covers.

Each part is shrunk to its marked vertices plus one contracted vertex
carrying the unmarked count as weight; build_weighted builds the result
from the input graph directly.  A path of total weight >= k in the pruned
contraction (cross edges at contracted vertices removed) matches a
k-vertex path in the input.  When its decomposition is at most DP_WIDTH_CAP
wide, or it has at most 24 vertices, it is decided exactly: by the bag DP,
or, for small wide graphs, by the exhaustive search shared with the
Hamiltonian solvers (hamilton._dfs_ham, called here as _dfs_longpath).
Otherwise randomized ball-carving covers select low-treewidth induced
subgraphs across repetitions; YES answers are certified, NO answers are
one-sided.

A path of the contraction is lifted back by _expand, which puts each
contracted vertex's unmarked set in its place, and then by the lift shared
with the Hamiltonian solvers (hamilton._lift): linked parts get exact
spanning linkages, and a part that cannot be lifted is kept raw in the next
round of the shared fallback loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import Certificate, checked
from .dp import solve_dp
from .graphs import Graph, bfs_ball
from .hamilton import _dfs_ham as _dfs_longpath
from .hamilton import _edges_to_sequence, _fallback_loop, _lift
# not called here; kept importable for perfbench/spans.py, which wraps them
from .hamilton import red_closure  # noqa: F401
from .linkage import find_spanning_linkage  # noqa: F401
from .partition import (
    Partition,
    SolverConfig,
    cross_edges,
    kappa_partition,
    quotient_degree,
    refine_to_linked,
)
from .treewidth import TreeDecomposition, heuristic_decomposition

__all__ = [
    "Marking",
    "WeightedCompressed",
    "CoverSample",
    "mark",
    "build_weighted",
    "outer_cover",
    "pattern_cover",
    "weighted_longpath_dp",
    "solve_long_path",
]

# graphs over 24 vertices are decided exactly up to this width; wider ones go
# to the cover route, and wider cover pieces are skipped
DP_WIDTH_CAP = 10


@dataclass(frozen=True)
class Marking:
    """Per part, the vertices kept individually after contraction."""

    sets: tuple[frozenset[int], ...]
    strategy: str


def mark(g: Graph, p: Partition, strategy: str = "full") -> Marking:
    """"full" keeps every vertex (no compression).  "bounded" keeps, per
    quotient-neighbor pair, the endpoints of the 2D+2 lexicographically
    smallest cross edges (D the quotient degree) plus two extra vertices per
    part; its adequacy is enforced by oracle-equivalence tests."""
    if strategy not in ("full", "bounded"):
        raise ValueError(f"unknown mark strategy {strategy!r}")
    if strategy == "full":
        return Marking(tuple(frozenset(part) for part in p.parts), strategy)
    cross = cross_edges(g, p.part_of())
    per_pair = 2 * max(quotient_degree(cross), 1) + 2
    marked: list[set[int]] = [set() for _ in p.parts]
    for (a, b), pairs in sorted(cross.items()):
        for u, v in sorted(pairs)[:per_pair]:
            marked[a].add(u)
            marked[b].add(v)
    for i, part in enumerate(p.parts):
        extras = sorted(part - marked[i])[:2]
        marked[i].update(extras)
    return Marking(tuple(frozenset(m) for m in marked), strategy)


@dataclass(frozen=True)
class WeightedCompressed:
    """Two variants of the contraction H: pruned (h_prime, no cross edge at
    a contracted vertex) and completed (h_cross, every two non-raw parts
    joined by a cross edge fully adjacent).  origin maps marked vertices to
    input ids (None for contracted vertices); u_sets holds the unmarked
    vertices behind each contraction."""

    h_prime: Graph
    h_cross: Graph
    weights: tuple[int, ...]
    origin: tuple[Optional[int], ...]
    part_of_h: tuple[int, ...]
    u_sets: tuple[tuple[int, ...], ...]
    contracted: dict[int, int]  # part id -> h vertex, when U_i nonempty


def build_weighted(
    g: Graph,
    p: Partition,
    m: Marking,
    raw_parts: frozenset[int] = frozenset(),
) -> WeightedCompressed:
    origin: list[Optional[int]] = []
    part_of_h: list[int] = []
    weights: list[int] = []
    u_sets: list[tuple[int, ...]] = []
    contracted: dict[int, int] = {}
    to_h: dict[int, int] = {}
    for i, part in enumerate(p.parts):
        ms = sorted(part & m.sets[i]) if i not in raw_parts else sorted(part)
        us = tuple(sorted(part - set(ms)))
        u_sets.append(us)
        for v in ms:
            to_h[v] = len(origin)
            origin.append(v)
            part_of_h.append(i)
            weights.append(1)
        if us:
            contracted[i] = len(origin)
            to_h.update((v, len(origin)) for v in us)
            origin.append(None)
            part_of_h.append(i)
            weights.append(len(us))
    nh = len(origin)

    h_edges: set[tuple[int, int]] = set()
    members: dict[int, list[int]] = {}
    for hv in range(nh):
        members.setdefault(part_of_h[hv], []).append(hv)
    for i, vs in members.items():
        if i in raw_parts:
            for a, u in enumerate(vs):
                for v in vs[a + 1 :]:
                    if g.has_edge(origin[u], origin[v]):
                        h_edges.add((u, v))
        else:
            h_edges.update((u, v) for a, u in enumerate(vs) for v in vs[a + 1 :])
    # cross adjacency between parts is inherited from g; a contracted vertex
    # stands for its whole unmarked set
    h_cross_edges: set[tuple[int, int]] = set()
    for a, b in g.edges():
        hu, hv = sorted((to_h[a], to_h[b]))
        if part_of_h[hu] != part_of_h[hv]:
            h_cross_edges.add((hu, hv))
    vset = set(contracted.values())
    prime_cross = {e for e in h_cross_edges if e[0] not in vset and e[1] not in vset}
    h_prime = Graph(nh, sorted(h_edges | prime_cross))
    # true-twin completion: a single cross edge between two non-raw parts
    # makes their kept sets fully adjacent
    linked_pairs = {
        (part_of_h[u], part_of_h[v])
        for u, v in h_cross_edges
        if part_of_h[u] not in raw_parts and part_of_h[v] not in raw_parts
    }
    full_cross = set(h_cross_edges)
    for i, j in linked_pairs:
        full_cross.update(
            (min(u, v), max(u, v)) for u in members[i] for v in members[j]
        )
    h_cross = Graph(nh, sorted(h_edges | full_cross))
    return WeightedCompressed(
        h_prime,
        h_cross,
        tuple(weights),
        tuple(origin),
        tuple(part_of_h),
        tuple(u_sets),
        contracted,
    )


def outer_cover(g: Graph, k: int, seed: int, c: float = 4.0) -> frozenset[int]:
    """Iterative ball carving: keep a geometric-radius ball around the lowest
    remaining vertex, discard its boundary, repeat.  Every component of the
    output has BFS radius at most ceil(c*k*log2(k)); the probability that any
    fixed k-subset survives intact is bounded below empirically."""
    if k < 4:
        raise ValueError("k must be >= 4")
    rng = np.random.default_rng(seed)
    cap = max(1, math.ceil(c * k * math.log2(k)))
    p = 1.0 / (2 * k)
    remaining = set(range(g.n))
    kept: set[int] = set()
    while remaining:
        sub, ids = g.induced(remaining)
        v = 0  # ids is sorted, so sub vertex 0 is the lowest remaining id
        r = min(int(rng.geometric(p)), cap)
        ball, boundary = bfs_ball(sub, v, r)
        kept.update(ids[x] for x in ball)
        remaining.difference_update(ids[x] for x in ball | boundary)
    return frozenset(kept)


@dataclass(frozen=True)
class CoverSample:
    vertices: frozenset[int]
    clusters: tuple[tuple[int, int], ...]  # (center, radius)
    boundary: frozenset[int]
    aborted: bool
    seed: int
    records: tuple[dict, ...]


def pattern_cover(
    g: Graph, k: int, seed: int, d: int = 2, c_r: float = 4.0
) -> CoverSample:
    """Clustering sampler: carve geometric-radius balls (success probability
    k^{-1/d}*log2(k), radius capped at R = ceil(c_r*k^{1/d})), keep each ball,
    drop its boundary, and rarely (probability 1/(k*n)) admit a small random
    boundary sample into a side pool B.  Output is balls plus pool, or empty
    if the pool overflows its k^{1-1/d}*log2(k) cap."""
    if k < 4:
        raise ValueError("k must be >= 4")
    rng = np.random.default_rng(seed)
    p = min(1.0, k ** (-1.0 / d) * math.log2(k))
    big_r = math.ceil(c_r * k ** (1.0 / d))
    l_cap = math.ceil(k ** (1.0 - 1.0 / d) * math.log2(k))
    n = max(g.n, 1)
    remaining = set(range(g.n))
    kept: set[int] = set()
    pool: set[int] = set()
    clusters: list[tuple[int, int]] = []
    records: list[dict] = []
    i = 0
    while remaining:
        sub, ids = g.induced(remaining)
        center = ids[0]
        r = min(int(rng.geometric(p)), big_r)
        ball, boundary = bfs_ball(sub, 0, r)
        kept.update(ids[x] for x in ball)
        clusters.append((center, r))
        sampled_l = 0
        if boundary and rng.random() < 1.0 / (k * n):
            sampled_l = int(rng.integers(1, l_cap + 1))
            bnd = sorted(ids[x] for x in boundary)
            take = min(sampled_l, len(bnd))
            picked = rng.choice(len(bnd), size=take, replace=False)
            pool.update(bnd[int(x)] for x in picked)
        remaining.difference_update(ids[x] for x in ball | boundary)
        records.append(
            {
                "i": i,
                "v_i": center,
                "r_i": r,
                "ball_size": len(ball),
                "boundary_size": len(boundary),
                "sampled_l": sampled_l,
                "aborted": False,
            }
        )
        i += 1
    aborted = len(pool) > l_cap
    if aborted:
        records.append(
            {
                "i": i,
                "v_i": -1,
                "r_i": 0,
                "ball_size": 0,
                "boundary_size": len(pool),
                "sampled_l": 0,
                "aborted": True,
            }
        )
        return CoverSample(
            frozenset(), tuple(clusters), frozenset(pool), True, seed, tuple(records)
        )
    return CoverSample(
        frozenset(kept | pool),
        tuple(clusters),
        frozenset(pool),
        False,
        seed,
        tuple(records),
    )


def weighted_longpath_dp(
    h: Graph, weights: list[int], td: TreeDecomposition, k: int
) -> Optional[Certificate]:
    """Max-weight path search: a path of total vertex weight >= k, if any."""
    if h.n == 0:
        return None
    best_single = max(range(h.n), key=lambda v: weights[v])
    if weights[best_single] >= k:
        return Certificate("path", (best_single,))
    if td.width > 5 and h.n <= 24:
        return _dfs_longpath(h, weights=weights, k=k)
    edges = solve_dp(h, td, "longpath", weights=list(weights), target=k)
    if edges is None:
        return None
    seq = _edges_to_sequence(h.n, edges, "path")
    return checked(h, "path", seq, weights=weights, target=k)


def _expand(
    g: Graph,
    p: Partition,
    wc: WeightedCompressed,
    cert_h: Certificate,
    raw_parts: frozenset[int],
) -> Certificate:
    """Lift an H'-path to G: contracted vertices expand to their unmarked
    sets in ascending id; the shared lift then links every multi-vertex
    stay inside a linked part, or raises FallbackRequired."""
    seq: list[int] = []
    for hv in cert_h.vertices:
        ov = wc.origin[hv]
        seq.extend((ov,) if ov is not None else wc.u_sets[wc.part_of_h[hv]])
    return _lift(g, p, seq, "path", raw_parts, hamiltonian=False)


def _direct_small(g: Graph, k: int) -> Optional[Certificate]:
    """k in 1..3 with k <= g.n, as solve_long_path calls it."""
    if k == 1:
        return Certificate("path", (0,))
    if k == 2:
        for u in range(g.n):
            for v in g.neighbors(u):
                return Certificate("path", (u, v))
        return None
    # k == 3: any midpoint with two distinct neighbors
    for v in range(g.n):
        nb = sorted(g.neighbors(v))
        if len(nb) >= 2:
            return Certificate("path", (nb[0], v, nb[1]))
    return None


def solve_long_path(
    g: Graph,
    k: int,
    cfg: Optional[SolverConfig] = None,
    seed: int = 0,
    mark_strategy: str = "full",
) -> Optional[Certificate]:
    cfg = cfg or SolverConfig()
    if k < 1 or g.n < k:
        return None
    if k <= 3:
        return _direct_small(g, k)

    p0, _ = kappa_partition(g)
    p, _q = refine_to_linked(g, p0, cfg)

    exponent = cfg.c_rep * k ** (1.0 - 1.0 / cfg.d) * math.log2(k) ** 2
    schedule = cfg.repetition_budget
    if exponent < 60:
        schedule = min(cfg.repetition_budget, math.ceil(2.0**exponent))

    marking = mark(g, p, mark_strategy)

    def attempt(raw: frozenset[int]) -> Optional[Certificate]:
        wc = build_weighted(g, p, marking, raw)
        # when the pruned contraction is narrow enough, decide exactly
        td_full = heuristic_decomposition(wc.h_prime)
        if td_full.width <= DP_WIDTH_CAP or wc.h_prime.n <= 24:
            cert_h = weighted_longpath_dp(wc.h_prime, list(wc.weights), td_full, k)
            if cert_h is None:
                return None
            return _expand(g, p, wc, cert_h, raw)

        for rep in range(schedule):
            rng = np.random.default_rng(seed + rep)
            s_outer = int(rng.integers(1 << 31))
            a_outer = outer_cover(wc.h_cross, k, s_outer)
            if not a_outer:
                continue
            sub, ids = wc.h_cross.induced(a_outer)
            for comp in sub.components():
                comp_ids = [ids[x] for x in comp]
                cg, cl = wc.h_cross.induced(comp_ids)
                td = heuristic_decomposition(cg)
                if td.width <= DP_WIDTH_CAP or cg.n <= 24:
                    chosen = set(cl)
                else:
                    s_pat = int(rng.integers(1 << 31))
                    sample = pattern_cover(cg, k, s_pat, cfg.d, cfg.c_r)
                    if sample.aborted or not sample.vertices:
                        continue
                    chosen = {cl[x] for x in sample.vertices}
                dg, dl = wc.h_prime.induced(chosen)
                dtd = heuristic_decomposition(dg)
                if dtd.width > DP_WIDTH_CAP and dg.n > 24:
                    continue
                w_sub = [wc.weights[v] for v in dl]
                cert_sub = weighted_longpath_dp(dg, w_sub, dtd, k)
                if cert_sub is None:
                    continue
                cert_h = Certificate("path", tuple(dl[v] for v in cert_sub.vertices))
                return _expand(g, p, wc, cert_h, raw)
        return None

    return _fallback_loop(attempt)
