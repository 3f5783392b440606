"""Long Path via weighted contraction and randomized low-treewidth covers.

mark selects, per part, the vertices kept individually; build_weighted
(hamilton.compress, the contraction both solvers share) shrinks every part
that is not raw to those vertices plus one contracted vertex carrying the
count of the rest as weight.  Parts of kind RAW, and parts the fallback loop
made raw, stay whole.  A contracted vertex has no cross edges, so a path of
total weight >= k in the contraction matches a k-vertex path in the input.
When its decomposition is at most DP_WIDTH_CAP wide, or it has at most 24
vertices, it is decided exactly: by the bag DP, or, for small wide graphs,
by the exhaustive search shared with the Hamiltonian solvers
(hamilton._dfs_ham, called here as _dfs_longpath).  Otherwise randomized
ball-carving covers of the twin-completed contraction (_twin_complete)
select low-treewidth induced subgraphs across repetitions; YES answers are
certified, NO answers are one-sided.

A path of the contraction is lifted back by _expand (hamilton.reconstruct,
the expansion both solvers share), which puts each contracted vertex's set
in its place and hands the result to the shared lift: linked parts get exact
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
from .hamilton import Contraction, _edges_to_sequence, _fallback_loop
# one contraction, one expansion and one exhaustive search for both solvers,
# bound to names of this module so that perfbench/spans.py, which wraps
# module globals, tells the long path calls from the Hamiltonian ones
from .hamilton import _dfs_ham as _dfs_longpath
from .hamilton import compress as build_weighted
from .hamilton import reconstruct as _expand
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

    def kept(self) -> frozenset[int]:
        return frozenset().union(*self.sets)


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


def _twin_complete(g: Graph, p: Partition, wc: Contraction) -> tuple[Graph, list[int]]:
    """The graph the cover route carves, and the H vertex of each of its
    vertices: H plus every input cross edge, a contracted vertex standing for
    its whole set, with every two parts that are not raw and share a cross
    edge made fully adjacent, so that each such part's vertices are true
    twins.  It is numbered part by part, kept vertices before the contracted
    one: the carvings start every ball at the lowest remaining vertex, and
    sweeping the parts in order needed 2.4x fewer repetitions than H's
    input-id order on 85 solves of dense beta=2 graphs (n=35, k=6 and 12)."""
    order = sorted(
        range(wc.h.n), key=lambda hv: (wc.part_of_h[hv], wc.origin[hv] is None, hv)
    )
    at = {hv: x for x, hv in enumerate(order)}
    to_x = {v: at[hv] for hv, v in enumerate(wc.origin) if v is not None}
    for i, hv in wc.contracted.items():
        to_x.update((v, at[hv]) for v in wc.u_sets[i])
    members: dict[int, list[int]] = {}
    for x, hv in enumerate(order):
        members.setdefault(wc.part_of_h[hv], []).append(x)
    edges = {tuple(sorted((at[a], at[b]))) for a, b in wc.h.edges()}
    linked: set[tuple[int, int]] = set()
    owner = p.part_of()
    for u, v in g.edges():
        i, j = owner[u], owner[v]
        if i != j:
            edges.add(tuple(sorted((to_x[u], to_x[v]))))
            if i not in wc.raw_parts and j not in wc.raw_parts:
                linked.add((i, j))
    for i, j in linked:
        edges.update((min(a, b), max(a, b)) for a in members[i] for b in members[j])
    return Graph(wc.h.n, sorted(edges)), order


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
    seq = _edges_to_sequence(edges, "path")
    return checked(h, "path", seq, weights=weights, target=k)


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
        # when the contraction is narrow enough, decide exactly
        td_full = heuristic_decomposition(wc.h)
        if td_full.width <= DP_WIDTH_CAP or wc.h.n <= 24:
            cert_h = weighted_longpath_dp(wc.h, list(wc.weights), td_full, k)
            if cert_h is None:
                return None
            return _expand(g, p, wc, cert_h, hamiltonian=False)

        h_cross, order = _twin_complete(g, p, wc)
        for rep in range(schedule):
            rng = np.random.default_rng(seed + rep)
            s_outer = int(rng.integers(1 << 31))
            a_outer = outer_cover(h_cross, k, s_outer)
            if not a_outer:
                continue
            sub, ids = h_cross.induced(a_outer)
            for comp in sub.components():
                comp_ids = [ids[x] for x in comp]
                cg, cl = h_cross.induced(comp_ids)
                td = heuristic_decomposition(cg)
                if td.width <= DP_WIDTH_CAP or cg.n <= 24:
                    chosen = {order[x] for x in cl}
                else:
                    s_pat = int(rng.integers(1 << 31))
                    sample = pattern_cover(cg, k, s_pat, cfg.d, cfg.c_r)
                    if sample.aborted or not sample.vertices:
                        continue
                    chosen = {order[cl[x]] for x in sample.vertices}
                dg, dl = wc.h.induced(chosen)
                dtd = heuristic_decomposition(dg)
                if dtd.width > DP_WIDTH_CAP and dg.n > 24:
                    continue
                w_sub = [wc.weights[v] for v in dl]
                cert_sub = weighted_longpath_dp(dg, w_sub, dtd, k)
                if cert_sub is None:
                    continue
                cert_h = Certificate("path", tuple(dl[v] for v in cert_sub.vertices))
                return _expand(g, p, wc, cert_h, hamiltonian=False)
        return None

    return _fallback_loop(attempt)
