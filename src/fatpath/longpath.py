"""Long Path: the input graph first, then the shared contraction and
randomized low-treewidth covers past the search budget.

The route, cheapest first: k <= 3 is answered directly; no component of
the input with k vertices is an exact "no"; then the exhaustive search
shared with the Hamiltonian solvers (hamilton._dfs_ham, called here as
_dfs_longpath) decides G itself under the budget of hamilton.SEARCH_NODES
popped nodes.  Only when that budget runs out does the paper's pipeline
run: the kappa-partition, refine_to_linked, and build_weighted
(hamilton.compress, the contraction both solvers share).  mark keeps every
vertex, so it contracts nothing: H is G with every part that is not raw
made a clique.  Parts of kind RAW, and parts the fallback loop made raw,
keep their own edges.  H is decided by the budgeted search, skipped when H
has no more edges than G (then H is G, on which the search has run out);
past that budget, when H's decomposition is at most DP_WIDTH_CAP wide, or
it has at most 24 vertices, it is decided exactly by the bag DP, or, for
small wide graphs, by the unbudgeted search.  Otherwise randomized
ball-carving covers of the twin-completed H (_twin_complete) select
low-treewidth induced subgraphs across repetitions; YES answers are
certified, NO answers are one-sided.

A path of H is lifted back by _expand (hamilton.reconstruct, the expansion
both solvers share), which hands it to the shared lift: linked parts get
exact spanning linkages, and a part that cannot be lifted is kept raw in
the next round of the shared fallback loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hamilton
from .certificates import Certificate, checked
from .dp import solve_dp
from .graphs import Graph, bfs_ball
from .hamilton import (
    Contraction,
    SearchBudgetExceeded,
    _edges_to_sequence,
    _fallback_loop,
)
# one contraction, one expansion and one exhaustive search for both solvers,
# bound to names of this module so that perfbench/spans.py, which wraps
# module globals, tells the long path calls from the Hamiltonian ones.  The
# tracer looks its call sites up by name, so build_weighted, mark,
# weighted_longpath_dp and red_closure keep the names it knows, although no
# vertex carries a weight.
from .hamilton import _dfs_ham as _dfs_longpath
from .hamilton import compress as build_weighted
from .hamilton import reconstruct as _expand
# not called here; kept importable for perfbench/spans.py, which wraps them
from .hamilton import red_closure  # noqa: F401
from .linkage import find_spanning_linkage  # noqa: F401
from .partition import Partition, SolverConfig, kappa_partition, refine_to_linked
from .treewidth import TreeDecomposition, heuristic_decomposition

__all__ = [
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


def mark(g: Graph, p: Partition) -> frozenset[int]:
    """The vertices the contraction keeps: all of them, so no part shrinks."""
    return frozenset(range(g.n))


def _twin_complete(wc: Contraction) -> tuple[Graph, list[int]]:
    """The graph the cover route carves, and the H vertex of each of its
    vertices: H, which holds every input cross edge since long path keeps
    every vertex, with every two parts that are not raw and share a cross
    edge made fully adjacent, so that each such part's vertices are true
    twins.  It is numbered part by part: the carvings start every ball at
    the lowest remaining vertex, and sweeping the parts in order needed 2.4x
    fewer repetitions than H's input-id order on 85 solves of dense beta=2
    graphs (n=35, k=6 and 12)."""
    part = wc.part_of_h
    order = sorted(range(wc.h.n), key=lambda hv: (part[hv], hv))
    at = {hv: x for x, hv in enumerate(order)}
    members: dict[int, list[int]] = {}
    for x, hv in enumerate(order):
        members.setdefault(part[hv], []).append(x)
    edges = {tuple(sorted((at[a], at[b]))) for a, b in wc.h.edges()}
    linked = {
        (part[a], part[b])
        for a, b in wc.h.edges()
        if part[a] != part[b] and not {part[a], part[b]} & wc.raw_parts
    }
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
    if d < 1:
        raise ValueError("d must be >= 1")
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
    h: Graph, td: TreeDecomposition, k: int
) -> Optional[Certificate]:
    """A path on at least k >= 2 vertices of h, if any: by the DP over td,
    or by the unbudgeted search when h is small and td wide."""
    if td.width > 5 and h.n <= 24:
        return _dfs_longpath(h, k=k)
    edges = solve_dp(h, td, "longpath", target=k)
    if edges is None:
        return None
    seq = _edges_to_sequence(edges, "path")
    return checked(h, "path", seq, target=k)


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
) -> Optional[Certificate]:
    cfg = cfg or SolverConfig()
    if k < 1:
        raise ValueError(f"k must be >= 1 (got {k})")
    if g.n < k:
        return None
    if k <= 3:
        return _direct_small(g, k)
    # a path lies inside one component
    if max(map(len, g.components())) < k:
        return None
    try:
        # a search that ends without a path is an exact "no"
        return _dfs_longpath(g, k=k, budget=hamilton.SEARCH_NODES)
    except SearchBudgetExceeded:
        pass

    # past the budget: the paper's pipeline
    p0 = kappa_partition(g)
    p, _q = refine_to_linked(g, p0, cfg)

    exponent = cfg.c_rep * k ** (1.0 - 1.0 / cfg.d) * math.log2(k) ** 2
    schedule = cfg.repetition_budget
    if exponent < 60:
        schedule = min(cfg.repetition_budget, math.ceil(2.0**exponent))

    keep = mark(g, p)

    def decide(wc: Contraction) -> Optional[Certificate]:
        """A path on at least k vertices of wc.h, in H ids: by the budgeted
        search; past its budget by the DP when H is narrow enough, by the
        cover route otherwise."""
        # H has G's vertex ids and G's edges, so with no more edges it is G,
        # on which the search has already run out
        if wc.h.m != g.m:
            try:
                # a search that ends without a path is an exact "no", also
                # where the cover route would have run
                return _dfs_longpath(wc.h, k=k, budget=hamilton.SEARCH_NODES)
            except SearchBudgetExceeded:
                pass
        td_full = heuristic_decomposition(wc.h)
        if td_full.width <= DP_WIDTH_CAP or wc.h.n <= 24:
            return weighted_longpath_dp(wc.h, td_full, k)

        h_cross, order = _twin_complete(wc)
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
                cert_sub = weighted_longpath_dp(dg, dtd, k)
                if cert_sub is None:
                    continue
                return Certificate("path", tuple(dl[v] for v in cert_sub.vertices))
        return None

    def attempt(raw: frozenset[int]) -> Optional[Certificate]:
        wc = build_weighted(g, p, keep, raw)
        cert_h = decide(wc)
        if cert_h is None:
            return None
        return _expand(g, p, wc, cert_h, hamiltonian=False)

    return _fallback_loop(attempt)
