"""Long Path: the input graph first; past the search budget, one try on
the shared contraction, then G itself, exactly or by randomized
low-treewidth covers.

The route, cheapest first: k <= 3 is answered directly, every witness
checked.  Then one walk of G's neighbour lists
(Graph.first_component_reaching) finds the first component of at least k
vertices, the only kind that can hold the path; with none the answer is an
exact "no".  Otherwise the exhaustive search shared with the Hamiltonian
solvers (hamilton._dfs_ham, called here as _dfs_longpath) decides G itself
under the budget of hamilton.SEARCH_NODES popped nodes, its starts from
that component's lowest vertex up, skipping the later components of fewer
than k vertices.  Only when that budget runs out are G's components listed,
the paper's partition built (kappa_partition, refine_to_linked), and the
contraction both solvers share (hamilton.compress, called here as
build_weighted) makes H once.
mark keeps every vertex, so H is G with every part that is not raw made a
clique: it has every edge of G on the same vertices.  When H has more edges
than G, the budgeted search runs on H: a search that ends without a path is
an exact "no", since G has no such path either, and a path found is lifted
back by _expand (hamilton.reconstruct, the expansion both solvers share,
with exact spanning linkages inside linked parts).  A search on H that runs
out, or a lift that raises FallbackRequired, goes on to G itself.

G is restricted to its components of at least k vertices, which alone can
hold the path.  That subgraph is decided exactly by the bag DP when its
decomposition is at most DP_WIDTH_CAP wide, or it has at most 24 vertices
(small wide graphs go to the unbudgeted search instead).  Otherwise a
component of exactly k vertices is decided exactly by the Hamiltonian path
solver, and on the larger ones randomized ball-carving covers (outer_cover,
then pattern_cover on wide pieces) select low-treewidth induced subgraphs
across repetitions, in the manner of Marx and Pilipczuk's low-treewidth
pattern covering (ESA 2017); YES answers are certified, NO answers are
one-sided, and exact when no component has more than k vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import hamilton
from .certificates import Certificate, checked
from .dp import solve_dp
from .graphs import Graph, bfs_ball
from .hamilton import FallbackRequired, SearchBudgetExceeded
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

# the cover route's constants: the pattern cover's radius cap is
# ceil(C_R * k^(1/d)), and C_REP scales the repetitions it plans, at most
# SolverConfig.repetition_budget
C_R = 4.0
C_REP = 1.0


def mark(g: Graph, p: Partition) -> frozenset[int]:
    """The vertices the contraction keeps: all of them, so no part shrinks."""
    return frozenset(range(g.n))


def _carve(
    g: Graph, rng: np.random.Generator, p: float, cap: int
) -> Iterator[tuple[int, int, frozenset[int], frozenset[int]]]:
    """Ball carving on g: while vertices are left, grow a ball of radius
    min(Geometric(p), cap) around the lowest one through the vertices still
    left, and remove the ball and its boundary.  Yields (center, radius,
    ball, boundary) per ball; each radius is drawn when its ball is asked
    for, so a caller's own draws between balls keep their place in rng."""
    remaining = set(range(g.n))
    center = 0
    while remaining:
        while center not in remaining:
            center += 1
        r = min(int(rng.geometric(p)), cap)
        ball, boundary = bfs_ball(g, center, r, remaining)
        remaining -= ball | boundary
        yield center, r, ball, boundary


def outer_cover(g: Graph, k: int, seed: int) -> frozenset[int]:
    """The balls of a carving with success probability 1/(2k) and radius
    cap ceil(4*k*log2(k)), boundaries dropped.  Every component of the
    output is one ball, whose centre reaches all of it within the cap; the
    probability that any fixed k-subset survives intact is bounded below
    empirically."""
    if k < 4:
        raise ValueError("k must be >= 4")
    cap = math.ceil(4 * k * math.log2(k))
    balls = _carve(g, np.random.default_rng(seed), 1.0 / (2 * k), cap)
    return frozenset(v for _c, _r, ball, _b in balls for v in ball)


@dataclass(frozen=True)
class CoverSample:
    vertices: frozenset[int]
    clusters: tuple[tuple[int, int], ...]  # (center, radius)
    boundary: frozenset[int]
    aborted: bool
    seed: int
    records: tuple[dict, ...]


def pattern_cover(
    g: Graph, k: int, seed: int, d: int = 2, c_r: float = C_R
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
    if not 0 < c_r < math.inf:  # also false for NaN
        raise ValueError(f"c_r must be finite and > 0 (got {c_r})")
    rng = np.random.default_rng(seed)
    p = min(1.0, k ** (-1.0 / d) * math.log2(k))
    big_r = math.ceil(c_r * k ** (1.0 / d))
    l_cap = math.ceil(k ** (1.0 - 1.0 / d) * math.log2(k))
    kept: set[int] = set()
    pool: set[int] = set()
    clusters: list[tuple[int, int]] = []
    records: list[dict] = []
    for i, (center, r, ball, boundary) in enumerate(_carve(g, rng, p, big_r)):
        kept |= ball
        clusters.append((center, r))
        sampled_l = 0
        if boundary and rng.random() < 1.0 / (k * g.n):
            sampled_l = int(rng.integers(1, l_cap + 1))
            bnd = sorted(boundary)
            take = min(sampled_l, len(bnd))
            picked = rng.choice(len(bnd), size=take, replace=False)
            pool.update(bnd[int(x)] for x in picked)
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
    aborted = len(pool) > l_cap
    if aborted:
        records.append(
            {
                "i": len(clusters),
                "v_i": -1,
                "r_i": 0,
                "ball_size": 0,
                "boundary_size": len(pool),
                "sampled_l": 0,
                "aborted": True,
            }
        )
    return CoverSample(
        frozenset() if aborted else frozenset(kept | pool),
        tuple(clusters),
        frozenset(pool),
        aborted,
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
    return solve_dp(h, td, "longpath", target=k)


def _direct_small(g: Graph, k: int) -> Optional[Certificate]:
    """k in 1..3 with k <= g.n, as solve_long_path calls it.

    Kept although the search gives the same verdicts, because this takes
    time linear in g and the search need not: on the star K_{1,6000} with
    k = 3 the search starts at the centre, whose two-vertex paths use up
    its budget, and the partition's separator then runs one max flow per
    leaf, past 120 s; this answers in under 1 ms."""
    if k == 1:
        return checked(g, "path", (0,), target=k)
    if k == 2:
        for u in range(g.n):
            for v in g.neighbors(u):
                return checked(g, "path", (u, v), target=k)
        return None
    # k == 3: any midpoint with two distinct neighbors
    for v in range(g.n):
        nb = sorted(g.neighbors(v))
        if len(nb) >= 2:
            return checked(g, "path", (nb[0], v, nb[1]), target=k)
    return None


def _cover_route(
    g: Graph, k: int, cfg: SolverConfig, seed: int
) -> Optional[Certificate]:
    """A path on at least k vertices of g, looked for on the low-treewidth
    induced subgraphs that randomized ball-carving covers select across
    repetitions; None is a one-sided "no"."""
    exponent = C_REP * k ** (1.0 - 1.0 / cfg.d) * math.log2(k) ** 2
    schedule = cfg.repetition_budget
    if exponent < 60:
        schedule = min(schedule, math.ceil(2.0**exponent))
    for rep in range(schedule):
        rng = np.random.default_rng(seed + rep)
        for comp in g.components(outer_cover(g, k, int(rng.integers(1 << 31)))):
            if len(comp) < k:
                continue
            piece, at = g.induced(comp)
            td = heuristic_decomposition(piece)
            if td.width > DP_WIDTH_CAP and piece.n > 24:
                sample = pattern_cover(piece, k, int(rng.integers(1 << 31)), cfg.d)
                if sample.aborted or len(sample.vertices) < k:
                    continue
                piece, at = g.induced(at[x] for x in sample.vertices)
                td = heuristic_decomposition(piece)
                if td.width > DP_WIDTH_CAP and piece.n > 24:
                    continue
            cert = weighted_longpath_dp(piece, td, k)
            if cert is not None:
                return Certificate("path", tuple(at[v] for v in cert.vertices))
    return None


def solve_long_path(
    g: Graph,
    k: int,
    cfg: Optional[SolverConfig] = None,
    seed: int = 0,
) -> Optional[Certificate]:
    if k < 1:
        raise ValueError(f"k must be >= 1 (got {k})")
    if g.n < k:
        return None
    if k <= 3:
        return _direct_small(g, k)
    # a path lies inside one component: with none of k vertices the answer
    # is "no", and every vertex below s0 lies in a smaller one
    s0 = g.first_component_reaching(k)
    if s0 is None:
        return None
    try:
        # a search that ends without a path is an exact "no"
        return _dfs_longpath(g, k=k, budget=hamilton.SEARCH_NODES, first=s0)
    except SearchBudgetExceeded:
        pass

    # past the budget: the components that can hold the path
    big = [comp for comp in g.components() if len(comp) >= k]
    cfg = cfg or SolverConfig()
    # one try on H, which has every edge of G on the same vertices; with no
    # more edges it is G, on which the search has run out
    p, _q = refine_to_linked(g, kappa_partition(g), cfg)
    wc = build_weighted(g, p, mark(g, p))
    if wc.h.m != g.m:
        try:
            # a search on H that ends without a path is an exact "no" for G
            cert_h = _dfs_longpath(wc.h, k=k, budget=hamilton.SEARCH_NODES)
            if cert_h is None:
                return None
            return _expand(g, p, wc, cert_h, hamiltonian=False)
        except (SearchBudgetExceeded, FallbackRequired):
            pass

    # then G itself, on the components that can hold the path
    sub, ids = g.induced(v for comp in big for v in comp)
    td = heuristic_decomposition(sub)
    if td.width <= DP_WIDTH_CAP or sub.n <= 24:
        cert = weighted_longpath_dp(sub, td, k)
    else:
        # a path on all k vertices of a component is a Hamiltonian path of
        # it, decided exactly; only larger components go to the covers
        cert = None
        for comp in big:
            if len(comp) == k:
                piece, ids = g.induced(comp)
                cert = hamilton.solve_hamiltonian_path(piece, cfg)
                if cert is not None:
                    break
        else:
            larger = [v for comp in big if len(comp) > k for v in comp]
            if larger:
                sub, ids = g.induced(larger)
                cert = _cover_route(sub, k, cfg, seed)
    if cert is None:
        return None
    return checked(g, "path", [ids[v] for v in cert.vertices], target=k)
