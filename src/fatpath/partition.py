"""Vertex partitions into cliques and highly connected parts.

The pipeline is: greedy partition around a maximal independent set
(kappa_partition), then refinement of each part (refine_to_linked) by a
separator tree (separator_tree, which returns the tree's leaves, sets with
no small separator, and its interior, the union of its separators), plus an
exhaustive clique partition of the interior, or else its connected pieces.
Every piece is tagged once: clique if it is one, otherwise linked (a leaf,
certified (g_threshold+1)-connected by graphs.find_separator_leq) or
raw (an interior piece).  build_quotient returns the quotient on the parts
as a plain Graph, part i as vertex i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .graphs import (
    Graph,
    find_separator_leq,
    greedy_mis,
    vertex_connectivity,
)

__all__ = [
    "PartKind",
    "Partition",
    "SolverConfig",
    "kappa_partition",
    "separator_tree",
    "refine_to_linked",
    "clique_partition_exact",
    "build_quotient",
    "cross_edges",
    "partition_to_json",
]


CLIQUE = "clique"
LINKED = "linked"
RAW = "raw"
PartKind = str


@dataclass(frozen=True)
class Partition:
    """Disjoint connected parts covering 0..n-1, with a kind tag per part.

    Linked parts carry a certified connectivity (connectivity >= value,
    established by max flow).  Raw parts make no promise; the solvers never
    compress them.
    """

    parts: tuple[frozenset[int], ...]
    kinds: tuple[PartKind, ...]
    linked_connectivity: tuple[int, ...]  # 0 unless kind == LINKED

    def check(self, g: Graph) -> bool:
        seen: set[int] = set()
        for part, kind, c in zip(self.parts, self.kinds, self.linked_connectivity):
            if seen & part:
                return False
            seen |= part
            sub, _ = g.induced(part)
            if not sub.is_connected():
                return False
            if kind == CLIQUE and not g.is_clique(part):
                return False
            if kind == LINKED and vertex_connectivity(sub) < c:
                return False
        return seen == set(range(g.n))

    def part_of(self) -> dict[int, int]:
        owner: dict[int, int] = {}
        for i, part in enumerate(self.parts):
            for v in part:
                owner[v] = i
        return owner


def cross_edges(
    g: Graph, owner: dict[int, int]
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The edges of g between parts, grouped by part pair (a, b) with a < b;
    each edge is oriented (vertex in a, vertex in b).  The keys are the
    quotient's edges."""
    cross: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in g.edges():
        a, b = owner[u], owner[v]
        if a < b:
            cross.setdefault((a, b), []).append((u, v))
        elif b < a:
            cross.setdefault((b, a), []).append((v, u))
    return cross


def build_quotient(g: Graph, parts: tuple[frozenset[int], ...]) -> Graph:
    """The graph on the parts: edge {i, j} iff some edge of g crosses them."""
    owner = {v: i for i, part in enumerate(parts) for v in part}
    return Graph(len(parts), sorted(cross_edges(g, owner)))


# the most cliques a separator interior is split into before its pieces are
# kept as they are
KAPPA = 4


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the partition refinement and both solver pipelines.

    Defaults are desk-scale: downstream reconstruction verifies every linkage
    exactly and falls back when a part is not linked enough, so correctness
    does not depend on the astronomically large constants the asymptotic
    analysis would demand.  repetition_budget and d are read only by the
    long path solver's cover route.
    """

    g_threshold: int = 8
    repetition_budget: int = 10_000
    d: int = 2

    def __post_init__(self):
        if min(self.g_threshold, self.d, self.repetition_budget) < 1:
            raise ValueError(
                "require g_threshold, d, repetition_budget >= 1 (got "
                f"{self.g_threshold}, {self.d}, {self.repetition_budget})"
            )


def kappa_partition(g: Graph) -> Partition:
    """One part per vertex of a greedy maximal independent set; every other
    vertex joins the part of its smallest-id taken neighbor.  The empty
    graph has the empty partition."""
    mis = greedy_mis(g)
    centers = sorted(mis)
    index = {c: i for i, c in enumerate(centers)}
    groups: list[set[int]] = [{c} for c in centers]
    for v in range(g.n):
        if v in mis:
            continue
        anchor = min(w for w in g.neighbors(v) if w in mis)
        groups[index[anchor]].add(v)
    parts = tuple(frozenset(grp) for grp in groups)
    return Partition(parts, tuple(RAW for _ in parts), tuple(0 for _ in parts))


def separator_tree(
    g: Graph, x: frozenset[int] | set[int], g_threshold: int
) -> tuple[list[frozenset[int]], frozenset[int]]:
    """The leaves and the interior of the separator tree of g[x].

    x is split by a separator of at most g_threshold vertices, and each
    component of the rest in turn.  The leaves, in the order the recursion
    meets them, are the sets with no separator that small (hence
    (g_threshold+1)-connected or complete); the interior is the union of
    the separators.
    """
    xs = frozenset(x)
    sep = find_separator_leq(g, xs, g_threshold)
    if sep is None:
        return [xs], frozenset()
    leaves: list[frozenset[int]] = []
    interior = set(sep)
    for comp in g.components(xs - sep):
        sub_leaves, sub_interior = separator_tree(g, frozenset(comp), g_threshold)
        leaves += sub_leaves
        interior |= sub_interior
    return leaves, frozenset(interior)


def clique_partition_exact(
    g: Graph, x: frozenset[int] | set[int], kappa: int
) -> Optional[list[frozenset[int]]]:
    """Partition x into <= kappa cliques of g, or None.  Guarded at |x| <= 24.

    Backtracking over vertices in ascending order; each vertex goes into the
    first clique it completes or opens a new one (at most kappa).
    """
    xs = sorted(x)
    if len(xs) > 24:
        raise ValueError("clique_partition_exact is limited to |x| <= 24")
    if kappa < 1:
        return None
    groups: list[list[int]] = []

    def place(i: int) -> bool:
        if i == len(xs):
            return True
        v = xs[i]
        for grp in groups:
            if all(g.has_edge(v, u) for u in grp):
                grp.append(v)
                if place(i + 1):
                    return True
                grp.pop()
        if len(groups) < kappa:
            groups.append([v])
            if place(i + 1):
                return True
            groups.pop()
        return False

    if not place(0):
        return None
    return [frozenset(grp) for grp in groups]


def refine_to_linked(
    g: Graph, p0: Partition, cfg: SolverConfig
) -> tuple[Partition, Graph]:
    """Split every part into separator-tree leaves plus a clique cover of the
    separator interiors; return the partition and its quotient.  Every piece
    that is a clique is tagged clique; the others are linked (leaves) or raw
    (interior pieces)."""
    parts: list[frozenset[int]] = []
    kinds: list[PartKind] = []

    def add(piece: frozenset[int], kind: PartKind) -> None:
        parts.append(piece)
        kinds.append(CLIQUE if g.is_clique(piece) else kind)

    for part in p0.parts:
        if g.is_clique(part):  # a clique has no separator to look for
            add(part, CLIQUE)
            continue
        leaves, interior = separator_tree(g, part, cfg.g_threshold)
        for leaf in leaves:
            add(leaf, LINKED)
        cover = clique_partition_exact(g, interior, KAPPA) if len(interior) <= 24 else None
        if cover is None:
            # the connected pieces of the interior, which make no promise:
            # the contraction keeps them whole
            cover = [frozenset(comp) for comp in g.components(interior)]
        for piece in cover:
            add(piece, RAW)

    conn = tuple(cfg.g_threshold + 1 if k == LINKED else 0 for k in kinds)
    p = Partition(tuple(parts), tuple(kinds), conn)
    return p, build_quotient(g, p.parts)


def partition_to_json(p: Partition) -> str:
    doc = {
        "parts": [sorted(part) for part in p.parts],
        "kinds": [
            k if k != LINKED else f"linked:{c}"
            for k, c in zip(p.kinds, p.linked_connectivity)
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
