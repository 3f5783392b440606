"""Vertex partitions into cliques and highly connected parts.

The pipeline is: greedy partition around a maximal independent set, then
refinement of each part by a separator tree whose leaves have no small
separator, plus an exhaustive clique partition of the separator interiors.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
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
    "QuotientGraph",
    "SeparatorTree",
    "SolverConfig",
    "kappa_partition",
    "separator_tree",
    "refine_to_linked",
    "clique_partition_exact",
    "build_quotient",
    "cross_edges",
    "quotient_degree",
    "partition_to_json",
    "partition_from_json",
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
    provenance: str = ""

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


@dataclass(frozen=True)
class QuotientGraph:
    """Graph on the parts; edge {i,j} iff some original edge crosses them."""

    graph: Graph
    part_sizes: tuple[int, ...]


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


def quotient_degree(cross: dict[tuple[int, int], list[tuple[int, int]]]) -> int:
    """D, the quotient's maximum degree, read from the keys of cross_edges."""
    return max(Counter(i for pair in cross for i in pair).values(), default=0)


def build_quotient(g: Graph, parts: tuple[frozenset[int], ...]) -> QuotientGraph:
    owner = {v: i for i, part in enumerate(parts) for v in part}
    return QuotientGraph(
        Graph(len(parts), sorted(cross_edges(g, owner))),
        tuple(len(p) for p in parts),
    )


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the partition refinement and both solver pipelines.

    Defaults are desk-scale: downstream reconstruction verifies every linkage
    exactly and falls back when a small lambda is insufficient, so
    correctness does not depend on the astronomically large constants the
    asymptotic analysis would demand.  theory_mode additionally asserts the
    constant relations where they are claimed to hold.
    """

    kappa: int = 4
    lam: int = 3
    g_threshold: int = 8
    theory_mode: bool = False
    c_r: float = 4.0
    c_rep: float = 1.0
    repetition_budget: int = 10_000
    d: int = 2

    def __post_init__(self):
        if self.lam < 1 or self.g_threshold < 1:
            raise ValueError("require lam >= 1 and g_threshold >= 1")

    def theory_g_threshold(self) -> int:
        return max(self.kappa + 3, 10) * 2 * self.lam


def kappa_partition(
    g: Graph, order: Optional[list[int]] = None
) -> tuple[Partition, QuotientGraph]:
    """One part per vertex of a greedy maximal independent set; every other
    vertex joins the part of its smallest-id taken neighbor."""
    if g.n == 0:
        raise ValueError("empty graph")
    mis = greedy_mis(g, order)
    centers = sorted(mis)
    index = {c: i for i, c in enumerate(centers)}
    groups: list[set[int]] = [{c} for c in centers]
    for v in range(g.n):
        if v in mis:
            continue
        anchor = min(w for w in g.neighbors(v) if w in mis)
        groups[index[anchor]].add(v)
    parts = tuple(frozenset(grp) for grp in groups)
    kinds = tuple(RAW for _ in parts)
    p = Partition(parts, kinds, tuple(0 for _ in parts), provenance="kappa_partition")
    return p, build_quotient(g, parts)


@dataclass(frozen=True)
class SeparatorTree:
    """Recursive decomposition of an induced subgraph by small separators.

    Internal nodes hold separators of size <= g_threshold; leaves hold sets
    whose induced subgraphs have no separator that small (hence are
    (g_threshold+1)-connected or complete).
    """

    label: frozenset[int]
    is_leaf: bool
    children: tuple["SeparatorTree", ...] = ()

    def leaves(self) -> list[frozenset[int]]:
        if self.is_leaf:
            return [self.label]
        out: list[frozenset[int]] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def interior_union(self) -> frozenset[int]:
        if self.is_leaf:
            return frozenset()
        acc = set(self.label)
        for c in self.children:
            acc |= c.interior_union()
        return frozenset(acc)

    def leaf_count(self) -> int:
        return len(self.leaves())


def separator_tree(g: Graph, x: frozenset[int] | set[int], g_threshold: int) -> SeparatorTree:
    xs = frozenset(x)
    sep = find_separator_leq(g, xs, g_threshold)
    if sep is None:
        return SeparatorTree(xs, is_leaf=True)
    rest = xs - sep
    sub, orig = g.induced(rest)
    children = tuple(
        separator_tree(g, frozenset(orig[v] for v in comp), g_threshold)
        for comp in sub.components()
    )
    return SeparatorTree(sep, is_leaf=False, children=children)


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


class ContractViolation(RuntimeError):
    """The input is not in the promised class (theory_mode checks failed)."""


def refine_to_linked(
    g: Graph, p0: Partition, cfg: SolverConfig
) -> tuple[Partition, QuotientGraph]:
    """Split every part into separator-tree leaves plus a clique cover of the
    separator interiors; tag each resulting part clique or linked."""
    g_thr = cfg.theory_g_threshold() if cfg.theory_mode else cfg.g_threshold
    new_parts: list[frozenset[int]] = []
    new_kinds: list[PartKind] = []
    new_conn: list[int] = []

    def add_part(part: frozenset[int]) -> None:
        if g.is_clique(part):
            new_parts.append(part)
            new_kinds.append(CLIQUE)
            new_conn.append(0)
        else:
            new_parts.append(part)
            new_kinds.append(LINKED)
            new_conn.append(g_thr + 1)

    for part in p0.parts:
        if g.is_clique(part):
            new_parts.append(part)
            new_kinds.append(CLIQUE)
            new_conn.append(0)
            continue
        tree = separator_tree(g, part, g_thr)
        for leaf in tree.leaves():
            add_part(leaf)
        interior = tree.interior_union()
        if interior:
            cover = None
            if len(interior) <= 24:
                cover = clique_partition_exact(g, interior, cfg.kappa)
            if cover is None:
                if cfg.theory_mode:
                    raise ContractViolation(
                        "separator interiors admit no clique partition of size "
                        f"<= {cfg.kappa}"
                    )
                # fall back to connected pieces of the interior, kept raw or
                # clique; correctness is restored downstream by the solvers'
                # fallback loop
                sub, orig = g.induced(interior)
                for comp in sub.components():
                    piece = frozenset(orig[v] for v in comp)
                    if g.is_clique(piece):
                        new_parts.append(piece)
                        new_kinds.append(CLIQUE)
                        new_conn.append(0)
                    else:
                        new_parts.append(piece)
                        new_kinds.append(RAW)
                        new_conn.append(0)
            else:
                for clique in cover:
                    sub, orig = g.induced(clique)
                    for comp in sub.components():
                        new_parts.append(frozenset(orig[v] for v in comp))
                        new_kinds.append(CLIQUE)
                        new_conn.append(0)

    p = Partition(
        tuple(new_parts),
        tuple(new_kinds),
        tuple(new_conn),
        provenance="refine_to_linked",
    )
    q = build_quotient(g, p.parts)
    if cfg.theory_mode:
        q0 = build_quotient(g, p0.parts)
        bound = (q0.graph.max_degree() + 1) * 2 * cfg.kappa
        if q.graph.max_degree() > bound:
            raise ContractViolation(
                f"quotient degree {q.graph.max_degree()} exceeds {bound}"
            )
    return p, q


def partition_to_json(p: Partition) -> str:
    doc = {
        "parts": [sorted(part) for part in p.parts],
        "kinds": [
            k if k != LINKED else f"linked:{c}"
            for k, c in zip(p.kinds, p.linked_connectivity)
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def partition_from_json(text: str) -> Partition:
    doc = json.loads(text)
    parts = tuple(frozenset(part) for part in doc["parts"])
    kinds = []
    conn = []
    for k in doc["kinds"]:
        if k.startswith("linked:"):
            kinds.append(LINKED)
            conn.append(int(k.split(":", 1)[1]))
        else:
            kinds.append(k)
            conn.append(0)
    return Partition(parts, tuple(kinds), tuple(conn), provenance="file")
