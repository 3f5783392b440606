"""Exact spanning linkages inside a part.

Given terminal pairs (s_1,t_1),...,(s_l,t_l) inside a part, find vertex
disjoint s_j-t_j paths whose union covers the whole part.  The search is an
exhaustive pruned backtracking under a hard size guard; callers fall back
when the guard trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph

__all__ = [
    "LinkageRequest",
    "Linkage",
    "find_spanning_linkage",
]

SIZE_GUARD = 24


@dataclass(frozen=True)
class LinkageRequest:
    part: frozenset[int]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("at least one terminal pair required")
        endpoints = [v for pair in self.pairs for v in pair]
        if len(endpoints) != len(set(endpoints)):
            raise ValueError("terminal endpoints must be distinct")
        if any(v not in self.part for v in endpoints):
            raise ValueError("terminals must lie inside the part")


@dataclass(frozen=True)
class Linkage:
    paths: tuple[tuple[int, ...], ...]

    def check(self, g: Graph, req: LinkageRequest) -> bool:
        used: set[int] = set()
        for path, (s, t) in zip(self.paths, req.pairs):
            if path[0] != s or path[-1] != t:
                return False
            if any(v not in req.part for v in path):
                return False
            if used & set(path):
                return False
            used |= set(path)
            if any(not g.has_edge(u, v) for u, v in zip(path, path[1:])):
                return False
        return used == set(req.part)


def find_spanning_linkage(g: Graph, req: LinkageRequest) -> Optional[Linkage]:
    """A spanning linkage for the request, or None if none exists.

    Exhaustive and deterministic: neighbors are scanned in ascending order.
    Guarded at |part| <= 24.
    """
    part = sorted(req.part)
    if len(part) > SIZE_GUARD:
        raise ValueError(f"linkage search limited to parts of size <= {SIZE_GUARD}")
    sub, orig = g.induced(part)
    if not sub.is_connected():
        return None
    back = {v: i for i, v in enumerate(orig)}
    pairs = [(back[s], back[t]) for s, t in req.pairs]
    n = sub.n
    adj = sub.adjacency_masks()
    full = (1 << n) - 1
    terminals_after = [0] * (len(pairs) + 1)
    for j in range(len(pairs) - 1, -1, -1):
        s, t = pairs[j]
        terminals_after[j] = terminals_after[j + 1] | (1 << s) | (1 << t)

    paths: list[list[int]] = []

    def feasible(used: int, frontier: int, j: int) -> bool:
        # every unused vertex must be reachable from the current path end or
        # some still-unused terminal, through unused vertices only
        free = full & ~used
        if free == 0:
            return True
        seeds = (terminals_after[j] & ~used) | frontier
        seen = 0
        stack = seeds
        while stack:
            b = stack & -stack
            stack ^= b
            v = b.bit_length() - 1
            if (1 << v) & seen:
                continue
            seen |= 1 << v
            stack |= adj[v] & free & ~seen
        return free & ~seen == 0

    def solve(j: int, used: int) -> bool:
        if j == len(pairs):
            return used == full
        s, t = pairs[j]
        paths.append([s])
        if extend(j, used | (1 << s), s, t):
            return True
        paths.pop()
        return False

    def extend(j: int, used: int, u: int, t: int) -> bool:
        if u == t:
            return solve(j + 1, used)
        if not feasible(used, 1 << u, j):
            return False
        # later pairs' terminals may not appear as interior vertices here
        nb = adj[u] & ~used & ~terminals_after[j + 1]
        while nb:
            b = nb & -nb
            nb ^= b
            v = b.bit_length() - 1
            paths[-1].append(v)
            if extend(j, used | b, v, t):
                return True
            paths[-1].pop()
        return False

    if solve(0, 0):
        return Linkage(tuple(tuple(orig[v] for v in p) for p in paths))
    return None
