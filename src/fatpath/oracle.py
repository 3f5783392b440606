"""Brute-force reference implementations.

Everything here is exact, slow, and guarded by hard size limits; these run
only in tests and calibration.  A size guard that trips is an error, never a
silent truncation.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .certificates import Certificate, CertificateError, checked
from .graphs import Graph

__all__ = [
    "held_karp_cycle",
    "held_karp_path",
    "longest_path_exact",
    "treewidth_exact",
    "separator_enum",
    "planted_clique_partition_graph",
    "planted_two_clique_graph",
]


def _guard(n: int, limit: int, name: str) -> None:
    if n > limit:
        raise ValueError(f"{name} is limited to n <= {limit} (got {n})")


def _endpoint_dp(g: Graph, starts: Sequence[int]) -> list[int]:
    """dp[mask] = bitmask of vertices v such that some path covering exactly
    `mask` ends at v and starts at one of `starts`."""
    n = g.n
    adj = g.adjacency_masks()
    dp = [0] * (1 << n)
    for s in starts:
        dp[1 << s] |= 1 << s
    for mask in range(1 << n):
        ends = dp[mask]
        if not ends:
            continue
        free = ~mask & ((1 << n) - 1)
        u = free
        while u:
            b = u & -u
            v = b.bit_length() - 1
            if adj[v] & ends:
                dp[mask | b] |= b
            u ^= b
    return dp


def _recover_path(g: Graph, dp: list[int], mask: int, end: int,
                  starts: set[int]) -> list[int]:
    adj = g.adjacency_masks()
    path = [end]
    while True:
        prev_mask = mask & ~(1 << end)
        if prev_mask == 0:
            break
        cand = dp[prev_mask] & adj[end]
        if not cand:
            raise CertificateError("oracle reconstruction failed")
        nxt = (cand & -cand).bit_length() - 1
        path.append(nxt)
        mask, end = prev_mask, nxt
    path.reverse()
    if path[0] not in starts:
        raise CertificateError(f"oracle path starts at {path[0]}, not a start")
    return path


def held_karp_cycle(g: Graph) -> Optional[Certificate]:
    """Exact Hamiltonian cycle by bitmask DP.  Guarded at n <= 20."""
    _guard(g.n, 20, "held_karp_cycle")
    n = g.n
    if n < 3:
        return None
    dp = _endpoint_dp(g, [0])
    full = (1 << n) - 1
    ends = dp[full] & g.adjacency_masks()[0]
    if not ends:
        return None
    end = (ends & -ends).bit_length() - 1
    return checked(g, "cycle", _recover_path(g, dp, full, end, {0}), hamiltonian=True)


def held_karp_path(g: Graph) -> Optional[Certificate]:
    """Exact Hamiltonian path by bitmask DP.  Guarded at n <= 20."""
    _guard(g.n, 20, "held_karp_path")
    n = g.n
    if n == 0:
        return None
    if n == 1:
        return Certificate("path", (0,))
    dp = _endpoint_dp(g, list(range(n)))
    full = (1 << n) - 1
    if not dp[full]:
        return None
    end = (dp[full] & -dp[full]).bit_length() - 1
    return checked(g, "path", _recover_path(g, dp, full, end, set(range(n))),
                   hamiltonian=True)


def longest_path_exact(g: Graph) -> tuple[int, Certificate]:
    """Longest path by the endpoint DP over all starts.  Guarded at n <= 18."""
    _guard(g.n, 18, "longest_path_exact")
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no path")
    dp = _endpoint_dp(g, list(range(n)))
    # the first of the largest vertex sets that some path covers
    mask = max((m for m in range(1, 1 << n) if dp[m]), key=int.bit_count)
    best = mask.bit_count()
    end = (dp[mask] & -dp[mask]).bit_length() - 1
    path = _recover_path(g, dp, mask, end, set(range(n)))
    return best, checked(g, "path", path, target=best)


def treewidth_exact(g: Graph) -> int:
    """Exact treewidth via DP over elimination-order prefixes.  Guarded at n <= 12."""
    _guard(g.n, 12, "treewidth_exact")
    n = g.n
    if n == 0:
        return -1
    adj = g.adjacency_masks()
    full = (1 << n) - 1

    def q_size(S: int, v: int) -> int:
        # vertices outside S u {v} reachable from v through S
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            u = stack.pop()
            nb = adj[u] & ~seen
            out |= nb & ~S & ~(1 << v)
            seen |= nb
            w = nb & S
            while w:
                b = w & -w
                stack.append(b.bit_length() - 1)
                w ^= b
        return bin(out).count("1")

    INF = n + 1
    f = [INF] * (1 << n)
    f[0] = -1
    # iterate subsets in increasing popcount via plain ascending order
    for S in range(1, 1 << n):
        best = INF
        w = S
        while w:
            b = w & -w
            v = b.bit_length() - 1
            cand = max(q_size(S ^ b, v), f[S ^ b])
            if cand < best:
                best = cand
            w ^= b
        f[S] = best
    return f[full]


def separator_enum(
    g: Graph, x: frozenset[int] | set[int], s: int
) -> Optional[frozenset[int]]:
    """Smallest vertex separator of g[x] of size <= s, by subset enumeration."""
    xs = sorted(x)
    _guard(len(xs), 18, "separator_enum")
    sub, orig = g.induced(xs)
    if sub.n <= 1:
        return None
    for size in range(min(s, sub.n - 2) + 1):
        for combo in itertools.combinations(range(sub.n), size):
            rest = [v for v in range(sub.n) if v not in combo]
            if not rest:
                continue
            h, _ = sub.induced(rest)
            if h.n > 0 and not h.is_connected():
                return frozenset(orig[v] for v in combo)
    return None


def planted_clique_partition_graph(
    n: int, kappa: int, seed: int, extra_edge_prob: float = 0.3
) -> tuple[Graph, list[list[int]]]:
    """A graph with a planted partition into kappa cliques, plus random
    cross edges.  Returns the graph and the planted cliques."""
    import random

    rng = random.Random(seed)
    assignment = [rng.randrange(kappa) for _ in range(n)]
    cliques: list[list[int]] = [[] for _ in range(kappa)]
    for v, c in enumerate(assignment):
        cliques[c].append(v)
    edges = []
    for group in cliques:
        edges.extend(
            (u, v) for i, u in enumerate(group) for v in group[i + 1 :]
        )
    for u in range(n):
        for v in range(u + 1, n):
            if assignment[u] != assignment[v] and rng.random() < extra_edge_prob:
                edges.append((u, v))
    return Graph(n, edges), [c for c in cliques if c]


def planted_two_clique_graph(
    size_a: int, size_b: int, cross: int, seed: int
) -> Graph:
    """Two cliques joined by `cross` random cross edges."""
    import random

    rng = random.Random(seed)
    n = size_a + size_b
    a = list(range(size_a))
    b = list(range(size_a, n))
    edges = [(u, v) for i, u in enumerate(a) for v in a[i + 1 :]]
    edges += [(u, v) for i, u in enumerate(b) for v in b[i + 1 :]]
    pairs = [(u, v) for u in a for v in b]
    rng.shuffle(pairs)
    edges += pairs[:cross]
    return Graph(n, edges)
