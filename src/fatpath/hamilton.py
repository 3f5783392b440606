"""Hamiltonian cycle and path through partition compression.

Pipeline: pick bounded cross-edge sets (blue edges), then build the
compressed graph H from G directly: each part shrinks to its blue-incident
vertices plus one special vertex and becomes a clique in H (the red edges
of red_closure, added inline), raw parts stay whole with their own edges.
H is solved by treewidth DP, or by the exhaustive search _dfs_ham when it
is small and its decomposition wide, and the witness is lifted back.
reconstruct maps H ids to input ids and lets clique parts absorb their
missing vertices next to the special vertex.

_dfs_ham is the only exhaustive search in the package: with unit weights
it finds Hamiltonian cycles and paths, with vertex weights and a target k
the long path solver's weighted paths.

This module also holds the lift that the long path solver shares: _lift
splits the witness into same-part runs, replaces the runs inside linked
parts by exact spanning linkages and validates the result, raising
FallbackRequired for a part it cannot lift.  _fallback_loop then retries
the solve with that part kept verbatim (raw), so soundness never depends on
the desk-scale connectivity constants.  Every certificate a DP or search
step returns passes certificates.checked, which raises CertificateError
instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .certificates import Certificate, checked
from .dp import solve_dp
from .graphs import Graph
from .linkage import SIZE_GUARD, LinkageRequest, find_spanning_linkage
from .partition import (
    CLIQUE,
    RAW,
    Partition,
    SolverConfig,
    cross_edges,
    kappa_partition,
    quotient_degree,
    refine_to_linked,
)
from .treewidth import TreeDecomposition, heuristic_decomposition

__all__ = [
    "BlueSelection",
    "CompressedGraph",
    "FallbackRequired",
    "red_closure",
    "select_blue_edges",
    "compress",
    "hamiltonian_cycle_dp",
    "hamiltonian_path_dp",
    "reconstruct",
    "solve_hamiltonian_cycle",
    "solve_hamiltonian_path",
]


def red_closure(g: Graph, p: Partition) -> frozenset[tuple[int, int]]:
    """The red edges: the non-edges of g inside a part, which make every
    part a clique.  compress and build_weighted add them inline, as the
    clique on each non-raw part's kept vertices."""
    red = set()
    for part in p.parts:
        vs = sorted(part)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if not g.has_edge(u, v):
                    red.add((u, v))
    return frozenset(red)


@dataclass(frozen=True)
class BlueSelection:
    """Per quotient edge {i,j} (i<j): the cross edges a witness may use."""

    sets: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    strategy: str

    def incident_vertices(self) -> set[int]:
        out: set[int] = set()
        for pairs in self.sets.values():
            for u, v in pairs:
                out.add(u)
                out.add(v)
        return out


def select_blue_edges(
    g: Graph, p: Partition, strategy: str = "all"
) -> BlueSelection:
    """strategy "all": every cross edge (certified default).  "bounded": a
    deterministic subset of size <= 4(2D-1)^2 per part pair, D the quotient
    degree; its adequacy is enforced by oracle-equivalence tests."""
    if strategy not in ("all", "bounded"):
        raise ValueError(f"unknown blue strategy {strategy!r}")
    cross = cross_edges(g, p.part_of())
    delta = max(quotient_degree(cross), 1)
    cap = 4 * (2 * delta - 1) ** 2
    per_endpoint = 2 * delta
    sets: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for key in sorted(cross):
        pairs = sorted(cross[key])
        if strategy == "all":
            sets[key] = tuple(pairs)
            continue
        count: dict[int, int] = {}
        chosen = []
        for u, v in pairs:
            if len(chosen) >= cap:
                break
            if count.get(u, 0) >= per_endpoint and count.get(v, 0) >= per_endpoint:
                continue
            chosen.append((u, v))
            count[u] = count.get(u, 0) + 1
            count[v] = count.get(v, 0) + 1
        sets[key] = tuple(chosen)
    return BlueSelection(sets, strategy)


@dataclass(frozen=True)
class CompressedGraph:
    h: Graph
    origin: tuple[int, ...]  # h vertex -> g vertex
    kept: tuple[frozenset[int], ...]  # per part, in g ids
    special: tuple[Optional[int], ...]  # per part, in g ids
    raw_parts: frozenset[int]

    def to_h(self) -> dict[int, int]:
        return {g: h for h, g in enumerate(self.origin)}


def compress(
    g: Graph,
    p: Partition,
    blue: BlueSelection,
    raw_parts: frozenset[int] = frozenset(),
) -> CompressedGraph:
    """Build H: per part keep the blue-incident vertices plus the smallest
    non-blue-incident vertex as the special vertex; raw parts are kept whole
    with their original (non-red) edges.  Cross edges of H are exactly the
    blue edges."""
    incident = blue.incident_vertices()
    kept: list[frozenset[int]] = []
    special: list[Optional[int]] = []
    effective_raw = set(raw_parts)
    for i, part in enumerate(p.parts):
        if p.kinds[i] == RAW:
            effective_raw.add(i)
    for i, part in enumerate(p.parts):
        if i in effective_raw:
            kept.append(frozenset(part))
            special.append(None)
            continue
        inc = part & incident
        rest = sorted(part - inc)
        sp = rest[0] if rest else None
        keep = set(inc)
        if sp is not None:
            keep.add(sp)
        kept.append(frozenset(keep))
        special.append(sp)
    origin = tuple(sorted(v for ks in kept for v in ks))
    to_h = {g: h for h, g in enumerate(origin)}
    edges = []
    for i, ks in enumerate(kept):
        vs = sorted(ks)
        if i in effective_raw:
            edges.extend(
                (to_h[u], to_h[v])
                for a, u in enumerate(vs)
                for v in vs[a + 1 :]
                if g.has_edge(u, v)
            )
        else:
            edges.extend(
                (to_h[u], to_h[v]) for a, u in enumerate(vs) for v in vs[a + 1 :]
            )
    for pairs in blue.sets.values():
        for u, v in pairs:
            if u in to_h and v in to_h:
                edges.append((to_h[u], to_h[v]))
    h = Graph(len(origin), edges)
    return CompressedGraph(
        h, origin, tuple(kept), tuple(special), frozenset(effective_raw)
    )


def _edges_to_sequence(
    n: int, edges: list[tuple[int, int]], kind: str
) -> Optional[list[int]]:
    """Turn a chosen edge set into a cycle or path vertex sequence."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not adj:
        return None
    if kind == "cycle":
        start = min(adj)
    else:
        ends = sorted(v for v, nb in adj.items() if len(nb) == 1)
        if len(ends) != 2:
            return None
        start = ends[0]
    seq = [start]
    prev = None
    cur = start
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            break
        # at the start of a cycle both neighbors are open; pick the smaller
        step = min(nxt)
        if kind == "cycle" and step == start:
            break
        seq.append(step)
        prev, cur = cur, step
        if len(seq) == len(adj):
            break
    if len(seq) != len(adj):
        return None
    return seq


def _dfs_ham(
    h: Graph,
    kind: str = "path",
    weights: Optional[Sequence[int]] = None,
    k: Optional[int] = None,
) -> Optional[Certificate]:
    """Pruned exhaustive search for a cycle through vertex 0, or a path, of
    total vertex weight >= k; weights default to 1 and k to h.n, which asks
    for a Hamiltonian cycle or path.  The escape hatch for small graphs whose
    decompositions are too wide for the bag DP to pay off."""
    n = h.n
    if n == 0 or (kind == "cycle" and n < 3):
        return None
    w = [1] * n if weights is None else weights
    target = n if k is None else k
    masks = h.adjacency_masks()
    full = (1 << n) - 1
    starts = [0] if kind == "cycle" else sorted(range(n), key=lambda v: -w[v])
    for s in starts:
        stack: list[tuple[int, int, int, tuple[int, ...]]] = [(s, 1 << s, w[s], (s,))]
        while stack:
            v, used, got, seq = stack.pop()
            if got >= target:
                if kind == "path" or masks[v] >> s & 1:
                    # with unit weights and k = n this is a Hamiltonian check
                    return checked(h, kind, seq, weights=w, target=target)
                continue
            # weight bound: only unvisited vertices reachable from the active
            # end through unvisited vertices can still contribute
            free = ~used & full
            frontier = masks[v] & free
            reach = 0
            while frontier:
                reach |= frontier
                grow = 0
                rest = frontier
                while rest:
                    u = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    grow |= masks[u]
                frontier = grow & free & ~reach
            bound = got
            rest = reach
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                bound += w[u]
            if bound < target:
                continue
            cand = masks[v] & free
            while cand:
                u = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                stack.append((u, used | (1 << u), got + w[u], seq + (u,)))
    return None


def hamiltonian_cycle_dp(h: Graph, td: TreeDecomposition) -> Optional[Certificate]:
    """Exact Hamiltonian cycle on h via partition-matching DP over td."""
    if h.n < 3:
        return None
    if any(h.degree(v) < 2 for v in range(h.n)):
        return None
    edges = solve_dp(h, td, "cycle")
    if edges is None:
        return None
    seq = _edges_to_sequence(h.n, edges, "cycle")
    return checked(h, "cycle", seq, hamiltonian=True)


def hamiltonian_path_dp(h: Graph, td: TreeDecomposition) -> Optional[Certificate]:
    if h.n == 1:
        return Certificate("path", (0,))
    edges = solve_dp(h, td, "path")
    if edges is None:
        return None
    seq = _edges_to_sequence(h.n, edges, "path")
    return checked(h, "path", seq, hamiltonian=True)


class FallbackRequired(Exception):
    """Reconstruction cannot proceed; the flagged part must stay whole."""

    def __init__(self, part_id: int):
        super().__init__(f"fallback required for part {part_id}")
        self.part_id = part_id


def _runs(seq: list[int], owner: dict[int, int], cyclic: bool) -> list[list[int]]:
    """Split a vertex sequence into maximal same-part runs."""
    if cyclic and len({owner[v] for v in seq}) > 1:
        # rotate so the sequence starts at a run boundary
        k = 0
        while owner[seq[k - 1]] == owner[seq[k]]:
            k -= 1
        seq = seq[k:] + seq[:k] if k else seq
    runs: list[list[int]] = [[seq[0]]]
    for v in seq[1:]:
        if owner[v] == owner[runs[-1][-1]]:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def _lift(
    g: Graph,
    p: Partition,
    seq: list[int],
    kind: str,
    raw_parts: frozenset[int],
    hamiltonian: bool,
) -> Certificate:
    """The lift both solvers share, from a witness sequence in input ids.

    The sequence is split into maximal same-part runs.  In every linked part
    that is not raw, the runs of two or more vertices are replaced by an
    exact spanning linkage of the part minus its one-vertex runs; clique and
    raw parts keep their runs, whose edges are input edges.  The joined
    sequence must then validate on g.  Any failure raises FallbackRequired
    naming the part to keep whole in the next round.
    """
    owner = p.part_of()
    runs = _runs(seq, owner, kind == "cycle")
    by_part: dict[int, list[int]] = {}
    for ri, run in enumerate(runs):
        by_part.setdefault(owner[run[0]], []).append(ri)
    for pid, ris in sorted(by_part.items()):
        if p.kinds[pid] == CLIQUE or pid in raw_parts:
            continue
        open_ris = [ri for ri in ris if len(runs[ri]) > 1]
        fixed = {runs[ri][0] for ri in ris if len(runs[ri]) == 1}
        remainder = frozenset(p.parts[pid] - fixed)
        if not open_ris:
            if hamiltonian and remainder:
                raise FallbackRequired(pid)
            continue
        if len(remainder) > SIZE_GUARD:
            raise FallbackRequired(pid)
        pairs = tuple((runs[ri][0], runs[ri][-1]) for ri in open_ris)
        link = find_spanning_linkage(g, LinkageRequest(remainder, pairs))
        if link is None:
            raise FallbackRequired(pid)
        for ri, path in zip(open_ris, link.paths):
            runs[ri] = list(path)

    cert = Certificate(kind, tuple(v for run in runs for v in run))
    if not cert.validate(g, hamiltonian):
        # a lifted certificate that fails validation signals a part whose
        # linkage-free handling was unsound; fall back on the first culprit
        raise FallbackRequired(min(by_part))
    return cert


def _fallback_loop(
    attempt: Callable[[frozenset[int]], Optional[Certificate]],
) -> Optional[Certificate]:
    """Call attempt(raw) until it returns; every FallbackRequired adds the
    blamed part to the raw parts, which the next attempt keeps whole."""
    raw: frozenset[int] = frozenset()
    while True:
        try:
            return attempt(raw)
        except FallbackRequired as fb:
            if fb.part_id in raw:
                raise RuntimeError("fallback loop did not converge") from fb
            raw = raw | {fb.part_id}


def reconstruct(
    g: Graph,
    p: Partition,
    comp: CompressedGraph,
    cert_h: Certificate,
) -> Certificate:
    """Lift a certificate of H to one of G, or raise FallbackRequired.

    H ids map back to G ids, and every clique part gets its dropped vertices
    back next to its special vertex, between two vertices of the part; the
    shared lift does the rest.
    """
    owner = p.part_of()
    seq = [comp.origin[v] for v in cert_h.vertices]
    cyclic = cert_h.kind == "cycle"
    present = set(seq)

    def in_part(i: int, pid: int) -> bool:
        if cyclic:
            i %= len(seq)
        return 0 <= i < len(seq) and owner[seq[i]] == pid

    for pid, part in enumerate(p.parts):
        missing = sorted(part - present)
        if p.kinds[pid] != CLIQUE or pid in comp.raw_parts or not missing:
            continue
        at = seq.index(comp.special[pid])
        if in_part(at + 1, pid):
            seq[at + 1 : at + 1] = missing
        elif in_part(at - 1, pid):
            seq[at:at] = missing
        else:
            # a lone special vertex has cross neighbors on both sides in
            # the witness; missing vertices cannot attach
            raise FallbackRequired(pid)
    return _lift(g, p, seq, cert_h.kind, comp.raw_parts, hamiltonian=True)


def _solve(g: Graph, cfg: SolverConfig, kind: str,
           blue_strategy: str = "all") -> Optional[Certificate]:
    if g.n == 0:
        return None
    if not g.is_connected():
        if kind == "cycle" or g.n > 1:
            return None
        return Certificate("path", (0,))
    if kind == "cycle" and g.n < 3:
        return None
    if kind == "path" and g.n == 1:
        return Certificate("path", (0,))
    if g.n <= 3:
        td = heuristic_decomposition(g)
        dp = hamiltonian_cycle_dp if kind == "cycle" else hamiltonian_path_dp
        return dp(g, td)

    p0, _ = kappa_partition(g)
    p, q = refine_to_linked(g, p0, cfg)
    dp = hamiltonian_cycle_dp if kind == "cycle" else hamiltonian_path_dp

    def run_exact(h: Graph) -> Optional[Certificate]:
        td = heuristic_decomposition(h)
        if td.width > 7 and h.n <= 24:
            # bag DP pays off only below this width; small dense graphs go
            # to pruned search instead
            return _dfs_ham(h, kind)
        return dp(h, td)

    if len(p.parts) == 1:
        if p.kinds[0] == CLIQUE:
            # a complete graph is trivially traversable in id order
            return checked(g, kind, range(g.n), hamiltonian=True)
        return run_exact(g)

    blue = select_blue_edges(g, p, blue_strategy)

    def attempt(raw: frozenset[int]) -> Optional[Certificate]:
        comp = compress(g, p, blue, raw)
        cert_h = run_exact(comp.h)
        return None if cert_h is None else reconstruct(g, p, comp, cert_h)

    return _fallback_loop(attempt)


def solve_hamiltonian_cycle(
    g: Graph, cfg: Optional[SolverConfig] = None, blue_strategy: str = "all"
) -> Optional[Certificate]:
    return _solve(g, cfg or SolverConfig(), "cycle", blue_strategy)


def solve_hamiltonian_path(
    g: Graph, cfg: Optional[SolverConfig] = None, blue_strategy: str = "all"
) -> Optional[Certificate]:
    return _solve(g, cfg or SolverConfig(), "path", blue_strategy)
