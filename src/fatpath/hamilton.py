"""Hamiltonian cycle and path through partition compression.

Pipeline: pick bounded cross-edge sets (blue edges), then contract G along
the partition (compress): every part that is not raw keeps its
blue-incident vertices plus one contracted vertex standing for the rest and
becomes a clique (the red edges of red_closure, added inline); raw parts
stay whole with their own edges.  H is rejected outright when its degrees
rule out a cycle or path (_degree_rejects), and otherwise solved by
treewidth DP, or by the exhaustive search _dfs_ham when it is small and its
decomposition wide; reconstruct puts each contracted vertex's set back where
it sits in the witness before the lift.

The long path solver shares the contraction, the expansion and the search:
it calls compress as build_weighted with its own selection (longpath.mark),
reconstruct as _expand, and _dfs_ham, which with vertex weights and a target
k finds its weighted paths, as _dfs_longpath.

This module also holds the lift both solvers share: _lift splits the
witness into same-part runs, replaces the runs inside linked parts by exact
spanning linkages and validates the result, raising FallbackRequired for a
part it cannot lift.  _fallback_loop then retries the solve with that part
kept verbatim (raw), so soundness never depends on the desk-scale
connectivity constants.  Every certificate a DP or search step returns
passes certificates.checked, which raises CertificateError instead of
asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

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
    "Contraction",
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
    part a clique.  compress adds them inline, as the clique on the kept and
    contracted vertices of each part that is not raw."""
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

    def kept(self) -> frozenset[int]:
        """The endpoints of the chosen edges, which the contraction keeps."""
        return frozenset(v for pairs in self.sets.values() for e in pairs for v in e)


def select_blue_edges(
    g: Graph, p: Partition, strategy: str = "all"
) -> BlueSelection:
    """strategy "all": every cross edge (certified default).  "bounded": a
    deterministic subset of size <= 4(2D-1)^2 per part pair, D the quotient
    degree; its adequacy is enforced by oracle-equivalence tests.  The
    contraction keeps the chosen edges' endpoints and every input cross edge
    between them."""
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


class Selection(Protocol):
    """What a solver's selection rule (select_blue_edges, longpath.mark)
    hands to the contraction."""

    def kept(self) -> frozenset[int]: ...


@dataclass(frozen=True)
class Contraction:
    """H, the contraction both solvers solve; see compress."""

    h: Graph
    weights: tuple[int, ...]  # per H vertex: 1, or the size of its set
    origin: tuple[Optional[int], ...]  # H vertex -> input id; None if contracted
    part_of_h: tuple[int, ...]
    u_sets: tuple[tuple[int, ...], ...]  # per part, the vertices contracted
    contracted: dict[int, int]  # part id -> its contracted H vertex
    raw_parts: frozenset[int]  # the parts kept whole, RAW kinds included


def compress(
    g: Graph,
    p: Partition,
    sel: Selection,
    raw_parts: frozenset[int] = frozenset(),
) -> Contraction:
    """Build H: every part that is not raw keeps the selected vertices plus
    one contracted vertex standing for the rest, weighted by their count,
    and becomes a clique (the red edges of red_closure); raw parts, RAW kinds
    included, stay whole with their own edges.  H keeps the input cross edges
    between kept vertices, so a contracted vertex has none.  H vertices are
    in input-id order, a contracted vertex in the slot of the smallest vertex
    it stands for."""
    keep = sel.kept()
    raw = frozenset(raw_parts) | {i for i, kind in enumerate(p.kinds) if kind == RAW}
    u_sets = tuple(
        () if i in raw else tuple(sorted(part - keep)) for i, part in enumerate(p.parts)
    )
    # (input id of the slot, part id, whether the slot is a contracted vertex)
    slots = sorted(
        [(v, i, False) for i, part in enumerate(p.parts) for v in part - set(u_sets[i])]
        + [(us[0], i, True) for i, us in enumerate(u_sets) if us]
    )
    origin = tuple(None if c else v for v, _, c in slots)
    part_of_h = tuple(i for _, i, _ in slots)
    members: dict[int, list[int]] = {}
    for hv, i in enumerate(part_of_h):
        members.setdefault(i, []).append(hv)
    edges = [
        (a, b)
        for i, vs in members.items()
        for x, a in enumerate(vs)
        for b in vs[x + 1 :]
        if i not in raw or g.has_edge(origin[a], origin[b])
    ]
    to_h = {v: hv for hv, v in enumerate(origin) if v is not None}
    edges += [
        (to_h[u], to_h[v])
        for u, v in g.edges()
        if u in to_h and v in to_h and part_of_h[to_h[u]] != part_of_h[to_h[v]]
    ]
    return Contraction(
        Graph(len(slots), edges),
        tuple(len(u_sets[i]) if c else 1 for _, i, c in slots),
        origin,
        part_of_h,
        u_sets,
        {i: hv for hv, (_, i, c) in enumerate(slots) if c},
        raw,
    )


def _edges_to_sequence(edges: list[tuple[int, int]], kind: str) -> Optional[list[int]]:
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
    pendants = [v for v in range(n) if h.degree(v) == 1]
    if kind == "cycle":
        starts = [0]
    elif weights is None and k is None and pendants:
        # a Hamiltonian path ends at every degree-1 vertex, so one reversed
        # starts at the smallest
        starts = pendants[:1]
    else:
        starts = sorted(range(n), key=lambda v: -w[v])
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
    edges = solve_dp(h, td, "cycle")
    if edges is None:
        return None
    seq = _edges_to_sequence(edges, "cycle")
    return checked(h, "cycle", seq, hamiltonian=True)


def hamiltonian_path_dp(h: Graph, td: TreeDecomposition) -> Optional[Certificate]:
    if h.n == 1:
        return Certificate("path", (0,))
    edges = solve_dp(h, td, "path")
    if edges is None:
        return None
    seq = _edges_to_sequence(edges, "path")
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
        if not open_ris:
            continue
        fixed = {runs[ri][0] for ri in ris if len(runs[ri]) == 1}
        remainder = frozenset(p.parts[pid] - fixed)
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
    c: Contraction,
    cert_h: Certificate,
    hamiltonian: bool = True,
) -> Certificate:
    """Lift a certificate of H to one of G, or raise FallbackRequired.

    Every contracted vertex is replaced by the vertices it stands for, in
    ascending id, where it sits in the witness; the shared lift does the
    rest.
    """
    seq: list[int] = []
    for hv in cert_h.vertices:
        v = c.origin[hv]
        seq.extend(c.u_sets[c.part_of_h[hv]] if v is None else (v,))
    return _lift(g, p, seq, cert_h.kind, c.raw_parts, hamiltonian)


def _degree_rejects(h: Graph, kind: str) -> bool:
    """True when vertex degrees alone rule out a Hamiltonian cycle (a vertex
    of degree < 2) or path (an isolated vertex, or more than two of degree 1)
    on more than one vertex."""
    degrees = [h.degree(v) for v in range(h.n)]
    if kind == "cycle":
        return min(degrees, default=0) < 2
    return h.n > 1 and (0 in degrees or degrees.count(1) > 2)


def _solve(g: Graph, cfg: SolverConfig, kind: str,
           blue_strategy: str = "all") -> Optional[Certificate]:
    if g.n == 0:
        return None
    if not g.is_connected():
        return None
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
        if _degree_rejects(h, kind):
            return None
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
