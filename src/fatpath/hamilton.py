"""Hamiltonian cycle and path: the input graph first, then partition
compression past the search budget.

Route (_solve): a complete G on at least 3 vertices, answered in id order;
a degree rejection (_degree_rejects); then the exhaustive search _dfs_ham
on G itself under a budget of SEARCH_NODES popped nodes.  A cycle starts
at a vertex of fewest neighbours and is cut where its start has no free
neighbour left to close it through; a Hamiltonian path starts at a degree-1
vertex, or else tries its starts by ascending degree, skipping those in
components too small for it.  The rejection and the search also answer
the smallest graphs: no cycle on fewer than 3 vertices, the path (0,) on
one vertex and (0, 1) on K2.  The search decides a disconnected G, a
"no": a cycle at its first pop, a path after one pop per component.  Only
when that budget runs out is connectivity checked, a disconnected G again
a "no", and does the paper's pipeline run: keep the endpoints of every
cross edge (the blue edges, select_blue_edges), then contract G along the
partition (compress):
every part that is not raw keeps those vertices plus one contracted vertex
standing for the rest and becomes a clique (the red edges of red_closure,
added inline); raw parts stay whole with their own edges.  H is decided
exactly by run_exact, in the same order: a degree rejection, the budgeted
search, and, past the budget, the treewidth DP, or the unbudgeted search
when H is small and its decomposition wide.  When the partition has one
part, H is G, on which the search has already run out, so G goes straight
to that last step.  reconstruct puts each contracted vertex's set back
where it sits in the witness before the lift.

The long path solver shares the search, the contraction and the
expansion: it calls _dfs_ham, which with a target k finds paths on at least
k vertices, as _dfs_longpath, first on G under the same budget, with its
starts from the lowest vertex of the first component of at least k vertices
(a graph with no such component is a "no" before any search); only past
it does it call compress as build_weighted, once, with every vertex kept
(longpath.mark), for one budgeted search on H, and reconstruct as _expand
to lift what that search finds.  It has no retry: past that one try it
decides G itself.

This module also holds the lift both solvers share: _lift splits the
witness into same-part runs and replaces the runs inside linked parts by
exact spanning linkages, raising FallbackRequired for a part with none (or
too large to look for one).  _solve then retries with that part kept
verbatim (raw), so soundness never depends on the desk-scale connectivity
constants.  Every witness passes certificates.checked, which raises
CertificateError instead of asserting: the search's in _dfs_ham, the
lift's in _lift, the DP's inside dp.solve_dp, which returns a checked
Certificate or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .certificates import Certificate, checked
from .dp import solve_dp
from .graphs import Graph
from .linkage import SIZE_GUARD, LinkageRequest, find_spanning_linkage
from .partition import (
    CLIQUE,
    RAW,
    Partition,
    SolverConfig,
    kappa_partition,
    refine_to_linked,
)
from .treewidth import heuristic_decomposition

__all__ = [
    "Contraction",
    "FallbackRequired",
    "SearchBudgetExceeded",
    "red_closure",
    "select_blue_edges",
    "compress",
    "reconstruct",
    "solve_hamiltonian_cycle",
    "solve_hamiltonian_path",
]


# popped nodes the search may spend, over all its starts, before an exact
# call goes on to the DP; a count, not a clock, so reruns are identical
SEARCH_NODES = 5000


class SearchBudgetExceeded(Exception):
    """The budgeted search stopped undecided: neither a witness nor a "no"."""


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


def select_blue_edges(g: Graph, p: Partition) -> frozenset[int]:
    """The endpoints of every cross edge (the blue edges): the vertices the
    contraction keeps.  Every input cross edge between them stays in H."""
    owner = p.part_of()
    return frozenset(v for e in g.edges() if owner[e[0]] != owner[e[1]] for v in e)


@dataclass(frozen=True)
class Contraction:
    """H, the contraction both solvers solve; see compress."""

    h: Graph
    origin: tuple[Optional[int], ...]  # H vertex -> input id; None if contracted
    part_of_h: tuple[int, ...]
    u_sets: tuple[tuple[int, ...], ...]  # per part, the vertices contracted
    raw_parts: frozenset[int]  # the parts kept whole, RAW kinds included


def compress(
    g: Graph,
    p: Partition,
    keep: frozenset[int],
    raw_parts: frozenset[int] = frozenset(),
) -> Contraction:
    """Build H: every part that is not raw keeps its vertices in keep plus
    one contracted vertex standing for the rest, and becomes a clique (the
    red edges of red_closure); raw parts, RAW kinds included, stay whole
    with their own edges.  H keeps the input cross edges between kept
    vertices, so a contracted vertex has none.  H vertices are in input-id
    order, a contracted vertex in the slot of the smallest vertex it stands
    for."""
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
        origin,
        part_of_h,
        u_sets,
        raw,
    )


def _dfs_ham(
    h: Graph,
    kind: str = "path",
    k: Optional[int] = None,
    budget: Optional[int] = None,
    first: int = 0,
) -> Optional[Certificate]:
    """Pruned exhaustive search for a Hamiltonian cycle or path of h or,
    with a target k, for a path on at least k vertices; a target is for
    path searches only, and a cycle search given one raises ValueError.
    The first exact step of all three solvers: with a budget, it raises
    SearchBudgetExceeded once it has popped more than budget nodes over all
    its starts, and the caller goes on to the DP.  Without one it runs to
    the end, as for small graphs whose decompositions are too wide for the
    bag DP to pay off.

    Starts.  Every vertex lies on a Hamiltonian cycle, so a cycle has one
    start, the lowest id of fewest neighbours: from a degree-2 start the
    second and last vertices are fixed.  A Hamiltonian path ends at every
    degree-1 vertex, so one reversed starts at the smallest; with none, the
    starts go by ascending degree, then id.  A search with a target k tries
    its starts from first up; the long path solver passes the lowest vertex
    of the first component of at least k vertices
    (Graph.first_component_reaching), so the smaller components below it
    cost no pop.  Path starts in components too small for the target are
    skipped: a start with no neighbour at no cost, and once a start's first
    pop fails the length bound, every later start in its component.  A
    cycle start with no neighbour costs one pop, so every decided call pops
    at least one node.

    The search walks one path: seq, the mask of the vertices still free,
    and per vertex of seq the mask of its candidates not yet tried.  It
    extends seq by the highest untried candidate, so a child is built only
    when it is popped, and undoes it on the way back.  Its cuts are exact:
    the length bound (the free vertices reachable from the active end must
    hold enough of them), and for a cycle, which closes through a free
    neighbour of its start, a node where the start has none left is dead,
    and while more than one vertex remains to add, the start's last free
    neighbour is not taken next.  It reads the neighbour bitmasks h stores
    and builds no adjacency of its own."""
    if kind == "cycle" and k is not None:
        raise ValueError("a target k is for path searches only")
    n = h.n
    if n == 0 or (kind == "cycle" and n < 3):
        return None
    target = n if k is None else k
    limit = math.inf if budget is None else budget
    popped = 0
    masks = h._masks  # the graph's own, only read
    full = (1 << n) - 1
    cycle = kind == "cycle"
    if k is None:
        degrees = h.degrees()
        if cycle:
            # every vertex lies on a Hamiltonian cycle: one start serves, the
            # one with the fewest choices
            starts = [degrees.index(min(degrees))]
        elif 1 in degrees:
            # a Hamiltonian path ends at every degree-1 vertex, so one
            # reversed starts at the smallest
            starts = [degrees.index(1)]
        else:
            starts = sorted(range(n), key=degrees.__getitem__)  # by degree, then id
    else:
        starts = range(first, n)
    skip = 0  # the starts in components too small for the target
    for s in starts:
        if skip >> s & 1 or (not cycle and target > 1 and not masks[s]):
            continue
        seq = [s]
        free = full ^ 1 << s
        todo: list[int] = []  # per vertex of seq, its untried candidates
        while seq:
            # seq has just grown by its last vertex: one popped node
            popped += 1
            if popped > limit:
                raise SearchBudgetExceeded(budget)
            v = seq[-1]
            depth = len(seq)
            need = target - depth
            cand = masks[v] & free
            if need <= 0:
                if not cycle or masks[v] >> s & 1:
                    # with k = n this is a Hamiltonian check
                    return checked(h, kind, seq, target=target)
                cand = 0
            elif cycle:
                # the cycle closes through a free neighbour of s: with none
                # left it cannot, and the last one left must come last
                ends = masks[s] & free
                if not ends:
                    cand = 0
                elif not ends & ends - 1 and need > 1:
                    cand &= ~ends
            if cand:
                # length bound: only free vertices reachable from the active
                # end through free vertices can still join the path; stop
                # growing reach once it holds enough of them
                frontier = masks[v] & free
                reach = 0
                while frontier:
                    reach |= frontier
                    if reach.bit_count() >= need:
                        break
                    grow = 0
                    rest = frontier
                    while rest:
                        u = (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        grow |= masks[u]
                    frontier = grow & free & ~reach
                else:
                    cand = 0
                    if depth == 1:
                        # reach is the rest of s's component, which is too small
                        skip |= reach | 1 << s
            if cand:
                todo.append(cand)
            else:
                free |= 1 << seq.pop()
            # back up past the vertices with no candidate left, then take
            # the highest untried one: the order a stack of children pops
            while todo and not todo[-1]:
                todo.pop()
                free |= 1 << seq.pop()
            if todo:
                u = todo[-1].bit_length() - 1
                todo[-1] ^= 1 << u
                seq.append(u)
                free ^= 1 << u
    return None


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
    raw parts keep their runs, whose edges are input edges.  A part whose
    remainder exceeds the linkage size guard, or which has no such linkage,
    raises FallbackRequired naming it, to be kept whole in the next round.
    The joined sequence passes certificates.checked, so one that does not
    validate raises CertificateError.
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

    # a joined sequence that does not validate is a solver bug, not a part
    # to keep whole
    return checked(g, kind, [v for run in runs for v in run], hamiltonian=hamiltonian)


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
    degrees = h.degrees()
    if kind == "cycle":
        return min(degrees, default=0) < 2
    return h.n > 1 and (0 in degrees or degrees.count(1) > 2)


def _solve(g: Graph, cfg: Optional[SolverConfig], kind: str) -> Optional[Certificate]:
    if g.n > 2 and g.m == g.n * (g.n - 1) // 2:
        # a complete graph is trivially traversable in id order
        return checked(g, kind, range(g.n), hamiltonian=True)
    if _degree_rejects(g, kind):
        return None
    try:
        # on a disconnected G the search ends with None: a cycle at its first
        # pop, a path after one pop per component
        return _dfs_ham(g, kind, budget=SEARCH_NODES)
    except SearchBudgetExceeded:
        pass

    # past the budget: the paper's pipeline, on a connected G only
    if not g.is_connected():
        return None
    cfg = cfg or SolverConfig()

    def past_budget(h: Graph) -> Optional[Certificate]:
        td = heuristic_decomposition(h)
        if td.width > 7 and h.n <= 24:
            # bag DP pays off only below this width; small dense graphs go
            # to the search without a budget instead
            return _dfs_ham(h, kind)
        return solve_dp(h, td, kind)

    def run_exact(h: Graph) -> Optional[Certificate]:
        if _degree_rejects(h, kind):
            return None
        try:
            return _dfs_ham(h, kind, budget=SEARCH_NODES)
        except SearchBudgetExceeded:
            pass
        return past_budget(h)

    p, _q = refine_to_linked(g, kappa_partition(g), cfg)
    if len(p.parts) == 1:
        # H would be G, on which the search has already spent its budget
        return past_budget(g)

    keep = select_blue_edges(g, p)
    # every FallbackRequired keeps the blamed part whole in the next round
    raw: frozenset[int] = frozenset()
    while True:
        comp = compress(g, p, keep, raw)
        cert_h = run_exact(comp.h)
        if cert_h is None:
            return None
        try:
            return reconstruct(g, p, comp, cert_h)
        except FallbackRequired as fb:
            if fb.part_id in raw:
                raise RuntimeError("fallback loop did not converge") from fb
            raw = raw | {fb.part_id}


def solve_hamiltonian_cycle(
    g: Graph, cfg: Optional[SolverConfig] = None
) -> Optional[Certificate]:
    return _solve(g, cfg, "cycle")


def solve_hamiltonian_path(
    g: Graph, cfg: Optional[SolverConfig] = None
) -> Optional[Certificate]:
    return _solve(g, cfg, "path")
