"""Partition-matching dynamic programming over tree decompositions.

One engine serves three problems:

  * mode "cycle":    Hamiltonian cycle (every vertex degree 2, one cycle)
  * mode "path":     Hamiltonian path (every vertex on one path, 2 ends)
  * mode "longpath": maximum-weight path, vertices optional

A state at a bag records, per bag vertex: excluded (longpath only) or its
current degree 0/1/2 in the partial solution, a pairing of the degree-1
vertices into open path segments (partner index in the bag, or FINAL for an
endpoint already forgotten and committed as an end of the final path), and a
done flag set once the single final cycle/path has closed.  The number of
committed final ends is the number of FINAL markers; there are at most two.
Each state keeps one representative edge list for certificate
reconstruction; in longpath mode the representative with the largest total
weight wins.

The tree is rooted at node 0 and solved children first.  Every vertex is
forgotten at its top node, the node nearest the root whose bag holds it,
right after its last edge.  Each edge of h belongs to the endpoint that is
forgotten first: the one with the deeper top node, on a tie the smaller id.
At each node, once the children's tables are brought up to its bag and
joined, the vertices whose top node it is are taken in ascending id; each
applies its edges and leaves the table.  So a finished vertex never
multiplies the states of a later bag, a child's table reaches its parent on
the bag the two share (moving it up only introduces vertices), and the
root's table ends on the empty bag.  A leaf introduces its bag into the
empty state.  A join pairs child states of equal inclusion pattern, at most
one of them done and with at most two final ends between them, and
_merge_states finds the merged segments by walking along partners,
switching between the two children's pairings at each bag vertex.

Deterministic: bags, vertices and edges are always scanned in sorted order
and ties keep the first representative.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph
from .treewidth import TreeDecomposition

__all__ = ["solve_dp"]

FINAL = -2
NO_PARTNER = -1
EXCLUDED = -3  # status value; degrees are 0,1,2

# state: (statuses, match, done)
#   statuses: tuple over sorted bag vertices, EXCLUDED or degree
#   match:    tuple, NO_PARTNER unless degree 1; else partner index or FINAL
#   done:     the one cycle/path has closed; match is then all NO_PARTNER


def _root_order(td: TreeDecomposition) -> tuple[list[int], list[int], list[list[int]]]:
    """Root the decomposition tree at node 0; return postorder, parents and
    children."""
    b = len(td.bags)
    adj = td.neighbors()
    parent = [-1] * b
    order = []
    stack = [0] if b else []
    seen = {0}
    while stack:
        u = stack.pop()
        order.append(u)
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                stack.append(w)
    children: list[list[int]] = [[] for _ in range(b)]
    for v in order[1:]:
        children[parent[v]].append(v)
    return order[::-1], parent, children  # postorder: children before parents


def _forget_schedule(
    h: Graph, td: TreeDecomposition, postorder: list[int], parent: list[int]
) -> tuple[list[list[int]], list[list[tuple[int, int]]]]:
    """The vertices forgotten at each postorder position (at their top
    node, ascending), and per vertex the edges it applies just before: each
    edge goes to the endpoint forgotten first.  ValueError if td misses a
    vertex or an edge of h, or the bags holding a vertex are not connected.
    """
    top = [-1] * h.n  # postorder position of v's top node
    for i, node in enumerate(postorder):
        for v in td.bags[node]:
            top[v] = i
    forgotten_at: list[list[int]] = [[] for _ in postorder]
    for v in range(h.n):
        if top[v] < 0:
            raise ValueError(f"vertex {v} is in no bag")
        forgotten_at[top[v]].append(v)
    for i, node in enumerate(postorder[:-1]):
        for v in td.bags[node]:
            if top[v] != i and v not in td.bags[parent[node]]:
                raise ValueError(f"the bags holding vertex {v} are not connected")
    owned: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for u, v in sorted(h.edges()):
        a, b = (u, v) if (top[u], u) < (top[v], v) else (v, u)
        # with connected bags, b is in a's top bag iff some bag holds (u, v)
        if b not in td.bags[postorder[top[a]]]:
            raise ValueError(f"edge ({u},{v}) is in no bag")
        owned[a].append((u, v))
    return forgotten_at, owned


class _Table:
    """state -> (weight, edge list); insertion order preserved."""

    __slots__ = ("data",)

    def __init__(self):
        self.data: dict[tuple, tuple[int, list]] = {}

    def add(self, state: tuple, weight: int, edges: list) -> None:
        cur = self.data.get(state)
        if cur is None or weight > cur[0]:
            self.data[state] = (weight, edges)

    def items(self):
        return self.data.items()


def solve_dp(
    h: Graph,
    td: TreeDecomposition,
    mode: str,
    weights: Optional[Sequence[int]] = None,
    target: int = 0,
) -> Optional[list[tuple[int, int]]]:
    """Run the DP; return the chosen edge list of a witness, or None.

    For mode "longpath" the witness is a path of total vertex weight >=
    target with at least one edge (single-vertex paths are the caller's
    job); weights default to 1.  ValueError if td misses a vertex or an edge
    of h, or the bags holding a vertex are not connected.
    """
    if mode not in ("cycle", "path", "longpath"):
        raise ValueError(f"unknown mode {mode!r}")
    if h.n == 0:
        return None
    w = list(weights) if weights is not None else [1] * h.n
    optional = mode == "longpath"

    postorder, parent, children = _root_order(td)
    forgotten_at, owned = _forget_schedule(h, td, postorder, parent)

    tables: dict[int, tuple[_Table, tuple]] = {}
    for i, node in enumerate(postorder):
        bag = tuple(sorted(td.bags[node]))
        kids = children[node]
        if not kids:
            table = _Table()
            table.add(((), (), False), 0, [])
            table = _transform(table, (), bag, w, optional)
        else:
            parts = [_transform(*tables.pop(c), bag, w, optional) for c in kids]
            table = parts[0]
            for other in parts[1:]:
                table = _join(table, other, bag, w, mode)
        for v in forgotten_at[i]:
            for a, b in owned[v]:
                table = _edge(table, bag, a, b, mode)
            table = _forget(table, bag, v, mode)
            bag = tuple(x for x in bag if x != v)
        tables[node] = (table, bag)

    # every root-bag vertex is forgotten, so the root's table is on the empty
    # bag and holds at most one done state
    table, _ = tables.pop(postorder[-1])
    found = table.data.get(((), (), True))
    if found is None or (mode == "longpath" and found[0] < target):
        return None
    return found[1]


def _no_other_segment(match: tuple, ends: int) -> bool:
    """Whether exactly `ends` bag vertices end an open segment: a structure
    closing at that many open ends leaves no other segment behind."""
    return len(match) - match.count(NO_PARTNER) == ends


def _transform(table: _Table, from_bag: tuple, to_bag: tuple, w, optional) -> _Table:
    """Introduce the vertices of to_bag that from_bag, a subset, lacks."""
    cur = table
    cur_bag = list(from_bag)
    for v in sorted(set(to_bag) - set(from_bag)):
        cur = _introduce(cur, tuple(cur_bag), v, w, optional)
        cur_bag = sorted(cur_bag + [v])
    return cur


def _introduce(table: _Table, bag: tuple, v: int, w, optional) -> _Table:
    pos = 0
    while pos < len(bag) and bag[pos] < v:
        pos += 1
    out = _Table()
    for (statuses, match, done), (weight, edges) in table.items():
        # partner indices at or after pos shift; the markers are negative
        new_match = tuple(p + 1 if p >= pos else p for p in match)
        st_inc = statuses[:pos] + (0,) + statuses[pos:]
        mt = new_match[:pos] + (NO_PARTNER,) + new_match[pos:]
        out.add((st_inc, mt, done), weight + w[v], edges)
        if optional:
            st_exc = statuses[:pos] + (EXCLUDED,) + statuses[pos:]
            out.add((st_exc, mt, done), weight, edges)
    return out


def _forget(table: _Table, bag: tuple, v: int, mode: str) -> _Table:
    pos = bag.index(v)
    out = _Table()
    for (statuses, match, done), (weight, edges) in table.items():
        st = statuses[pos]
        if st == 0:
            continue  # isolated included vertex: never part of a witness
        if st == 1:  # v becomes a final end of the path
            if mode == "cycle" or match.count(FINAL) >= 2:
                continue
            if match[pos] == FINAL:
                # so is its far end: the path closes, and must be all there is
                if not _no_other_segment(match, 1):
                    continue
                done = True
        # v's partner, if in the bag, becomes a final end; later indices shift
        new_match = tuple(
            FINAL if p == pos else p - 1 if p > pos else p
            for i, p in enumerate(match)
            if i != pos
        )
        out.add((statuses[:pos] + statuses[pos + 1 :], new_match, done), weight, edges)
    return out


def _edge(table: _Table, bag: tuple, u: int, v: int, mode: str) -> _Table:
    iu, iv = bag.index(u), bag.index(v)
    out = _Table()
    for state, (weight, edges) in table.items():
        out.add(state, weight, edges)  # skip the edge
        statuses, match, done = state
        su, sv = statuses[iu], statuses[iv]
        if done or su in (EXCLUDED, 2) or sv in (EXCLUDED, 2):
            continue
        # the far ends of the two segments the edge joins; a vertex of
        # degree 0 is a segment of its own
        a = iu if su == 0 else match[iu]
        b = iv if sv == 0 else match[iv]
        closes = a == iv or a == b == FINAL  # a cycle, or the final path
        if closes and (
            (a == iv) != (mode == "cycle") or not _no_other_segment(match, 2)
        ):
            continue
        new_st = list(statuses)
        new_st[iu] = su + 1
        new_st[iv] = sv + 1
        new_mt = list(match)
        new_mt[iu] = new_mt[iv] = NO_PARTNER
        if not closes:
            if a != FINAL:
                new_mt[a] = b
            if b != FINAL:
                new_mt[b] = a
        out.add((tuple(new_st), tuple(new_mt), closes), weight, edges + [(u, v)])
    return out


def _join(t1: _Table, t2: _Table, bag: tuple, w, mode: str) -> _Table:
    out = _Table()
    # merges require identical inclusion on the shared bag, so bucket one
    # side by exclusion pattern instead of a full cross product
    buckets: dict = {}
    for (st2, mt2, d2), val2 in t2.items():
        excl = tuple(s == EXCLUDED for s in st2)
        buckets.setdefault(excl, []).append((st2, mt2, d2, mt2.count(FINAL), val2))
    dup_cache: dict = {}
    for (st1, mt1, d1), (w1, e1) in t1.items():
        excl = tuple(s == EXCLUDED for s in st1)
        group = buckets.get(excl)
        if not group:
            continue
        dup = dup_cache.get(excl)
        if dup is None:
            dup = sum(w[bag[i]] for i, s in enumerate(st1) if s != EXCLUDED)
            dup_cache[excl] = dup
        f1 = mt1.count(FINAL)
        for st2, mt2, d2, f2, (w2, e2) in group:
            if (d1 and d2) or f1 + f2 > 2:
                continue
            merged = _merge_states(st1, mt1, d1, st2, mt2, d2, mode)
            if merged is not None:
                out.add(merged, w1 + w2 - dup, e1 + e2)
    return out


def _far_end(sides: tuple, i: int, side: int, seen: list) -> int:
    """Follow partners from bag index i, leaving by sides[side] and switching
    sides at each index reached, marking those indices seen.  Return the far
    end: FINAL, i itself when the walk closes a cycle, or the first index
    that the next side leaves unmatched."""
    j = i
    while True:
        j = sides[side][j]
        if j == FINAL or j == i:
            return j
        seen[j] = True
        side ^= 1
        if sides[side][j] == NO_PARTNER:
            return j


def _merge_states(st1, mt1, d1, st2, mt2, d2, mode):
    """Combine two child states of one inclusion pattern, not both done, or
    None if they conflict.

    An index of merged degree 1 is matched on one side only and ends a
    merged segment; an index matched on both sides is interior.  So walks
    from the degree-1 indices find the open segments, and an interior index
    that none of them reaches lies on a closed structure: a cycle, or a path
    between two final ends.
    """
    st = tuple(s1 if s1 == EXCLUDED else s1 + s2 for s1, s2 in zip(st1, st2))
    if any(s > 2 for s in st):
        return None
    if d1 or d2:
        # a closed witness tolerates no other structure on either side
        if _no_other_segment(mt1, 0) and _no_other_segment(mt2, 0):
            return st, mt1, True
        return None
    sides = (mt1, mt2)
    match = [NO_PARTNER] * len(st)
    seen = [False] * len(st)
    for i, s in enumerate(st):
        if s == 1 and not seen[i]:
            seen[i] = True
            j = _far_end(sides, i, 0 if mt1[i] != NO_PARTNER else 1, seen)
            match[i] = j
            if j != FINAL:
                match[j] = i
    done = False
    for i in range(len(st)):
        if seen[i] or mt1[i] == NO_PARTNER or mt2[i] == NO_PARTNER:
            continue
        # a closed structure: it must be the only structure left
        if done or not _no_other_segment(match, 0):
            return None
        seen[i] = done = True
        if (_far_end(sides, i, 0, seen) == i) != (mode == "cycle"):
            return None
        _far_end(sides, i, 1, seen)  # marks the rest of a path's indices
    return st, tuple(match), done
