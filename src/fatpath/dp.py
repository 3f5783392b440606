"""Partition-matching dynamic programming over tree decompositions.

One engine serves three problems:

  * mode "cycle":    Hamiltonian cycle (every vertex degree 2, one cycle)
  * mode "path":     Hamiltonian path (every vertex on one path, 2 ends)
  * mode "longpath": maximum-weight path, vertices optional

A state at a bag records, per bag vertex: excluded (longpath only) or its
current degree 0/1/2 in the partial solution, a pairing of the degree-1
vertices into open path segments (partner index in the bag, or FINAL for an
endpoint already forgotten and committed as an end of the final path), the
number of committed final ends, and a done flag set once the single final
cycle/path has closed.  Each state keeps one representative edge list for
certificate reconstruction; in longpath mode the representative with the
largest total weight wins.

Tables move between bags by one transform (forget what leaves, introduce
what arrives); a leaf is the transform of the empty state onto its bag.  A
join pairs child states of equal inclusion pattern, at most one of them
done and with at most two final ends between them, and _merge_states
combines their segment systems.

Deterministic: bags, vertices and transitions are always scanned in sorted
order and ties keep the first representative.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph
from .treewidth import TreeDecomposition

__all__ = ["solve_dp"]

FINAL = -2
NO_PARTNER = -1
EXCLUDED = -3  # status value; degrees are 0,1,2

# state: (statuses, match, m, done)
#   statuses: tuple over sorted bag vertices, EXCLUDED or degree
#   match:    tuple, NO_PARTNER unless degree 1; else partner index or FINAL


def _root_order(td: TreeDecomposition) -> tuple[list[int], list[list[int]]]:
    """Root the decomposition tree at node 0; return postorder + children."""
    b = len(td.bags)
    adj = td.neighbors()
    parent = [-1] * b
    order = []
    stack = [0]
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
    return order[::-1], children  # postorder (children before parents)


def _assign_edges(h: Graph, td: TreeDecomposition) -> list[list[tuple[int, int]]]:
    """Each edge of h goes to the smallest-index bag containing both ends."""
    owner: list[list[tuple[int, int]]] = [[] for _ in td.bags]
    for u, v in sorted(h.edges()):
        for i, bag in enumerate(td.bags):
            if u in bag and v in bag:
                owner[i].append((u, v))
                break
        else:
            raise ValueError(f"edge ({u},{v}) not covered by any bag")
    return owner


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
    job); weights default to 1.
    """
    if mode not in ("cycle", "path", "longpath"):
        raise ValueError(f"unknown mode {mode!r}")
    if h.n == 0 or len(td.bags) == 0:
        return None
    w = list(weights) if weights is not None else [1] * h.n
    optional = mode == "longpath"

    postorder, children = _root_order(td)
    edge_owner = _assign_edges(h, td)
    tables: dict[int, _Table] = {}

    for node in postorder:
        bag = tuple(sorted(td.bags[node]))
        kids = children[node]
        if not kids:
            table = _Table()
            table.add(((), (), 0, False), 0, [])
            table = _transform(table, (), bag, w, optional, mode)
        else:
            parts = []
            for c in kids:
                cbag = tuple(sorted(td.bags[c]))
                parts.append(_transform(tables.pop(c), cbag, bag, w, optional, mode))
            table = parts[0]
            for other in parts[1:]:
                table = _join(table, other, bag, w, mode)
        for u, v in edge_owner[node]:
            table = _edge(table, bag, u, v, mode)
        tables[node] = table

    root = postorder[-1]
    root_bag = tuple(sorted(td.bags[root]))
    table = _transform(tables.pop(root), root_bag, (), w, optional, mode)

    best: Optional[list[tuple[int, int]]] = None
    best_w = -1
    for (statuses, match, m, done), (weight, edges) in table.items():
        if not done:
            continue
        if mode == "cycle" or (mode == "path" and m == 2):
            return edges
        if mode == "longpath" and m == 2 and weight >= target and weight > best_w:
            best_w = weight
            best = edges
    return best


def _transform(table: _Table, from_bag: tuple, to_bag: tuple, w, optional, mode) -> _Table:
    cur = table
    cur_bag = list(from_bag)
    for v in sorted(set(from_bag) - set(to_bag)):
        cur = _forget(cur, tuple(cur_bag), v, mode)
        cur_bag.remove(v)
    for v in sorted(set(to_bag) - set(from_bag)):
        cur = _introduce(cur, tuple(cur_bag), v, w, optional)
        cur_bag = sorted(cur_bag + [v])
    return cur


def _introduce(table: _Table, bag: tuple, v: int, w, optional) -> _Table:
    pos = 0
    while pos < len(bag) and bag[pos] < v:
        pos += 1
    out = _Table()
    for (statuses, match, m, done), (weight, edges) in table.items():
        new_match = tuple(
            p if p in (NO_PARTNER, FINAL) or p < pos else p + 1 for p in match
        )
        st_inc = statuses[:pos] + (0,) + statuses[pos:]
        mt = new_match[:pos] + (NO_PARTNER,) + new_match[pos:]
        out.add((st_inc, mt, m, done), weight + w[v], edges)
        if optional:
            st_exc = statuses[:pos] + (EXCLUDED,) + statuses[pos:]
            out.add((st_exc, mt, m, done), weight, edges)
    return out


def _forget(table: _Table, bag: tuple, v: int, mode: str) -> _Table:
    pos = bag.index(v)
    out = _Table()
    for (statuses, match, m, done), (weight, edges) in table.items():
        st = statuses[pos]
        if st == EXCLUDED or st == 2:
            pass  # fine: drop silently
        elif st == 0:
            continue  # isolated included vertex: never part of a witness
        else:  # degree 1: this vertex becomes a final end of the path
            if mode == "cycle" or m >= 2 or done:
                continue
            partner = match[pos]
            if partner == FINAL:
                # component closes; it must be the only open segment left
                if any(
                    p != NO_PARTNER for i, p in enumerate(match) if i != pos
                ):
                    continue
                new_m, new_done = m + 1, True
            else:
                new_m, new_done = m + 1, done

        # rebuild tuples without position pos
        new_statuses = statuses[:pos] + statuses[pos + 1 :]
        new_match = list(match[:pos] + match[pos + 1 :])
        if st == 1 and match[pos] not in (FINAL, NO_PARTNER):
            q = match[pos]
            qq = q if q < pos else q - 1
            new_match[qq] = FINAL
        for i, p in enumerate(new_match):
            if p not in (NO_PARTNER, FINAL) and p > pos:
                new_match[i] = p - 1
        if st == 1:
            out.add((new_statuses, tuple(new_match), new_m, new_done), weight, edges)
        else:
            out.add((new_statuses, tuple(new_match), m, done), weight, edges)
    return out


def _edge(table: _Table, bag: tuple, u: int, v: int, mode: str) -> _Table:
    iu, iv = bag.index(u), bag.index(v)
    out = _Table()
    for (statuses, match, m, done), (weight, edges) in table.items():
        out.add((statuses, match, m, done), weight, edges)  # skip the edge
        if done:
            continue
        su, sv = statuses[iu], statuses[iv]
        if su in (EXCLUDED, 2) or sv in (EXCLUDED, 2):
            continue
        new_st = list(statuses)
        new_mt = list(match)
        new_st[iu] = su + 1
        new_st[iv] = sv + 1
        new_m, new_done = m, done
        if su == 0 and sv == 0:
            new_mt[iu] = iv
            new_mt[iv] = iu
        elif su == 0 or sv == 0:
            a, b = (iu, iv) if su == 0 else (iv, iu)  # a had degree 0
            p = match[b]
            new_mt[b] = NO_PARTNER
            new_mt[a] = p
            if p not in (NO_PARTNER, FINAL):
                new_mt[p] = a
        else:  # both degree 1: merge two segment ends
            pu, pv = match[iu], match[iv]
            if pu == iv:  # closing the segment into a cycle
                if mode != "cycle":
                    continue
                if any(
                    p != NO_PARTNER for i, p in enumerate(match) if i not in (iu, iv)
                ):
                    continue
                new_mt[iu] = NO_PARTNER
                new_mt[iv] = NO_PARTNER
                new_done = True
            elif pu == FINAL and pv == FINAL:
                # both far ends already committed: the final path closes
                if mode == "cycle" or m != 2:
                    continue
                if any(
                    p != NO_PARTNER for i, p in enumerate(match) if i not in (iu, iv)
                ):
                    continue
                new_mt[iu] = NO_PARTNER
                new_mt[iv] = NO_PARTNER
                new_done = True
            else:
                new_mt[iu] = NO_PARTNER
                new_mt[iv] = NO_PARTNER
                a, b = pu, pv  # far ends of the merged segment
                if a == FINAL:
                    a, b = b, a
                # now a is an index; b may be FINAL or an index
                new_mt[a] = b
                if b != FINAL:
                    new_mt[b] = a
        out.add(
            (tuple(new_st), tuple(new_mt), new_m, new_done),
            weight,
            edges + [(u, v)],
        )
    return out


def _join(t1: _Table, t2: _Table, bag: tuple, w, mode: str) -> _Table:
    out = _Table()
    # merges require identical inclusion on the shared bag, so bucket one
    # side by exclusion pattern instead of a full cross product
    buckets: dict = {}
    for key2, val2 in t2.items():
        excl = tuple(s == EXCLUDED for s in key2[0])
        buckets.setdefault(excl, []).append((key2, val2))
    dup_cache: dict = {}
    for (st1, mt1, m1, d1), (w1, e1) in t1.items():
        excl = tuple(s == EXCLUDED for s in st1)
        group = buckets.get(excl)
        if not group:
            continue
        dup = dup_cache.get(excl)
        if dup is None:
            dup = sum(w[bag[i]] for i, s in enumerate(st1) if s != EXCLUDED)
            dup_cache[excl] = dup
        for (st2, mt2, m2, d2), (w2, e2) in group:
            if (d1 and d2) or m1 + m2 > 2:
                continue
            merged = _merge_states(st1, mt1, m1, d1, st2, mt2, m2, d2, mode)
            if merged is None:
                continue
            st, mt, m, done = merged
            out.add((st, mt, m, done), w1 + w2 - dup, e1 + e2)
    return out


def _merge_states(st1, mt1, m1, d1, st2, mt2, m2, d2, mode):
    """Combine two child states on one bag, or None if they conflict; the
    caller has already dropped pairs that are both done or have m1 + m2 > 2."""
    k = len(st1)
    st = []
    for s1, s2 in zip(st1, st2):
        if (s1 == EXCLUDED) != (s2 == EXCLUDED):
            return None
        if s1 == EXCLUDED:
            st.append(EXCLUDED)
        else:
            if s1 + s2 > 2:
                return None
            st.append(s1 + s2)
    if d1 or d2:
        # a closed witness tolerates no additional structure on the other side
        other_m, other_mt, other_st = (m2, mt2, st2) if d1 else (m1, mt1, st1)
        if other_m > 0 or any(p != NO_PARTNER for p in other_mt):
            return None
        if any(s not in (EXCLUDED, 0) for s in other_st):
            return None
        return tuple(st), tuple(NO_PARTNER for _ in range(k)), (m1 + m2), True

    # fast path: one side carries no open segments at all, so the other
    # side's matching survives unchanged
    if m2 == 0 and all(p == NO_PARTNER for p in mt2):
        return tuple(st), mt1, m1, False
    if m1 == 0 and all(p == NO_PARTNER for p in mt1):
        return tuple(st), mt2, m2, False

    # Merge the two segment systems.  Build a multigraph whose nodes are bag
    # indices plus one fresh token per FINAL marker, and whose edges are the
    # matched pairs of either side; its components are the merged segments.
    nodes: list = list(range(k))
    adj: dict = {i: [] for i in range(k)}
    final_tokens: list = []
    eid = 0
    edges_at: dict = {}
    for mt in (mt1, mt2):
        seen_pairs = set()
        for i, p in enumerate(mt):
            if p == NO_PARTNER:
                continue
            if p == FINAL:
                tok = ("F", len(final_tokens))
                final_tokens.append(tok)
                adj.setdefault(tok, []).append((i, eid))
                adj[i].append((tok, eid))
                eid += 1
            else:
                if (min(i, p), max(i, p)) in seen_pairs:
                    continue
                seen_pairs.add((min(i, p), max(i, p)))
                adj[i].append((p, eid))
                adj[p].append((i, eid))
                eid += 1

    new_mt = [NO_PARTNER] * k
    m = m1 + m2
    done = False
    closed_components = 0
    seen_nodes: set = set()
    for start in list(range(k)) + final_tokens:
        if start in seen_nodes or not adj.get(start):
            continue
        # collect the component
        comp = [start]
        seen_nodes.add(start)
        stack = [start]
        comp_edges = set()
        while stack:
            u = stack.pop()
            for v, e in adj[u]:
                comp_edges.add(e)
                if v not in seen_nodes:
                    seen_nodes.add(v)
                    comp.append(v)
                    stack.append(v)
        deg = {u: len(adj[u]) for u in comp}
        ends = [u for u in comp if deg[u] == 1]
        if any(deg[u] > 2 for u in comp):
            return None  # a bag vertex would need degree > 2
        if not ends:
            # closed loop of segments: a finished cycle
            if mode != "cycle":
                return None
            closed_components += 1
            done = True
            continue
        if len(ends) != 2:
            return None
        a, b = ends
        a_final = isinstance(a, tuple)
        b_final = isinstance(b, tuple)
        if a_final and b_final:
            # both ends previously committed: the final path just closed
            if mode == "cycle":
                return None
            closed_components += 1
            done = True
            continue
        if a_final or b_final:
            i = b if a_final else a
            if st[i] != 1:
                return None
            new_mt[i] = FINAL
        else:
            if st[a] != 1 or st[b] != 1:
                return None
            new_mt[a] = b
            new_mt[b] = a

    if closed_components > 1:
        return None
    if done:
        # the closed witness must be the only structure
        if any(p != NO_PARTNER for p in new_mt):
            return None
        if mode == "cycle" and m > 0:
            return None
        if mode != "cycle" and m != 2:
            return None
    # consistency: every bag index with merged degree 1 must be matched
    for i in range(k):
        if st[i] == 1 and new_mt[i] == NO_PARTNER and not done:
            # degree 1 arises from one side only; it must carry a matching
            return None
    return tuple(st), tuple(new_mt), m, done
