"""Spans around the solvers' layers, recorded from outside the package.

The solvers call their layers through module globals (``hamilton.solve_dp``,
``longpath.heuristic_decomposition``, ...), so replacing those globals for
the length of a traced run puts a span around every call without touching
the package.  Spans stay in memory and are written out when the run ends;
every per-layer figure is derived from them afterwards.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

from fatpath import hamilton, longpath

# (module, attribute, span name).  Each entry is a call site the solvers
# look up at run time; geometry is timed by the benchmark's own set-up.
WRAPPED = (
    (hamilton, "kappa_partition", "partition.kappa"),
    (hamilton, "refine_to_linked", "partition.refine"),
    (hamilton, "red_closure", "hamilton.compress"),
    (hamilton, "select_blue_edges", "hamilton.compress"),
    (hamilton, "compress", "hamilton.compress"),
    (hamilton, "heuristic_decomposition", "treewidth.decomp"),
    (hamilton, "_dfs_ham", "hamilton.dfs"),
    (hamilton, "solve_dp", "dp"),
    (hamilton, "reconstruct", "hamilton.reconstruct"),
    (hamilton, "find_spanning_linkage", "linkage"),
    (longpath, "kappa_partition", "partition.kappa"),
    (longpath, "refine_to_linked", "partition.refine"),
    (longpath, "red_closure", "longpath.build_weighted"),
    (longpath, "mark", "longpath.build_weighted"),
    (longpath, "build_weighted", "longpath.build_weighted"),
    (longpath, "heuristic_decomposition", "treewidth.decomp"),
    (longpath, "weighted_longpath_dp", "longpath.piece"),
    (longpath, "_dfs_longpath", "longpath.dfs"),
    (longpath, "solve_dp", "dp"),
    (longpath, "outer_cover", "longpath.outer_cover"),
    (longpath, "pattern_cover", "longpath.pattern_cover"),
    (longpath, "_expand", "longpath.expand"),
    (longpath, "find_spanning_linkage", "linkage"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "info")

    def __init__(self, name: str, start: float, parent: int, solve: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.solve = solve
        self.info: dict[str, Any] = {}


class Tracer:
    """Collects spans; ``solve`` opens the root span of one solver call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solve = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._solve))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def solve(self, solve_id: int, name: str, n: int):
        self._solve = solve_id
        idx = self._open(name)
        self.spans[idx].info["n"] = n
        try:
            yield
        finally:
            self._close(idx)
            self._solve = -1

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            if name == "dp":  # known before the call, so cut-off DP spans keep it
                self.spans[idx].info["mode"] = args[2] if len(args) > 2 else kwargs["mode"]
            try:
                out = fn(*args, **kwargs)
                self.spans[idx].info.update(_describe(fn.__name__, args, kwargs, out))
                return out
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every WRAPPED global for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for (mod, attr, name), (_, _, orig) in zip(WRAPPED, saved):
                setattr(mod, attr, self.wrap(orig, name))
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "solve": s.solve, **s.info,
                }) + "\n")


def _describe(fn_name: str, args: tuple, kwargs: dict, out) -> dict:
    """The few facts per call that the per-layer counts need."""
    if fn_name == "solve_dp":
        return {"found": out is not None}
    if fn_name == "heuristic_decomposition":
        return {"width": out.width, "n": args[0].n}
    if fn_name == "compress":
        return {"h_n": out.h.n}
    if fn_name == "refine_to_linked":
        kinds = out[0].kinds
        return {"parts": len(kinds), "linked": kinds.count("linked"), "raw": kinds.count("raw")}
    if fn_name == "pattern_cover":
        return {"aborted": out.aborted}
    if fn_name in ("find_spanning_linkage", "weighted_longpath_dp"):
        return {"found": out is not None}
    return {}


def layer_metrics(spans: list[Span], g_width: dict[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as (value, unit), from the spans of one traced run.

    Times are self times: a span's duration minus its children's.  g_width
    maps solve id to the min-fill width of that solve's input graph.  Counts
    are totals over the traced solves (trace.solves of them), and every
    ratio has its base beside it.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    by_solve: dict[int, list[Span]] = defaultdict(list)
    roots = []
    for i, s in enumerate(spans):
        key = f"dp.{s.info['mode']}" if s.name == "dp" else s.name
        self_s[key] += (s.end - s.start) - child_time[i]
        count[key] += 1
        if s.parent < 0:
            roots.append(s)
        else:
            by_solve[s.solve].append(s)

    def total(pred) -> int:
        return sum(1 for s in spans if pred(s))

    solve_s = sum(s.end - s.start for s in roots)
    root_self = sum(self_s[r] for r in {s.name for s in roots})
    m: dict[str, float] = {}

    dp_calls = sum(count[f"dp.{x}"] for x in ("cycle", "path", "longpath"))
    m["dp.cycle_s"] = self_s["dp.cycle"]
    m["dp.path_s"] = self_s["dp.path"]
    m["dp.longpath_s"] = self_s["dp.longpath"]
    m["dp.calls"] = dp_calls
    m["dp.found_frac"] = _ratio(total(lambda s: s.name == "dp" and s.info.get("found")), dp_calls)

    widths = [s.info["width"] for s in spans if s.name == "treewidth.decomp" and "width" in s.info]
    first_width = {}
    for sid, ss in by_solve.items():
        for s in ss:
            if s.name == "treewidth.decomp" and "width" in s.info:
                first_width[sid] = s.info["width"]
                break
    diffs = [w - g_width[sid] for sid, w in first_width.items() if sid in g_width]
    m["treewidth.decomp_s"] = self_s["treewidth.decomp"]
    m["treewidth.calls"] = count["treewidth.decomp"]
    m["treewidth.width_h_max"] = max(widths, default=0)
    m["treewidth.width_h_minus_g"] = _ratio(sum(diffs), len(diffs))
    m["treewidth.h_solves"] = len(diffs)

    refines = [s for s in spans if s.name == "partition.refine" and "parts" in s.info]
    m["partition.kappa_s"] = self_s["partition.kappa"]
    m["partition.refine_s"] = self_s["partition.refine"]
    m["partition.parts"] = sum(s.info["parts"] for s in refines)
    m["partition.linked_parts"] = sum(s.info["linked"] for s in refines)
    m["partition.raw_parts"] = sum(s.info["raw"] for s in refines)

    ham_roots = [r for r in roots if r.name in ("solve.cycle", "solve.path")]
    routes = defaultdict(int)
    fallback = 0
    h_n = g_n = 0
    for r in ham_roots:
        names = [s.name for s in by_solve[r.solve]]
        if "hamilton.dfs" in names:
            routes["dfs"] += 1
        elif "dp" in names:
            routes["dp"] += 1
        elif "partition.refine" in names:
            routes["clique"] += 1
        else:
            routes["trivial"] += 1
        comps = [s for s in by_solve[r.solve] if s.name == "hamilton.compress" and "h_n" in s.info]
        fallback += max(len(comps) - 1, 0)
        if comps:
            h_n += comps[0].info["h_n"]
            g_n += r.info["n"]
    for route in ("trivial", "clique", "dfs", "dp"):
        m[f"hamilton.route.{route}"] = routes[route]
    m["hamilton.compress_s"] = self_s["hamilton.compress"]
    m["hamilton.h_over_g"] = _ratio(h_n, g_n)
    m["hamilton.g_vertices"] = g_n
    m["hamilton.reconstruct_s"] = self_s["hamilton.reconstruct"]
    m["hamilton.fallback_rounds"] = fallback
    m["hamilton.dfs_s"] = self_s["hamilton.dfs"]

    m["linkage.calls"] = count["linkage"]
    m["linkage.s"] = self_s["linkage"]
    m["linkage.found_frac"] = _ratio(total(lambda s: s.name == "linkage" and s.info.get("found")), count["linkage"])

    lp_roots = [r for r in roots if r.name == "solve.longpath"]
    exact = cover = pieces = piece_hits = 0
    for r in lp_roots:
        ss = by_solve[r.solve]
        if any(s.name == "longpath.outer_cover" for s in ss):
            cover += 1
            ps = [s for s in ss if s.name == "longpath.piece" and "found" in s.info]
            pieces += len(ps)
            piece_hits += sum(1 for s in ps if s.info["found"])
        else:
            exact += 1
    pattern_calls = count["longpath.pattern_cover"]
    m["longpath.route.exact"] = exact
    m["longpath.route.cover"] = cover
    m["longpath.cover_reps"] = count["longpath.outer_cover"]
    m["longpath.outer_cover_s"] = self_s["longpath.outer_cover"]
    m["longpath.pattern_cover_s"] = self_s["longpath.pattern_cover"]
    m["longpath.pattern_calls"] = pattern_calls
    m["longpath.pattern_aborted_frac"] = _ratio(
        total(lambda s: s.name == "longpath.pattern_cover" and s.info.get("aborted")), pattern_calls)
    m["longpath.pieces"] = pieces
    m["longpath.piece_hit_frac"] = _ratio(piece_hits, pieces)
    m["longpath.build_weighted_s"] = self_s["longpath.build_weighted"]
    m["longpath.expand_s"] = self_s["longpath.expand"]
    m["longpath.dfs_s"] = self_s["longpath.dfs"]

    m["solve.self_s"] = root_self
    m["trace.solve_s"] = solve_s
    m["trace.coverage_frac"] = _ratio(solve_s - root_self, solve_s)
    m["trace.solves"] = len(roots)
    m["trace.spans"] = len(spans)
    return {k: (v, unit_of(k)) for k, v in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_over_g"):
        return "frac"
    if name.startswith("treewidth.width"):
        return "vertices"
    return "count"


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the base is empty (the base is reported too)."""
    return num / den if den else 0.0

