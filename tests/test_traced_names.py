"""Every call site the benchmark's tracer wraps must exist in the package.

perfbench/spans.py replaces module globals of the solvers by name for a
traced run (``--trace 1``); a renamed or deleted global, or a changed
return shape that its span description reads, breaks that run.
"""

import importlib.util
import math
import os

from fatpath import hamilton, longpath, solve_hamiltonian_cycle, solve_hamiltonian_path, solve_long_path
from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph
from fatpath.partition import SolverConfig

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_wrapped_names_resolve():
    spans = load_spans()
    assert spans.WRAPPED
    for module, attr, _span in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_solves_yield_layer_metrics(monkeypatch):
    spans = load_spans()
    ring = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    # a beta=2 instance whose cycle solve at g_threshold=1 lifts through a
    # linked part, so linkage spans occur too
    dense = intersection_graph(generate_instance(
        d=2, beta=2.0, n=12, box_side=math.sqrt(12), shape_mix=0.5, seed=0))
    solves = [
        ("cycle", lambda: solve_hamiltonian_cycle(ring), ring.n),
        ("path", lambda: solve_hamiltonian_path(ring), ring.n),
        ("longpath", lambda: solve_long_path(ring, 6), ring.n),
        ("cycle", lambda: solve_hamiltonian_cycle(dense, SolverConfig(g_threshold=1)), dense.n),
    ]
    tracer = spans.Tracer()
    with tracer.installed():
        for sid, (problem, solve, n) in enumerate(solves):
            with monkeypatch.context() as m, tracer.solve(sid, f"solve.{problem}", n):
                # the search on G would decide the Hamiltonian solves before
                # any partition or linkage span
                if problem != "longpath":
                    m.setattr(hamilton, "SEARCH_NODES", 0)
                assert solve() is not None
    assert any(s.name == "linkage" for s in tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, {})
    assert metrics["trace.solves"][0] == len(solves)


def test_traced_cover_route_yields_cover_metrics(monkeypatch):
    # no budget and a width cap of 1 send this long path solve past H to
    # the cover route, where one outer cover piece goes on to a pattern cover
    spans = load_spans()
    monkeypatch.setattr(longpath, "DP_WIDTH_CAP", 1)
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    g = intersection_graph(generate_instance(
        d=2, beta=1.0, n=40, box_side=1.2 * math.sqrt(40), seed=0))
    tracer = spans.Tracer()
    with tracer.installed(), tracer.solve(0, "solve.longpath", g.n):
        assert solve_long_path(g, 4) is not None
    metrics = spans.layer_metrics(tracer.spans, {})
    for name in ("longpath.route.cover", "longpath.cover_reps", "longpath.pattern_calls"):
        assert metrics[name][0] > 0, name
