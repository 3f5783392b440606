#!/usr/bin/env python3
"""Seeded benchmark of fatpath's Hamiltonian and long-path solvers.

    python3 perfbench/run.py --workload ham-oracle --seed 1 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--workload all`` runs every workload in this one process.  Each run
generates its instances from the seed, solves them through the public API
for ``--seconds`` seconds of solve time under a per-solve deadline, checks
every answer, and prints one line per metric followed by a JSON result as
the last line of standard output.  ``--trace 1`` first solves untraced for
half the time, then solves the same list again with a span around every
layer call, and reports per-layer figures instead of end-to-end ones.
Details (fingerprint, failure list, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 7
# host-speed samples taken at evenly spaced points of a pass's solve time;
# every TICKS // (SETUP_REPS - 1)-th sample also repeats the set-up
TICKS = 24
REF_LOOP = 1_000_000  # iterations of the host reference loop
REF_NOMINAL_MS = 100.0  # host speed the _at_ref figures are scaled to
BLOCKS = 20  # equal blocks of consecutive solves for block_solves_per_s
TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0)


class DeadlineExceeded(BaseException):
    """Raised into a solve by SIGALRM.  A BaseException, so no handler in the
    solvers that catches Exception can swallow it."""


class Deadline:
    """Interval-timer deadline for one call at a time."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded()

    def call(self, seconds: float, fn, *args):
        """(result, status, elapsed); status is ok, deadline or raised:<repr>."""
        status = "ok"
        out = None
        t0 = time.perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            try:
                out = fn(*args)
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            status = "deadline"
        except Exception as exc:  # a crash is a failed solve, not a dead run
            status = f"raised:{exc!r}"
        return out, status, time.perf_counter() - t0


def host_reference_ms(share: int = 1) -> float:
    """A fixed pure-Python loop, to tell a slower host from a slower program.

    Runs 1/share of REF_LOOP iterations and returns the time scaled to the
    whole loop, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP // share):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - t0) * 1000.0 * share


def import_package() -> float:
    """Import fatpath from this checkout's src/; return seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "fatpath", "__init__.py")):
        raise SystemExit(f"perfbench: no fatpath package under {SRC}; "
                         "run from a repository checkout")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import fatpath
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(fatpath.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported fatpath from {fatpath.__file__}, not {SRC}")
    return elapsed


def tail_percentile(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PCTS with at least ten
    solves beyond it, or the median if none has."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PCTS:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


class Workbench:
    """One workload's instances, solvers and answer checks for one seed."""

    def __init__(self, name: str, seed: int):
        import fatpath
        import workloads as wl

        self.wl = wl
        self.spec = wl.WORKLOADS[name]
        self.solvers = {
            "cycle": fatpath.solve_hamiltonian_cycle,
            "path": fatpath.solve_hamiltonian_path,
            "longpath": lambda g, k: fatpath.solve_long_path(g, k, seed=seed),
        }
        self._params = wl.instance_params(self.spec, seed)
        self._setup_reps: list[tuple[float, float, float]] = []
        self.instances = self.time_setup()
        self.fingerprint = wl.fingerprint(self.instances)
        self._oracle: dict = {}

    def time_setup(self):
        """Build the instance list once more and record how long it took."""
        t0 = time.perf_counter()
        instances, t_gen, t_graph = self.wl.build_instances(self.spec, self._params)
        self._setup_reps.append((time.perf_counter() - t0, t_gen, t_graph))
        return instances

    def setup_medians(self) -> tuple[float, float, float]:
        """Median build, generate and graph seconds over the set-up repeats."""
        return tuple(statistics.median(r[i] for r in self._setup_reps) for i in range(3))

    def schedule(self):
        """Endless (solve id, instance, problem) sequence; wraps around."""
        sid = 0
        while True:
            for inst in self.instances:
                for problem in self.spec.problems:
                    yield sid, inst, problem
                    sid += 1

    def solve(self, deadline: Deadline, inst, problem: str):
        fn = self.solvers[problem]
        args = (inst.graph, inst.k) if problem == "longpath" else (inst.graph,)
        return deadline.call(self.spec.deadline_s, fn, *args)

    def check(self, inst, problem: str, cert) -> str | None:
        key = (inst.index, problem)
        if problem == "longpath":
            return self.wl.check_long_path(inst.graph, inst.k, cert, self._oracle, key)
        return self.wl.check_hamiltonian(inst.graph, problem, cert, self._oracle, key)

    def warm_up(self, deadline: Deadline) -> None:
        """Untimed solves on tiny graphs, so lazy set-up is not timed."""
        from fatpath.graphs import Graph

        ring = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        for fn, args in ((self.solvers["cycle"], (ring,)), (self.solvers["path"], (ring,)),
                         (self.solvers["longpath"], (ring, 4))):
            deadline.call(self.spec.deadline_s, fn, *args)


def run_pass(bench: Workbench, deadline: Deadline, seconds: float, plan=None, tracer=None,
             on_tick=None):
    """Solve until `seconds` of solve time are spent, or exactly `plan`.

    Returns one record per solve: (solve id, instance, problem, cert,
    status, elapsed).  Answers are checked afterwards, outside the timing.
    A time-bounded pass calls `on_tick`, outside the timing, at TICKS
    evenly spaced points of its solve time.
    """
    records = []
    spent = 0.0
    ticks = 0
    source = plan if plan is not None else bench.schedule()
    for sid, inst, problem in source:
        if plan is None and records and spent >= seconds:
            break
        while on_tick is not None and ticks < TICKS and spent >= ticks * seconds / TICKS:
            on_tick(ticks)
            ticks += 1
        if tracer is None:
            cert, status, dt = bench.solve(deadline, inst, problem)
        else:
            with tracer.solve(sid, f"solve.{problem}", inst.graph.n):
                cert, status, dt = bench.solve(deadline, inst, problem)
        records.append((sid, inst, problem, cert, status, dt))
        spent += dt
    return records


def check_records(bench: Workbench, records) -> tuple[list[dict], int]:
    """Failure list, and how many of the failures are wrong answers."""
    failures = []
    wrong = 0
    for sid, inst, problem, cert, status, dt in records:
        reason = status if status != "ok" else bench.check(inst, problem, cert)
        if reason is None:
            continue
        if status == "ok" or status.startswith("raised"):
            wrong += 1
        failures.append({"solve": sid, "instance": inst.index, "problem": problem,
                         "label": inst.label, "reason": reason, "seconds": round(dt, 4)})
    return failures, wrong


def end_to_end(records, n_failed: int, rss_mb: float, setup_s: float, host_ms: float):
    """(registered metrics, further figures, tail notes).  The further
    figures are printed and kept in the report but not registered.

    Only medians are registered.  A few solves in a thousand run for seconds
    and take tens of MB, and whether a seed's instances hold one decides
    the mean rate, the tail and the peak memory of a run; medians over the
    whole run do not move with them.  host_ms is the median time of the
    host reference loop during the pass; the ``_at_ref`` figures are scaled
    to a host on which it takes REF_NOMINAL_MS, because a shared host's
    speed moves by a quarter from one minute to the next and these CPU-bound
    solvers move with it (see perfbench/README.md).
    """
    times = [r[5] for r in records]
    n = len(times)
    pct, tail = tail_percentile(times)
    size = max(1, n // BLOCKS)
    blocks = [times[i:i + size] for i in range(0, n - size + 1, size)]
    block_per_s = statistics.median(len(b) / sum(b) for b in blocks)
    p50_ms = statistics.median(times) * 1000.0
    scale = host_ms / REF_NOMINAL_MS
    metrics = {
        "block_solves_per_s_at_ref": (block_per_s * scale, "1/s"),
        "solve_p50_ms_at_ref": (p50_ms / scale, "ms"),
        "setup_s": (setup_s, "s"),
    }
    info = {
        "block_solves_per_s": (block_per_s, "1/s"),
        "solve_p50_ms": (p50_ms, "ms"),
        "solves_per_s": (n / sum(times), "1/s"),
        "solve_tail_ms": (tail * 1000.0, "ms"),
        "solve_max_ms": (max(times) * 1000.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "fail_frac": (n_failed / n, "frac"),
        "host_ref_ms": (host_ms, "ms"),
    }
    notes = {"tail_pct": pct, "beyond_tail": n - math.ceil(pct / 100.0 * n), "blocks": len(blocks)}
    return metrics, info, notes


def traced_layers(bench: Workbench, deadline: Deadline, seconds: float, on_tick):
    """(untraced records, traced records, per-layer metrics, tracer)."""
    import spans as tr
    from fatpath.treewidth import heuristic_decomposition

    base = run_pass(bench, deadline, seconds / 2.0, on_tick=on_tick)
    plan = [(r[0], r[1], r[2]) for r in base]
    tracer = tr.Tracer()
    with tracer.installed():
        traced = run_pass(bench, deadline, 0.0, plan=plan, tracer=tracer)
    base_s = sum(r[5] for r in base)
    traced_s = sum(r[5] for r in traced)
    widths = {}
    for sid, inst, *_ in traced:
        widths.setdefault(inst.index, heuristic_decomposition(inst.graph).width)
    g_width = {r[0]: widths[r[1].index] for r in traced}
    metrics = tr.layer_metrics(tracer.spans, g_width)
    metrics["trace.overhead_frac"] = (traced_s / base_s - 1.0, "frac")
    metrics["trace.untraced_s"] = (base_s, "s")
    return base, traced, metrics, tracer


def run_workload(name: str, seed: int, seconds: float, traced: bool, import_s: float,
                 deadline: Deadline) -> dict:
    host_before = statistics.median(host_reference_ms() for _ in range(3))
    bench = Workbench(name, seed)
    bench.warm_up(deadline)
    host_ms: list[float] = []

    def tick(i: int) -> None:
        # a short host sample every tick; the set-up repeats are spread over
        # the pass, so a slow spell of the host moves their median less
        host_ms.append(host_reference_ms(share=4))
        if (i + 1) % (TICKS // (SETUP_REPS - 1)) == 0:
            bench.time_setup()

    tracer = None
    if traced:
        base, records, metrics, tracer = traced_layers(bench, deadline, seconds, tick)
        records = base + records
        n = len(records) - len(base)  # traced solves: the sample behind each figure
    else:
        records = run_pass(bench, deadline, seconds, on_tick=tick)
        n = len(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    build_s, generate_s, graph_s = bench.setup_medians()
    failures, wrong = check_records(bench, records)
    host_after = statistics.median(host_reference_ms() for _ in range(3))
    info: dict = {}
    notes: dict = {}
    if traced:
        metrics["geometry.generate_s"] = (generate_s, "s")
        metrics["geometry.intersection_graph_s"] = (graph_s, "s")
        metrics["host.ref_before_ms"] = (host_before, "ms")
        metrics["host.ref_after_ms"] = (host_after, "ms")
        metrics["host.ref_run_ms"] = (statistics.median(host_ms), "ms")
    else:
        metrics, info, notes = end_to_end(records, len(failures), rss_mb, import_s + build_s,
                                          statistics.median(host_ms))

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "fingerprint": bench.fingerprint, "instances": len(bench.instances),
        "deadline_s": bench.spec.deadline_s, "host_ref_ms": [host_before, host_after],
        "host_ref_run_ms": host_ms,
        "attempted": len(records), "failed": len(failures), "wrong": wrong, **notes,
        "metrics": {k: {"value": v, "unit": u} for k, v, u in _flat(metrics)},
        "info": {k: {"value": v, "unit": u} for k, v, u in _flat(info)},
        "failures": failures,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}{'-trace' if traced else ''}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    print(f"# {name} seed={seed} fingerprint={bench.fingerprint} "
          f"instances={len(bench.instances)} deadline={bench.spec.deadline_s}s "
          f"host_ref_ms={host_before:.1f}/{host_after:.1f}")
    for k, v, u in _flat(metrics) + _flat(info):
        extra = ""
        if k.startswith("block_solves_per_s"):
            extra = f"  (median of {notes['blocks']} blocks)"
        elif k == "solve_tail_ms":
            extra = f"  (p{notes['tail_pct']:g}, {notes['beyond_tail']} solves beyond)"
        elif k == "fail_frac":
            extra = f"  ({len(failures)} failed, {wrong} of them wrong answers)"
        print(f"{name}  {k:34s} {v:14.6f} {u:9s} n={n}{extra}")
    for f in failures[:20]:
        print(f"{name}  failure: solve {f['solve']} {f['problem']} [{f['label']}] {f['reason']}")
    return report


def _flat(metrics: dict):
    return [(k, v, u) for k, (v, u) in metrics.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_s = import_package()
    import workloads as wl

    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in wl.WORKLOADS:
            ap.error(f"unknown workload {name!r}; choose from {sorted(wl.WORKLOADS)} or all")
    deadline = Deadline()
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), import_s, deadline)
               for n in names]

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["wrong"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
