"""Command-line front end: instance generation, solving, covers, benchmarks.

Exit codes: 0 success (and "yes" verdicts), 1 "no" verdict, 2 input error,
3 internal error (a solver step produced a certificate that does not
validate, or its fallback loop did not converge; never a verdict).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Optional

from . import geometry
from .certificates import Certificate
from .graphs import Graph, read_graph, write_graph
from .hamilton import solve_hamiltonian_cycle, solve_hamiltonian_path
from .longpath import outer_cover, pattern_cover, solve_long_path
from .partition import (
    SolverConfig,
    build_quotient,
    kappa_partition,
    partition_to_json,
    refine_to_linked,
)
from .treewidth import heuristic_decomposition

CSV_HEADER = [
    "id", "n", "m", "d", "beta", "cmd", "seed", "verdict",
    "cert_len", "ms", "h_size", "width", "reps",
]


class InputError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_instance(path: str) -> geometry.GeometricInstance:
    try:
        return geometry.instance_from_json(_read_text(path))
    except (AttributeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed instance {path}: {exc!r}")


def _load_graph(args) -> Graph:
    if args.input.endswith(".json"):
        return geometry.intersection_graph(_load_instance(args.input))
    text = _read_text(args.input)
    try:
        return read_graph(text)
    except ValueError as exc:
        raise InputError(str(exc))


def _config(args) -> SolverConfig:
    kw = {}
    if getattr(args, "g_threshold", None) is not None:
        kw["g_threshold"] = args.g_threshold
    if getattr(args, "budget", None) is not None:
        kw["repetition_budget"] = args.budget
    if getattr(args, "cr", None) is not None:
        kw["c_r"] = args.cr
    if getattr(args, "crep", None) is not None:
        kw["c_rep"] = args.crep
    if getattr(args, "d", None) is not None:
        kw["d"] = args.d
    return SolverConfig(**kw)


def cmd_generate(args) -> int:
    inst = geometry.generate_instance(
        d=args.d, beta=args.beta, n=args.n, box_side=args.box_side,
        shape_mix=args.shape_mix, seed=args.seed,
    )
    _write_text(args.output, geometry.instance_to_json(inst))
    return 0


def cmd_graph(args) -> int:
    g = geometry.intersection_graph(_load_instance(args.input))
    _write_text(args.output, write_graph(g))
    return 0


def cmd_partition(args) -> int:
    g = _load_graph(args)
    cfg = _config(args)
    p0, _mis = kappa_partition(g)
    p, q = refine_to_linked(g, p0, cfg)
    _write_text(args.output, partition_to_json(p))
    kinds = {}
    for kind in p.kinds:
        kinds[kind] = kinds.get(kind, 0) + 1
    stats = {
        "parts": len(p.parts),
        "kinds": kinds,
        "quotient_n": q.graph.n,
        "quotient_m": q.graph.m,
    }
    print(json.dumps(stats), file=sys.stderr)
    return 0


def _emit_verdict(cert: Optional[Certificate]) -> int:
    if cert is None:
        print("no")
        return 1
    print("yes")
    print(cert.serialize())
    return 0


def cmd_ham(args) -> int:
    g = _load_graph(args)
    cfg = _config(args)
    solve = solve_hamiltonian_path if args.path else solve_hamiltonian_cycle
    cert = solve(g, cfg, blue_strategy=args.blue_strategy)
    return _emit_verdict(cert)


def cmd_longpath(args) -> int:
    g = _load_graph(args)
    cfg = _config(args)
    cert = solve_long_path(g, args.k, cfg, seed=args.seed,
                           mark_strategy=args.mark_strategy)
    return _emit_verdict(cert)


def cmd_cover(args) -> int:
    g = _load_graph(args)
    records = []
    hits = 0
    for t in range(args.trials):
        seed = args.seed + t
        if args.outer:
            a = outer_cover(g, args.k, seed)
            records.append({"trial": t, "size": len(a), "aborted": False})
            if len(a) == g.n:
                hits += 1
        else:
            sample = pattern_cover(g, args.k, seed, d=args.d, c_r=args.cr)
            records.extend(sample.records)
            if not sample.aborted:
                hits += 1
    if args.trace:
        _write_text(args.trace, "\n".join(json.dumps(r) for r in records))
    print(json.dumps({"trials": args.trials, "ok": hits}))
    return 0


def cmd_bench(args) -> int:
    cfg = _config(args)
    rows = []
    for i in range(args.count):
        seed = args.seed + i
        inst = geometry.generate_instance(
            d=args.d, beta=args.beta, n=args.n, box_side=args.box_side,
            shape_mix=args.shape_mix, seed=seed,
        )
        g = geometry.intersection_graph(inst)
        t0 = time.perf_counter()
        if args.cmd == "longpath":
            k = args.k if args.k is not None else max(4, g.n // 2)
            cert = solve_long_path(g, k, cfg, seed=seed)
        elif args.cmd == "hampath":
            cert = solve_hamiltonian_path(g, cfg)
        else:
            cert = solve_hamiltonian_cycle(g, cfg)
        ms = 0 if args.stable else int((time.perf_counter() - t0) * 1000)
        td = heuristic_decomposition(g)
        rows.append({
            "id": i, "n": g.n, "m": g.m, "d": args.d, "beta": args.beta,
            "cmd": args.cmd, "seed": seed,
            "verdict": "yes" if cert is not None else "no",
            "cert_len": len(cert.vertices) if cert is not None else "",
            "ms": ms, "h_size": g.n, "width": td.width, "reps": 1,
        })
    out = sys.stdout if args.csv in (None, "-") else open(args.csv, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _add_geometry_flags(sp, need_n=True):
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--beta", type=float, default=2.0)
    if need_n:
        sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--box-side", type=float, default=20.0)
    sp.add_argument("--shape-mix", type=float, default=1.0)


def _add_solver_flags(sp, cover: bool = False):
    sp.add_argument("--g-threshold", type=int, default=None)
    if cover:  # the long path solver's cover route reads these
        sp.add_argument("--budget", type=int, default=None)
        sp.add_argument("--cr", type=float, default=None)
        sp.add_argument("--crep", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fatpath")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="write a random geometric instance")
    _add_geometry_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("graph", help="instance JSON -> edge-list graph")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("partition", help="compute the refined partition")
    sp.add_argument("input")
    _add_solver_flags(sp)
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("ham", help="Hamiltonian cycle (or path with --path)")
    sp.add_argument("input")
    sp.add_argument("--path", action="store_true")
    sp.add_argument("--blue-strategy", choices=["all", "bounded"], default="all")
    _add_solver_flags(sp)
    sp.set_defaults(func=cmd_ham)

    sp = sub.add_parser("longpath", help="path on >= k vertices")
    sp.add_argument("input")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mark-strategy", choices=["full", "bounded"], default="full")
    _add_solver_flags(sp, cover=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_longpath)

    sp = sub.add_parser("cover", help="sample covers, report success stats")
    sp.add_argument("input")
    sp.add_argument("--k", type=int, default=8)
    sp.add_argument("--outer", action="store_true")
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--cr", type=float, default=4.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", default=None)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("bench", help="CSV of solver runs over a seed range")
    sp.add_argument("--cmd", choices=["hamcycle", "hampath", "longpath"],
                    default="hamcycle")
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--k", type=int, default=None)
    _add_geometry_flags(sp)  # its --d is also the cover dimension
    _add_solver_flags(sp, cover=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stable", action="store_true",
                    help="write ms=0 for reproducible output")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # CertificateError included
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
