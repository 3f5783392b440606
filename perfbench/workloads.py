"""Seeded instance sets and answer checks for the benchmark workloads.

Every instance is an intersection graph of random fat objects from
``fatpath.geometry``.  The benchmark seed fixes every instance; the solvers
receive only the graphs (and k for long path).  Instances are listed
round-robin over their strata (size, shape family, density, k), so any
prefix of the list, which is what a time-bounded run solves, has the same
mix as the whole list.
"""

from __future__ import annotations

import hashlib
import math
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from fatpath.geometry import generate_instance, intersection_graph
from fatpath.graphs import Graph
from fatpath.oracle import held_karp_cycle, held_karp_path


@dataclass(frozen=True)
class Family:
    """One shape family: object size range [1, beta] and the share of balls."""

    name: str
    beta: float
    shape_mix: float


UNIT_DISKS = Family("unit-disk", 1.0, 1.0)
FAT_MIX = Family("beta2-disk-box", 2.0, 0.5)


Stratum = tuple[int, Family, float, int]  # (n, family, side factor, k)


def grid(sizes, shapes, ks) -> tuple[Stratum, ...]:
    """Every (n, family, side factor, k) combination, k outermost."""
    return tuple((n, fam, sf, k) for k in ks for fam, sf in shapes for n in sizes)


@dataclass(frozen=True)
class Workload:
    """A named instance distribution.

    A stratum pairs a size and a shape family with a side factor, which sets
    density: centres are uniform in a square of side ``side_factor * sqrt(n)``,
    so smaller factors give denser graphs.  ``deadline_s`` bounds every solve;
    a solve that reaches it is a failure.
    """

    name: str
    problems: tuple[str, ...]  # solver calls per instance, in order
    strata: tuple[Stratum, ...]  # k is 0 for the Hamiltonian solvers
    count: int  # instances in the list; a run wraps around it
    deadline_s: float
    why: str


# The strata are the ones on which every solve of the seed code ends far
# inside the deadline (the slowest seen: 0.5 s on ham-oracle and 14 s on
# longpath-mid).  Larger or denser graphs have solves that run for
# minutes, which a fixed-length run cannot hold (perfbench/README.md), so
# the deadline only guards against a hang and is not expected to fire.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ham-oracle",
            problems=("cycle", "path"),
            strata=grid((6, 7, 8),
                        ((UNIT_DISKS, 0.8), (UNIT_DISKS, 1.0), (UNIT_DISKS, 1.2),
                         (FAT_MIX, 0.9), (FAT_MIX, 1.2), (FAT_MIX, 1.5)),
                        (0,)),
            count=3600,
            deadline_s=60.0,
            why="Hamiltonian cycle and path on n=6-8 unit-disk and beta=2 "
            "disk/box graphs, checked by Held-Karp; the DP in cycle and path mode leads",
        ),
        Workload(
            name="longpath-mid",
            problems=("longpath",),
            strata=grid((40, 60, 80), ((UNIT_DISKS, 2.8), (UNIT_DISKS, 3.2)), (6, 9, 12)),
            count=1200,
            deadline_s=60.0,
            why="long path k=6-12 on sparse n=40-80 unit-disk graphs; the exact route, "
            "with the DP in longpath mode on the pruned contraction",
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    index: int
    graph: Graph
    k: int
    label: str  # stratum, for the failure list


def instance_params(w: Workload, seed: int) -> list[tuple]:
    """(n, family, side factor, k, generator seed) for every instance."""
    # the workload's name, not its position, keys the stream, so adding a
    # workload leaves the other workloads' instances unchanged
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    strata = w.strata
    # shuffle the stratum order once per seed, then cycle through it
    order = rng.permutation(len(strata))
    gen_seeds = rng.integers(0, 2**31, size=w.count)
    return [
        strata[int(order[i % len(strata)])] + (int(gen_seeds[i]),)
        for i in range(w.count)
    ]


def build_instances(w: Workload, params: list[tuple]) -> tuple[list[Instance], float, float]:
    """Generate every instance; return them with generate and graph seconds."""
    out = []
    t_gen = t_graph = 0.0
    for i, (n, fam, sf, k, s) in enumerate(params):
        t0 = time.perf_counter()
        inst = generate_instance(
            d=2, beta=fam.beta, n=n, box_side=sf * math.sqrt(n),
            shape_mix=fam.shape_mix, seed=s,
        )
        t1 = time.perf_counter()
        g = intersection_graph(inst)
        t2 = time.perf_counter()
        t_gen += t1 - t0
        t_graph += t2 - t1
        label = f"n={n} {fam.name} side={sf}" + (f" k={k}" if k else "")
        out.append(Instance(i, g, k, label))
    return out, t_gen, t_graph


def fingerprint(instances: list[Instance]) -> str:
    """sha256 over every instance's vertex count, sorted edge list and k."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.graph.n};{inst.k};".encode())
        h.update(",".join(f"{u}-{v}" for u, v in sorted(inst.graph.edges())).encode())
        h.update(b"|")
    return h.hexdigest()


# ---------------------------------------------------------------- checks


def check_hamiltonian(g: Graph, kind: str, cert, oracle_cache: dict, key) -> Optional[str]:
    """None if the answer is right, else the reason it is wrong.

    A certificate that validates proves the Held-Karp verdict is yes, so
    Held-Karp runs only for "no" answers; its result is cached per key.
    """
    if cert is not None:
        if cert.kind != kind:
            return f"certificate kind {cert.kind!r}, expected {kind!r}"
        if not cert.validate(g, hamiltonian=True):
            return "invalid certificate"
        return None
    if key not in oracle_cache:
        oracle = held_karp_cycle if kind == "cycle" else held_karp_path
        oracle_cache[key] = oracle(g) is not None
    if oracle_cache[key]:
        return "wrong verdict: no, Held-Karp says yes"
    return None


def find_k_path(g: Graph, k: int, budget: int = 200_000) -> Optional[tuple[int, ...]]:
    """Benchmark-side search for a simple path on k vertices, or None.

    Depth-first from every vertex, preferring neighbours with fewer
    neighbours, which finds long paths in geometric graphs quickly.  None
    means no path was found within `budget` steps (or none exists).
    """
    if max((len(c) for c in g.components()), default=0) < k:
        return None
    nbrs = [sorted(g.neighbors(v)) for v in range(g.n)]
    steps = 0
    for s in sorted(range(g.n), key=lambda v: (len(nbrs[v]), v)):
        path = [s]
        on = {s}
        stack = [iter(sorted(nbrs[s], key=lambda u: len(nbrs[u])))]
        while stack:
            if len(path) >= k:
                return tuple(path)
            steps += 1
            if steps > budget:
                return None
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                on.discard(path.pop())
                continue
            if nxt in on:
                continue
            path.append(nxt)
            on.add(nxt)
            free = [u for u in nbrs[nxt] if u not in on]
            stack.append(iter(sorted(free, key=lambda u: len(nbrs[u]))))
    return None


def check_long_path(g: Graph, k: int, cert, witness_cache: dict, key) -> Optional[str]:
    """None if the answer is right, else the reason it is wrong.

    A "no" is wrong when the benchmark's own search holds a k-vertex path.
    """
    if cert is not None:
        if cert.kind != "path":
            return f"certificate kind {cert.kind!r}, expected 'path'"
        if not cert.validate(g):
            return "invalid certificate"
        if len(cert.vertices) < k:
            return f"path has {len(cert.vertices)} vertices, k={k}"
        return None
    if key not in witness_cache:
        witness_cache[key] = find_k_path(g, k)
    if witness_cache[key] is not None:
        return "answered no, but a witness path exists"
    return None
