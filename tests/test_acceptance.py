"""End-to-end acceptance checks.

Each test prints one summary line (via capsys.disabled, so the lines appear
even under captured output) and then asserts the property it measured.
"""

import hashlib
import io
import math
import statistics
from contextlib import redirect_stdout

import numpy as np

from fatpath import hamilton
from fatpath.cli import main as cli_main
from fatpath.geometry import empirical_growth, generate_instance, intersection_graph
from fatpath.graphs import Graph, bfs_ball
from fatpath.hamilton import solve_hamiltonian_cycle, solve_hamiltonian_path
from fatpath.longpath import C_R, outer_cover, pattern_cover, solve_long_path
from fatpath.oracle import (
    held_karp_cycle,
    held_karp_path,
    longest_path_exact,
    planted_clique_partition_graph,
)
from fatpath.partition import (
    SolverConfig,
    kappa_partition,
    refine_to_linked,
    separator_tree,
)
from fatpath.treewidth import heuristic_decomposition


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def disk_graph(n, side_factor, seed, beta=1.0):
    inst = generate_instance(d=2, beta=beta, n=n,
                             box_side=side_factor * math.sqrt(n), seed=seed)
    return intersection_graph(inst)


def report(capsys, line):
    with capsys.disabled():
        print("\n" + line)


def check_hamiltonicity(capsys, route):
    # 250 random + 250 geometric instances, both cycle and path solvers
    mismatches = 0
    invalid = 0
    count = 0
    for seed in range(250):
        n = 6 + seed % 11
        g = random_graph(n, (0.2, 0.4, 0.6, 0.8)[seed % 4], seed)
        graphs = [g]
        n2 = 6 + (seed * 7) % 11
        graphs.append(disk_graph(n2, (1.6, 2.2, 3.0)[seed % 3], seed,
                                 beta=(1.0, 2.0)[seed % 2]))
        for g in graphs:
            for solve, oracle in (
                (solve_hamiltonian_cycle, held_karp_cycle),
                (solve_hamiltonian_path, held_karp_path),
            ):
                cert = solve(g)
                if (cert is not None) != (oracle(g) is not None):
                    mismatches += 1
                if cert is not None and not cert.validate(g, hamiltonian=True):
                    invalid += 1
            count += 1
    ok = mismatches == 0 and invalid == 0
    report(capsys, f"[1/8] hamiltonicity oracle equivalence{route}: "
                   f"{'PASS' if ok else 'FAIL'} "
                   f"({count} instances, {mismatches} verdict mismatches, "
                   f"{invalid} invalid certificates)")
    assert ok


def check_long_path(capsys, route):
    unsound = 0
    missed = 0
    oracle_yes = 0
    count = 0
    for seed in range(300):
        n = 6 + seed % 9
        if seed % 2:
            g = random_graph(n, (0.25, 0.5, 0.75)[seed % 3], seed)
        else:
            g = disk_graph(n, 2.0, seed, beta=(2.0 if seed % 4 == 0 else 1.0))
        opt, _ = longest_path_exact(g)
        count += 1
        for k in range(1, n + 1):
            cert = solve_long_path(g, k, seed=seed)
            if cert is not None:
                if not cert.validate(g) or len(cert.vertices) < k or k > opt:
                    unsound += 1
            if k <= opt:
                oracle_yes += 1
                if cert is None:
                    missed += 1
    completeness = 1.0 - missed / oracle_yes
    ok = unsound == 0 and completeness >= 0.99
    report(capsys, f"[2/8] long-path soundness/completeness{route}: "
                   f"{'PASS' if ok else 'FAIL'} "
                   f"({count} instances, {unsound} unsound, completeness "
                   f"{completeness:.4f} over {oracle_yes} yes-cases)")
    assert ok


# The search decides almost every exact call within its budget; a budget of
# 0 sends each one on to the DP route, so the oracles check that too.


def test_hamiltonicity_matches_exhaustive_oracle(capsys):
    check_hamiltonicity(capsys, "")


def test_hamiltonicity_matches_exhaustive_oracle_by_dp(capsys, monkeypatch):
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    check_hamiltonicity(capsys, " (search budget 0)")


def test_long_path_soundness_and_completeness(capsys):
    check_long_path(capsys, "")


def test_long_path_soundness_and_completeness_by_dp(capsys, monkeypatch):
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    check_long_path(capsys, " (search budget 0)")


def test_partition_structure(capsys):
    cfg = SolverConfig()
    bad_structure = 0
    bad_bounds = 0
    for seed in range(100):
        n = 20 + (seed % 5) * 10
        g = disk_graph(n, 1.8, seed, beta=(1.0, 2.0)[seed % 2])
        p0 = kappa_partition(g)
        p, _ = refine_to_linked(g, p0, cfg)
        if not p.check(g):
            bad_structure += 1
    for seed in range(100):
        kappa = 2 + seed % 3
        g, planted = planted_clique_partition_graph(
            12 + seed % 14, kappa, seed, extra_edge_prob=0.15)
        if not g.is_connected():
            continue
        leaves, interior = separator_tree(g, frozenset(range(g.n)), cfg.g_threshold)
        k_eff = len(planted)
        if len(leaves) > k_eff:
            bad_bounds += 1
        if len(interior) > (k_eff - 1) * cfg.g_threshold:
            bad_bounds += 1
    ok = bad_structure == 0 and bad_bounds == 0
    report(capsys, f"[3/8] partition structure: {'PASS' if ok else 'FAIL'} "
                   f"(200 instances, {bad_structure} invariant failures, "
                   f"{bad_bounds} planted-bound failures)")
    assert ok


def test_width_scaling(capsys):
    widths = {}
    for n in (100, 400, 1600):
        widths[n] = [heuristic_decomposition(disk_graph(n, 1.6, seed)).width
                     for seed in range(20)]
    r1 = statistics.median(b / a for a, b in zip(widths[100], widths[400]))
    r2 = statistics.median(b / a for a, b in zip(widths[400], widths[1600]))
    ok = r1 <= 2.5 and r2 <= 2.5
    report(capsys, f"[4/8] width scaling: {'PASS' if ok else 'FAIL'} "
                   f"(median ratios {r1:.2f} and {r2:.2f}, bound 2.5)")
    assert ok


def test_pattern_cover_compliance(capsys):
    c_tw = 0.35  # width bound constant: width <= c_tw * sqrt(k) * log2(k)
    draws = 0
    aborted = 0
    violations = 0
    for i in range(500):
        n = 150 + (i % 5) * 50
        g = disk_graph(n, 1.6, i)
        k = (16, 25, 36, 64)[i % 4]
        sample = pattern_cover(g, k, seed=i, d=2, c_r=C_R)
        draws += 1
        if sample.aborted:
            aborted += 1
            continue
        l_cap = math.ceil(math.sqrt(k) * math.log2(k))
        big_r = math.ceil(C_R * math.sqrt(k))
        if len(sample.boundary) > l_cap:
            violations += 1
        if any(r > big_r for _, r in sample.clusters):
            violations += 1
        sub, _ = g.induced(sample.vertices)
        bound = c_tw * math.sqrt(k) * math.log2(k)
        if sub.n and heuristic_decomposition(sub).width > bound:
            violations += 1
    ok = violations == 0
    report(capsys, f"[5/8] pattern-cover compliance: "
                   f"{'PASS' if ok else 'FAIL'} ({draws} draws, "
                   f"{aborted} aborted, {violations} violations, "
                   f"c_tw={c_tw})")
    assert ok


def _component_radius_ok(g, a, cap):
    sub, _ = g.induced(a)
    for comp in sub.components():
        cg, _ = sub.induced(comp)
        if any(len(bfs_ball(cg, v, cap)[0]) == cg.n for v in range(cg.n)):
            continue
        return False
    return True


def test_outer_cover_hit_probability(capsys):
    k = 8
    trials = 2000
    cap = math.ceil(4.0 * k * math.log2(k))

    g_disk = disk_graph(200, 22.0 / math.sqrt(200), 5)
    comp = max(g_disk.components(), key=len)
    sub, ids = g_disk.induced(comp)
    order, _ = bfs_ball(sub, 0, sub.n)
    x_disk = frozenset(ids[v] for v in sorted(order)[:k])

    g_path = Graph(400, [(i, i + 1) for i in range(399)])
    x_path = frozenset(range(200, 208))

    families = [
        ("singleton", Graph(1, []), frozenset({0})),
        ("long path", g_path, x_path),
        ("unit disk", g_disk, x_disk),
    ]
    rates = []
    radius_bad = 0
    for name, g, x in families:
        hits = 0
        for t in range(trials):
            a = outer_cover(g, k, t)
            if x <= a:
                hits += 1
            if name != "singleton" and t % 20 == 0:
                if not _component_radius_ok(g, a, cap):
                    radius_bad += 1
        p_hat = hits / trials
        # Wilson lower confidence bound at z = 1.96
        z = 1.96
        denom = 1 + z * z / trials
        center = p_hat + z * z / (2 * trials)
        spread = z * math.sqrt(p_hat * (1 - p_hat) / trials
                               + z * z / (4 * trials * trials))
        rates.append((name, p_hat, (center - spread) / denom))
    ok = all(p >= 0.05 for _, p, _ in rates) and radius_bad == 0
    detail = ", ".join(f"{n} {p:.3f} (lcb {lo:.3f})" for n, p, lo in rates)
    report(capsys, f"[6/8] outer-cover hit probability: "
                   f"{'PASS' if ok else 'FAIL'} ({detail}; "
                   f"{radius_bad} radius violations)")
    assert ok


def test_growth_fits_quadratic(capsys):
    fits = []
    for seed in range(20):
        g = disk_graph(300, 1.6, seed)
        comp = max(g.components(), key=len)
        sub, _ = g.induced(comp)
        table = empirical_growth(sub, 8)
        rs = np.log([r for r, _ in table])
        sz = np.log([s for _, s in table])
        slope, _ = np.polyfit(rs, sz, 1)
        fits.append(float(slope))
    ok = all(1.6 <= f <= 2.4 for f in fits)
    report(capsys, f"[7/8] growth exponent: {'PASS' if ok else 'FAIL'} "
                   f"(20 fits in [{min(fits):.2f}, {max(fits):.2f}], "
                   f"bound [1.6, 2.4])")
    assert ok


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code in (0, 1)
    return buf.getvalue()


def test_byte_identical_reruns(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    graph = tmp_path / "g.txt"
    _run_cli(["generate", "--n", "14", "--seed", "3", "--box-side", "8",
              "-o", str(inst)])
    _run_cli(["graph", str(inst), "-o", str(graph)])
    commands = [
        ["generate", "--n", "14", "--seed", "3", "--box-side", "8"],
        ["graph", str(inst)],
        ["partition", str(graph)],
        ["ham", str(graph)],
        ["ham", "--path", str(graph)],
        ["longpath", "--k", "6", "--seed", "9", str(graph)],
        ["cover", "--k", "8", "--trials", "40", "--seed", "2", str(graph)],
        ["cover", "--outer", "--k", "8", "--trials", "40", "--seed", "2",
         str(graph)],
    ]
    for seed in range(1, 13):
        small = str(tmp_path / f"small{seed}.json")
        _run_cli(["generate", "--n", "11", "--seed", str(seed), "--box-side", "7",
                  "-o", small])
        commands += [["ham", small], ["ham", "--path", small],
                     ["longpath", "--k", "5", "--seed", str(seed), small]]
    diffs = 0
    for argv in commands:
        h1 = hashlib.sha256(_run_cli(argv).encode()).hexdigest()
        h2 = hashlib.sha256(_run_cli(argv).encode()).hexdigest()
        if h1 != h2:
            diffs += 1
    ok = diffs == 0
    report(capsys, f"[8/8] determinism: {'PASS' if ok else 'FAIL'} "
                   f"({len(commands)} commands re-run, {diffs} differed)")
    assert ok
