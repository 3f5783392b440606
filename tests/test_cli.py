import csv
import hashlib
import io
import itertools
from contextlib import redirect_stdout

import pytest

from fatpath.certificates import Certificate
from fatpath.cli import main
from fatpath.graphs import Graph, read_graph, write_graph


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write_k5(tmp_path):
    g = Graph(5, list(itertools.combinations(range(5), 2)))
    p = tmp_path / "k5.txt"
    p.write_text(write_graph(g))
    return str(p), g


def test_generate_graph_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    g1 = tmp_path / "g1.txt"
    assert run(["generate", "--n", "15", "--seed", "4", "--box-side", "8",
                "-o", str(inst)])[0] == 0
    assert run(["graph", str(inst), "-o", str(g1)])[0] == 0
    # byte-identical against the in-memory pipeline
    from fatpath.geometry import generate_instance, intersection_graph
    ref = intersection_graph(generate_instance(d=2, beta=2.0, n=15,
                                               box_side=8.0, shape_mix=1.0, seed=4))
    assert g1.read_text() == write_graph(ref)


def test_ham_k5_yes(tmp_path):
    path, g = write_k5(tmp_path)
    code, out = run(["ham", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "yes" and lines[1].startswith("cycle: ")
    verts = tuple(int(x) for x in lines[1].split(":")[1].split())
    assert Certificate("cycle", verts).validate(g, hamiltonian=True)


def test_ham_star_no(tmp_path):
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    p = tmp_path / "star.txt"
    p.write_text(write_graph(g))
    code, out = run(["ham", str(p)])
    assert code == 1 and out.strip() == "no"


def test_ham_malformed_input(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("p x y\n")
    assert run(["ham", str(p)])[0] == 2


def test_malformed_instance_json_exits_2(tmp_path):
    docs = {
        "missing_key": '{"dimension":2}',
        "null_objects": '{"dimension":2,"beta":2.0,"objects":null}',
        "object_not_a_record": '{"dimension":2,"beta":2.0,"objects":[1]}',
        "object_missing_radius":
            '{"dimension":2,"beta":2.0,"objects":[{"type":"ball","center":[0,0]}]}',
    }
    for name, text in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        assert run(["ham", str(p)])[0] == 2, name
        assert run(["longpath", str(p), "--k", "4"])[0] == 2, name
        assert run(["graph", str(p)])[0] == 2, name


def test_internal_errors_exit_3(tmp_path, monkeypatch, capsys):
    from fatpath import hamilton
    c5 = tmp_path / "c5.txt"
    c5.write_text(write_graph(Graph(5, [(i, (i + 1) % 5) for i in range(5)])))
    # a Hamiltonian cycle of K5 that uses non-edges of C5
    corrupt = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]
    with monkeypatch.context() as m:
        m.setattr(hamilton, "solve_dp", lambda *args, **kwargs: corrupt)
        assert run(["ham", str(c5)]) == (3, "")
    assert capsys.readouterr().err.startswith("error: ")

    # K8 plus a triangle: two parts, so the lift runs; blaming the same part
    # twice stops the fallback loop
    edges = list(itertools.combinations(range(8), 2)) + [(0, 8), (1, 9), (8, 9)]
    g = tmp_path / "k8.txt"
    g.write_text(write_graph(Graph(10, edges)))

    def blame_part_0(*args, **kwargs):
        raise hamilton.FallbackRequired(0)

    monkeypatch.setattr(hamilton, "reconstruct", blame_part_0)
    assert run(["ham", str(g)]) == (3, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_ham_and_partition_take_no_seed(tmp_path, capsys):
    # nor any other flag that no code they run reads
    path, _ = write_k5(tmp_path)
    unread = [["--seed", "1"], ["--lambda", "7"], ["--budget", "5"],
              ["--cr", "2.0"], ["--crep", "2.0"], ["--d", "3"]]
    for cmd, flag in itertools.product(("ham", "partition"), unread):
        with pytest.raises(SystemExit) as exc:
            main([cmd, path] + flag)
        assert exc.value.code == 2, (cmd, flag)
    for argv in (["longpath", path, "--k", "4"], ["bench", "--count", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--lambda", "7"])
        assert exc.value.code == 2, argv


def test_ham_missing_file():
    assert run(["ham", "/nonexistent/g.txt"])[0] == 2


def test_longpath_exit_codes(tmp_path):
    g = Graph(6, [(i, i + 1) for i in range(5)])
    p = tmp_path / "p6.txt"
    p.write_text(write_graph(g))
    assert run(["longpath", str(p), "--k", "6"])[0] == 0
    assert run(["longpath", str(p), "--k", "7"])[0] == 1


def test_partition_output(tmp_path):
    path, _ = write_k5(tmp_path)
    out = tmp_path / "p.json"
    assert run(["partition", path, "-o", str(out)])[0] == 0
    from fatpath.partition import partition_from_json
    p = partition_from_json(out.read_text())
    assert sum(len(x) for x in p.parts) == 5


def test_cover_stats(tmp_path):
    path, _ = write_k5(tmp_path)
    trace = tmp_path / "trace.jsonl"
    code, out = run(["cover", path, "--k", "8", "--trials", "3",
                     "--trace", str(trace)])
    assert code == 0
    assert trace.exists() and trace.read_text().count("\n") >= 2


def test_bench_csv_certificates_revalidate(tmp_path):
    out = tmp_path / "bench.csv"
    code, _ = run(["bench", "--cmd", "hamcycle", "--count", "20", "--n", "9",
                   "--box-side", "6", "--seed", "0", "--stable",
                   "--csv", str(out)])
    assert code == 0
    from fatpath.geometry import generate_instance, intersection_graph
    from fatpath.hamilton import solve_hamiltonian_cycle
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 20
    for row in rows:
        g = intersection_graph(generate_instance(
            d=2, beta=2.0, n=9, box_side=6.0, shape_mix=1.0,
            seed=int(row["seed"])))
        cert = solve_hamiltonian_cycle(g)
        assert (row["verdict"] == "yes") == (cert is not None)
        if cert is not None:
            assert int(row["cert_len"]) == len(cert.vertices)


def test_bench_stable_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--count", "8", "--n", "10", "--box-side", "7",
            "--seed", "3", "--stable"]
    assert run(args + ["--csv", str(a)])[0] == 0
    assert run(args + ["--csv", str(b)])[0] == 0
    ha = hashlib.sha256(a.read_bytes()).hexdigest()
    hb = hashlib.sha256(b.read_bytes()).hexdigest()
    assert ha == hb
