import io
import itertools
from contextlib import redirect_stdout

import pytest

from fatpath.certificates import Certificate
from fatpath.cli import main
from fatpath.graphs import Graph, write_graph

from helpers import partition_from_json


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


def test_graph_lists_edges_in_ascending_order(tmp_path):
    inst = tmp_path / "inst.json"
    assert run(["generate", "--n", "40", "--seed", "1", "--box-side", "12",
                "-o", str(inst)])[0] == 0
    code, out = run(["graph", str(inst)])
    assert code == 0
    edges = [tuple(map(int, line.split()[1:])) for line in out.splitlines()[1:]]
    assert len(edges) > 40 and edges == sorted(edges)


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


def test_ham_wrong_edge_count_exits_2(tmp_path):
    for count in ("x", "-2", "7"):
        p = tmp_path / "bad.txt"
        p.write_text(f"p 3 {count}\ne 0 1\n")
        assert run(["ham", str(p)]) == (2, ""), count


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


def test_non_finite_instance_json_exits_2(tmp_path):
    # json reads NaN, Infinity and 1e400 as floats, and Python ints have no
    # bound; each would place an object nowhere or size it past any beta
    ball = '{"type":"ball","center":%s,"radius":%s}'
    box = '{"type":"box","center":%s,"half_extents":%s}'
    objects = {
        "nan_center": ball % ("[NaN,0]", "1"),
        "inf_center": ball % ("[0,Infinity]", "1"),
        "overflow_center": ball % ("[1e400,0]", "1"),
        "huge_int_center": ball % ("[1%s,0]" % ("0" * 400), "1"),
        "nan_radius": ball % ("[0,0]", "NaN"),
        "huge_int_radius": ball % ("[0,0]", "1%s" % ("0" * 400)),
        "inf_half_extent": box % ("[0,0]", "[1,Infinity]"),
        "nan_half_extent": box % ("[0,0]", "[NaN,1]"),
    }
    docs = {name: '{"dimension":2,"beta":2.0,"objects":[%s,%s]}' % (
        obj, ball % ("[1,1]", "1")) for name, obj in objects.items()}
    for beta in ("NaN", "Infinity", "-Infinity", "1e400"):
        docs[f"beta_{beta}"] = '{"dimension":2,"beta":%s,"objects":[%s]}' % (
            beta, ball % ("[0,0]", "1"))
    for name, text in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        assert run(["graph", str(p)]) == (2, ""), name
        assert run(["ham", str(p)]) == (2, ""), name
        assert run(["longpath", str(p), "--k", "2"]) == (2, ""), name


def test_generate_rejects_bad_sizes(capsys):
    bad = [["--box-side", "inf"], ["--box-side", "nan"], ["--box-side", "-1"],
           ["--beta", "inf"], ["--beta", "nan"], ["--beta", "0.5"],
           ["--n", "0"], ["--d", "0"]]
    for flag in bad:
        assert run(["generate"] + flag) == (2, ""), flag
    assert capsys.readouterr().err.count("error: ") == len(bad)
    assert run(["generate", "--box-side", "0", "--n", "3"])[0] == 0


def test_generate_rejects_bad_shape_mix(capsys):
    # NaN compares false, so it once gave boxes only and exit 0
    for value in ("nan", "-3", "1.5"):
        assert run(["generate", "--n", "4", "--box-side", "5",
                    "--shape-mix", value]) == (2, ""), value
    assert capsys.readouterr().err.count("error: ") == 3
    for value in ("0", "1"):
        assert run(["generate", "--n", "4", "--box-side", "5",
                    "--shape-mix", value])[0] == 0, value


def test_internal_errors_exit_3(tmp_path, monkeypatch, capsys):
    from fatpath import dp, hamilton
    c5 = tmp_path / "c5.txt"
    c5.write_text(write_graph(Graph(5, [(i, (i + 1) % 5) for i in range(5)])))
    # a Hamiltonian cycle of K5 that uses non-edges of C5
    corrupt = [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]
    with monkeypatch.context() as m:
        m.setattr(dp, "_witness", lambda *args, **kwargs: corrupt)
        # the search would decide C5 first; with no budget the DP's witness
        # is used
        m.setattr(hamilton, "SEARCH_NODES", 0)
        assert run(["ham", str(c5)]) == (3, "")
    assert capsys.readouterr().err.startswith("error: ")

    # K8 plus a triangle: two parts, so the lift runs; blaming the same part
    # twice stops the fallback loop
    edges = list(itertools.combinations(range(8), 2)) + [(0, 8), (1, 9), (8, 9)]
    g = tmp_path / "k8.txt"
    g.write_text(write_graph(Graph(10, edges)))

    def blame_part_0(*args, **kwargs):
        raise hamilton.FallbackRequired(0)

    # the search on G would decide this graph before the lift runs
    monkeypatch.setattr(hamilton, "SEARCH_NODES", 0)
    monkeypatch.setattr(hamilton, "reconstruct", blame_part_0)
    assert run(["ham", str(g)]) == (3, "")
    assert capsys.readouterr().err.startswith("error: ")

    # any other exception is internal too, never a "no"
    def crash(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(hamilton, "reconstruct", crash)
    assert run(["ham", str(g)]) == (3, "")
    assert capsys.readouterr().err.startswith("error: internal: ")


def test_ham_and_partition_take_no_seed(tmp_path, capsys):
    # nor any other flag that no code they run reads
    path, _ = write_k5(tmp_path)
    unread = [["--seed", "1"], ["--lambda", "7"], ["--budget", "5"],
              ["--cr", "2.0"], ["--crep", "2.0"], ["--d", "3"],
              ["--blue-strategy", "all"]]
    for cmd, flag in itertools.product(("ham", "partition"), unread):
        with pytest.raises(SystemExit) as exc:
            main([cmd, path] + flag)
        assert exc.value.code == 2, (cmd, flag)
    for flag in (["--lambda", "7"], ["--mark-strategy", "full"],
                 ["--cr", "2.0"], ["--crep", "2.0"]):
        with pytest.raises(SystemExit) as exc:
            main(["longpath", path, "--k", "4"] + flag)
        assert exc.value.code == 2, flag
    # outer_cover reads neither pattern-cover flag
    capsys.readouterr()
    for flag in (["--d", "2"], ["--cr", "4.0"]):
        assert run(["cover", path, "--outer"] + flag) == (2, ""), flag
        assert capsys.readouterr().err.startswith("error: "), flag
    assert run(["cover", path, "--outer"])[0] == 0
    assert run(["cover", path, "--d", "3", "--cr", "2.0"])[0] == 0


def test_ham_missing_file():
    assert run(["ham", "/nonexistent/g.txt"])[0] == 2


def test_longpath_exit_codes(tmp_path):
    g = Graph(6, [(i, i + 1) for i in range(5)])
    p = tmp_path / "p6.txt"
    p.write_text(write_graph(g))
    assert run(["longpath", str(p), "--k", "6"])[0] == 0
    assert run(["longpath", str(p), "--k", "7"])[0] == 1
    # a path on at least 0 vertices always exists: k < 1 is an input error,
    # never a "no"
    for k in ("0", "-2"):
        assert run(["longpath", str(p), "--k", k]) == (2, ""), k


def test_nonpositive_budget_is_an_input_error(tmp_path, capsys):
    # a cover route with no repetition would report its one-sided "no"
    path, _ = write_k5(tmp_path)
    for budget in ("0", "-5"):
        assert run(["longpath", path, "--k", "4", "--budget", budget]) == (2, ""), budget
    assert capsys.readouterr().err.count("error: ") == 2


def test_zero_d_is_an_input_error(tmp_path, capsys):
    path, _ = write_k5(tmp_path)
    assert run(["longpath", path, "--k", "8", "--d", "0"]) == (2, "")
    assert run(["cover", path, "--k", "8", "--d", "0"]) == (2, "")
    assert capsys.readouterr().err.count("error: ") == 2


def test_partition_output(tmp_path):
    path, _ = write_k5(tmp_path)
    out = tmp_path / "p.json"
    assert run(["partition", path, "-o", str(out)])[0] == 0
    p = partition_from_json(out.read_text())
    assert sum(len(x) for x in p.parts) == 5
    # the empty graph has the empty partition, as ham, longpath and cover
    # answer it too
    empty = tmp_path / "empty.txt"
    empty.write_text("p 0 0\n")
    assert run(["partition", str(empty)]) == (0, '{"parts":[],"kinds":[]}\n')


def test_cover_stats(tmp_path):
    path, _ = write_k5(tmp_path)
    trace = tmp_path / "trace.jsonl"
    code, out = run(["cover", path, "--k", "8", "--trials", "3",
                     "--trace", str(trace)])
    assert code == 0
    assert trace.exists() and trace.read_text().count("\n") >= 2


def test_cover_rejects_bad_cr_and_trials(tmp_path, capsys):
    # a non-finite radius constant is an input error, not an internal one,
    # and a run of no trials reports nothing
    path, _ = write_k5(tmp_path)
    bad = [["--cr", "inf"], ["--cr", "nan"], ["--cr", "0"],
           ["--trials", "0"], ["--trials", "-3"]]
    for flag in bad:
        assert run(["cover", path] + flag) == (2, ""), flag
    assert capsys.readouterr().err.count("error: ") == len(bad)
    assert run(["cover", path, "--cr", "2.5", "--trials", "2"])[0] == 0
