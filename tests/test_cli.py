import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from raagbns import bns, cli, graphs, lattice
from raagbns.cli import main
from raagbns.graphs import SimpleGraph


@pytest.fixture
def f3_file(tmp_path):
    path = tmp_path / "f3.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": []}))
    return str(path)


@pytest.fixture
def f4_file(tmp_path):
    path = tmp_path / "f4.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c", "d"], "edges": []}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_classify_f3(capsys, f3_file):
    code, report = run(capsys, "classify", f3_file)
    assert code == 0
    assert report["verdict"] == "raag"
    assert report["defining_graph"] == {
        "vertices": ["a[b|c]", "b[a|c]", "c[a|b]"],
        "edges": [],
    }
    assert report["center_rank"] == 0
    assert report["relators_killed"] is True
    assert report["tool"] == {"name": "raagbns", "version": "0.1.0"}


def test_classify_f4(capsys, f4_file):
    code, report = run(capsys, "classify", f4_file)
    assert code == 0
    assert report["verdict"] == "not_raag"
    assert report["owner"] == "a"
    assert report["loop"] == [["b"], ["c"], ["d"]]
    assert report["homology_witness"]["pairing"] == "1"


def test_classify_with_basepoint_override(capsys, f3_file, tmp_path):
    override = tmp_path / "base.json"
    override.write_text(json.dumps({"a": [["c"]]}))
    code, report = run(capsys, "classify", f3_file, "--basepoints", str(override))
    assert code == 0
    rows = {r["owner"]: r["basepoint"] for r in report["preferred"]}
    assert rows["a"] == ["c"]
    assert rows["b"] == ["a"]


def test_input_echo_round_trips(capsys, f4_file):
    _, report = run(capsys, "classify", f4_file)
    echoed = SimpleGraph(report["input"]["vertices"], report["input"]["edges"])
    assert echoed == SimpleGraph("abcd", [])


def test_homology_example_files(capsys, tmp_path):
    lines = tmp_path / "three_lines.json"
    lines.write_text(
        json.dumps(
            {"ambient_dim": 2, "subspaces": [[["1", "0"]], [["0", "1"]], [["1", "1"]]]}
        )
    )
    code, report = run(capsys, "homology", str(lines))
    assert code == 0
    assert report["betti"] == [0, 1]
    planes = tmp_path / "four_planes.json"
    planes.write_text(
        json.dumps(
            {
                "ambient_dim": 3,
                "subspaces": [
                    [["0", "1", "0"], ["0", "0", "1"]],
                    [["1", "1", "0"], ["0", "0", "1"]],
                    [["1", "0", "0"], ["0", "1", "1"]],
                    [["1", "0", "0"], ["0", "1", "0"]],
                ],
            }
        )
    )
    code, report = run(capsys, "homology", str(planes))
    assert code == 0
    assert report["betti"] == [0, 0, 1]
    assert report["dims"] == [3, 8, 6]


def test_homology_raw_on_sixteen_copies_of_a_unit_line(capsys, tmp_path):
    # 65,535 summands: the closed form counts them without building the complex
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"ambient_dim": 3, "subspaces": [[[0, 0, 1]]] * 16}))
    code, report = run(capsys, "homology", "--raw", str(path))
    assert code == 0
    assert report["dims"] == [3] + [math.comb(16, k) for k in range(1, 17)]
    assert report["betti"] == [2] + [0] * 16


def test_homology_raw_on_sixteen_copies_of_a_line_off_the_axes(capsys, tmp_path):
    # one line, not a coordinate one: the block-line form counts 65,535
    # summands without meeting any of them
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"ambient_dim": 2, "subspaces": [[[1, 1]]] * 16}))
    code, report = run(capsys, "homology", "--raw", str(path))
    assert code == 0
    assert report["dims"] == [2] + [math.comb(16, k) for k in range(1, 17)]
    assert report["betti"] == [1] + [0] * 16


def cycle_file(tmp_path, n):
    path = tmp_path / f"cycle{n}.json"
    vertices = [f"v{i}" for i in range(n)]
    path.write_text(json.dumps({"vertices": vertices, "edges": [[vertices[i - 1], v] for i, v in enumerate(vertices)]}))
    return str(path)


@pytest.mark.parametrize("n, degree", [(9, 7), (10, 6)])
def test_cycles_past_the_cap_are_refused_on_the_flats(capsys, tmp_path, monkeypatch, n, degree):
    # the RAAG side's lines bound 1.9e7 and 2.7e9 summands, past the default
    # cap, so the flats count the refusal and no summand is listed
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    monkeypatch.setattr(lattice, "walk", lambda masks, cap: pytest.fail("walked the summands"))
    assert main(["euler-report", cycle_file(tmp_path, n)]) == 3
    assert capsys.readouterr().err == (
        f"error: the chain complex reaches 1000001 summands at degree {degree}, over the cap of 1000000; "
        "raise RAAGBNS_CAP to insist\n"
    )


def test_cycle12_at_a_raised_cap_is_decided_from_its_line_counts(capsys, tmp_path, monkeypatch):
    # 4.1e14 summands a side, within U = 4.2e14 and the cap of 10^15: m = r = n
    # lines, so every RAAG and PSA Betti number is 0, and nothing is counted
    monkeypatch.setenv("RAAGBNS_CAP", str(10 ** 15))
    for slow in ("walk", "flats"):
        monkeypatch.setattr(lattice, slow, lambda masks, cap, slow=slow: pytest.fail(f"called {slow}"))
    code, report = run(capsys, "euler-report", cycle_file(tmp_path, 12))
    assert code == 0
    assert report["raag"]["betti"] == report["psa"]["betti"] == [0] * 46
    assert report["pso"]["betti"] == [0]


# a plane, a unit line in it twice, the z-axis and a last line in the plane:
# the filter keeps the plane and the z-axis either way.  With the y-axis
# last the file is block-line and is filtered on its line masks; with
# (1, 1, 0) last the plane holds two rows of one block, so the file is
# filtered pair by pair and is block-line only once filtered
@pytest.mark.parametrize("last", [[0, 1, 0], [1, 1, 0]])
def test_homology_filters_a_plane_and_the_lines_inside_it(capsys, tmp_path, last):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"ambient_dim": 3, "subspaces": [
        [[1, 0, 0], [0, 1, 0]], [[1, 0, 0]], [[1, 0, 0]], [[0, 0, 1]], [last],
    ]}))
    code, report = run(capsys, "homology", str(path))
    assert code == 0
    assert (report["dims"], report["betti"]) == ([3, 3], [0, 0])


@pytest.mark.parametrize("raw", [[], ["--raw"]])
def test_homology_work_grows_with_the_rows_not_the_ambient_dimension(capsys, tmp_path, raw):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ambient_dim": 10 ** 12, "subspaces": [[], []]}))
    code, report = run(capsys, "homology", *raw, str(path))
    assert code == 0
    assert (report["dims"], report["betti"], report["euler"]) == ([10 ** 12], [10 ** 12], 10 ** 12)


def test_bns_pso_f4(capsys, f4_file):
    code, report = run(capsys, "bns", f4_file, "--group", "pso", "--witness")
    assert code == 0
    assert report["ambient_dim"] == 8
    assert len(report["subspaces"]) == 4
    assert report["betti"] == [0, 4]
    assert report["euler"] == -4
    assert report["witness"]["cocycle_support"] == [0]


def test_bns_witness_absent_on_forest_graph(capsys, f3_file):
    code, report = run(capsys, "bns", f3_file, "--group", "pso", "--witness")
    assert code == 0
    assert report["witness"] is None


def test_presentation_counts(capsys, f3_file):
    code, report = run(capsys, "presentation", f3_file, "--group", "psa")
    assert code == 0
    assert len(report["generators"]) == 6
    assert len(report["relators"]) == 9
    code, report = run(capsys, "presentation", f3_file, "--group", "pso")
    assert len(report["relators"]) == 12
    assert [["a[b]", 1], ["a[c]", 1]] in report["relators"]


def test_euler_report(capsys, f3_file):
    code, report = run(capsys, "euler-report", f3_file)
    assert code == 0
    assert report["psa"] == {"betti": [0, 3], "euler": -3}
    assert report["pso"] == {"betti": [0, 0], "euler": 0}


def test_word_reduce(capsys, f3_file):
    code, report = run(capsys, "word-reduce", f3_file, "b a a^-1 b^-1 c")
    assert code == 0
    assert report["reduced"] == "c"


def test_word_reduce_admission_cap(capsys, f3_file, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", "1000")
    code, report = run(capsys, "word-reduce", f3_file, "a^1000")
    assert code == 0
    assert report["reduced"] == " ".join(["a"] * 1000)
    assert main(["word-reduce", f3_file, "a^1001"]) == 3
    assert "1001 letters" in one_line_error(capsys)
    monkeypatch.delenv("RAAGBNS_CAP")
    assert main(["word-reduce", f3_file, "b a^1000000000000"]) == 3
    assert "1000000000001 letters" in one_line_error(capsys)


def test_support_graphs(capsys, f4_file):
    code, report = run(capsys, "support-graphs", f4_file)
    assert code == 0
    entry = report["support_graphs"]["a"]
    assert entry["forest"] is False
    assert entry["loop"] == [["b"], ["c"], ["d"]]


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("definitely not a graph")
    code = main(["classify", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


THREE_LINES = [[["1", "0"]], [["0", "1"]], [["1", "1"]]]


def test_homology_accepts_json_integers(capsys, tmp_path):
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps({"ambient_dim": 2, "subspaces": THREE_LINES}))
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps({"ambient_dim": 2, "subspaces": [[[1, 0]], [[0, 1]], [[1, 1]]]}))
    assert main(["homology", str(strings)]) == 0
    expected = capsys.readouterr().out
    assert main(["homology", str(ints)]) == 0
    assert capsys.readouterr().out == expected


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "arrangement",
    [
        {"ambient_dim": 2, "subspaces": 5},
        {"ambient_dim": 2, "subspaces": [5]},
        {"ambient_dim": 2, "subspaces": [["1", "0"]]},
        {"ambient_dim": 2, "subspaces": [[[True, 0]]]},
        {"ambient_dim": 2, "subspaces": [[[1.0, 0]]]},
        {"ambient_dim": 2, "subspaces": [[[None, "0"]]]},
        {"ambient_dim": True, "subspaces": [[["1"]]]},
    ],
    ids=["subspaces-int", "subspace-int", "row-string", "bool-entry", "float-entry", "null-entry", "bool-dim"],
)
def test_malformed_arrangement_exits_2(capsys, tmp_path, arrangement):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(arrangement))
    assert main(["homology", str(bad)]) == 2
    one_line_error(capsys)


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": ["a", "b"], "edges": [["a"]]},
        {"vertices": ["a", "b"], "edges": "ab"},
        {"vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
        {"vertices": 5, "edges": []},
    ],
    ids=["one-vertex-edge", "string-edges", "three-vertex-edge", "int-vertices"],
)
def test_malformed_graph_edges_exit_2(capsys, tmp_path, graph):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(graph))
    assert main(["classify", str(bad)]) == 2
    one_line_error(capsys)


def test_cap_exceeded_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", "10")
    big = tmp_path / "f5.json"
    big.write_text(json.dumps({"vertices": list("abcde"), "edges": []}))
    code = main(["bns", str(big), "--group", "pso"])
    assert code == 3


@pytest.mark.parametrize("raw", ["lots", "1.5", "-1"])
def test_malformed_cap_exits_2(capsys, f4_file, monkeypatch, raw):
    monkeypatch.setenv("RAAGBNS_CAP", raw)
    assert main(["classify", f4_file]) == 2
    assert "RAAGBNS_CAP" in one_line_error(capsys)


@pytest.mark.parametrize(
    "command",
    [["support-graphs"], ["homology"], ["bns", "--group", "raag"], ["presentation", "--group", "psa"],
     ["euler-report"], ["word-reduce", "a"], ["corpus"]],
    ids=lambda command: command[0],
)
def test_malformed_cap_fails_every_command_before_it_runs(capsys, f4_file, monkeypatch, command):
    # homology is given a graph file: the cap is checked before the file is read
    monkeypatch.setenv("RAAGBNS_CAP", "lots")
    target = str(pathlib.Path(f4_file).parent) if command == ["corpus"] else f4_file
    assert main([command[0], target, *command[1:]]) == 2
    assert "RAAGBNS_CAP" in one_line_error(capsys)


def test_unknown_basepoint_key_exits_2(capsys, f3_file, tmp_path):
    override = tmp_path / "bp.json"
    override.write_text(json.dumps({"q": [["b"]]}))
    assert main(["classify", f3_file, "--basepoints", str(override)]) == 2
    assert "'q'" in one_line_error(capsys)


@pytest.mark.parametrize("owner", ["a", "b"])
def test_a_stranger_basepoint_exits_2_under_a_vertex_with_or_without_components(capsys, tmp_path, owner):
    # b dominates the path a-b-c, so its star complement is empty; a named
    # node there used to be dropped with exit 0
    graph = tmp_path / "p3.json"
    graph.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}))
    override = tmp_path / "bp.json"
    override.write_text(json.dumps({owner: [["zz"]]}))
    assert main(["classify", str(graph), "--basepoints", str(override)]) == 2
    assert one_line_error(capsys) == f"error: ('zz',) is not a component left by removing the star of {owner!r}\n"


def test_byte_identical_reports(capsys, f4_file):
    main(["classify", f4_file])
    first = capsys.readouterr().out
    main(["classify", f4_file])
    second = capsys.readouterr().out
    assert first == second
    main(["classify", f4_file, "--pretty"])
    pretty = capsys.readouterr().out
    assert json.loads(pretty) == json.loads(first)


def test_corpus_runner(capsys, tmp_path):
    corpus = tmp_path / "graphs"
    corpus.mkdir()
    (corpus / "f3.json").write_text(
        json.dumps({"vertices": ["a", "b", "c"], "edges": []})
    )
    (corpus / "path3.txt").write_text("vertices: a x b\na x\nx b\n")
    (corpus / "f4.json").write_text(
        json.dumps({"vertices": ["a", "b", "c", "d"], "edges": []})
    )
    code, report = run(capsys, "corpus", str(corpus))
    assert code == 0
    assert report["ok"] is True
    assert [r["file"] for r in report["files"]] == ["f3.json", "f4.json", "path3.txt"]
    f4_row = next(r for r in report["files"] if r["file"] == "f4.json")
    assert f4_row["pso_is_raag"] is False
    assert f4_row["checks"]["witness_pairing_is_one"] is True


LATIN1_GRAPH = '{"vertices": ["a", "\xe9"], "edges": []}'.encode("latin-1")
LATIN1_ARRANGEMENT = '{"ambient_dim": 1, "subspaces": [[["1"]]], "note": "\xe9"}'.encode("latin-1")


@pytest.mark.parametrize(
    "command, content",
    [
        ("classify", LATIN1_GRAPH),
        ("euler-report", LATIN1_GRAPH),
        ("homology", LATIN1_ARRANGEMENT),
    ],
)
def test_non_utf8_file_exits_2(capsys, tmp_path, command, content):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(content)
    assert main([command, str(bad)]) == 2
    assert "not UTF-8" in one_line_error(capsys)


def test_non_utf8_basepoint_file_exits_2(capsys, f3_file, tmp_path):
    override = tmp_path / "bp.json"
    override.write_bytes('{"a": [["\xe9"]]}'.encode("latin-1"))
    assert main(["classify", f3_file, "--basepoints", str(override)]) == 2
    one_line_error(capsys)


def test_corpus_reports_non_utf8_file_as_a_row(capsys, tmp_path):
    corpus = tmp_path / "graphs"
    corpus.mkdir()
    (corpus / "f3.json").write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": []}))
    (corpus / "latin1.txt").write_bytes("a \xe9\n".encode("latin-1"))
    code, report = run(capsys, "corpus", str(corpus))
    assert code == 1
    rows = {r["file"]: r for r in report["files"]}
    assert rows["f3.json"]["ok"] is True
    assert rows["latin1.txt"]["ok"] is False
    assert "not UTF-8" in rows["latin1.txt"]["error"]


def test_corpus_reports_an_overlong_json_number_as_a_row(capsys, tmp_path):
    corpus = tmp_path / "graphs"
    corpus.mkdir()
    (corpus / "f3.json").write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": []}))
    (corpus / "huge.json").write_text('{"vertices": [' + "1" * 5000 + "]}")
    (corpus / "nested.json").write_text('{"vertices": ' + "[" * 100_000)
    code, report = run(capsys, "corpus", str(corpus))
    assert code == 1
    rows = {r["file"]: r for r in report["files"]}
    assert rows["f3.json"]["ok"] is True
    for name in ("huge.json", "nested.json"):
        assert rows[name]["ok"] is False
        assert rows[name]["error"].startswith("bad graph JSON")


def test_ambiguous_vertex_label_exits_2(capsys, tmp_path):
    # x's components {a, b} and {"a,b"} would both print as x[a,b]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": ["x", "a", "b", "a,b"], "edges": [["a", "b"]]}))
    assert main(["presentation", str(graph), "--group", "psa"]) == 2
    assert "'a,b'" in one_line_error(capsys)
    text = tmp_path / "g.txt"
    text.write_text("vertices: x\na|b c\n")
    assert main(["classify", str(text)]) == 2
    assert "'a|b'" in one_line_error(capsys)


@pytest.mark.parametrize(
    "graph, shown",
    [
        ({"vertices": [True, 1.5], "edges": []}, "true"),
        ({"vertices": ["a", 1.5], "edges": []}, "1.5"),
        ({"vertices": [1, "1"], "edges": []}, "1"),
        ({"vertices": ["1", "2"], "edges": [[1, "2"]]}, "1"),
        ({"vertices": ["a", "b"], "edges": [["a", None]]}, "null"),
        ({"vertices": [["a"], "b"]}, '["a"]'),
    ],
)
def test_non_string_json_label_exits_2(capsys, tmp_path, graph, shown):
    # before, labels were stringified: true became vertex "True", [1, "1"]
    # read as a duplicate and the endpoint 1 matched vertex "1"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    assert main(["classify", str(path)]) == 2
    err = one_line_error(capsys)
    assert err == f"error: graph JSON vertex labels and edge endpoints must be strings, not {shown}\n"


BAD_LABEL = "is empty or holds whitespace or one of , [ ] | { } ; ^"


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("g.json", {"vertices": ["a", "b", "a"], "edges": []}, "duplicate vertex labels"),
        ("g.json", {"vertices": ["a", "b"], "edges": [["b", "b"]]}, "self-loop at 'b'"),
        ("g.json", {"vertices": ["a", "b"], "edges": [["a", "c"]]}, "edge 'a'-'c' uses an undeclared vertex"),
        ("g.json", {"vertices": ["a", "b c"], "edges": []}, f"vertex label 'b c' {BAD_LABEL}"),
        ("g.json", {"vertices": ["a", ""], "edges": []}, f"vertex label '' {BAD_LABEL}"),
        ("g.json", {"vertices": ["a", 7]}, "graph JSON vertex labels and edge endpoints must be strings, not 7"),
        ("g.json", {"vertices": ["a"], "edges": [["a", False]]},
         "graph JSON vertex labels and edge endpoints must be strings, not false"),
        # the checks run in this order: non-string labels, bad labels,
        # duplicates, then each edge's self-loop or undeclared endpoint in turn
        ("g.json", {"vertices": ["a b", "a b"], "edges": [["x", 1]]},
         "graph JSON vertex labels and edge endpoints must be strings, not 1"),
        ("g.json", {"vertices": ["x", "x", "a;b"], "edges": [["x", "x"]]}, f"vertex label 'a;b' {BAD_LABEL}"),
        ("g.json", {"vertices": ["x", "x"], "edges": [["x", "x"]]}, "duplicate vertex labels"),
        ("g.json", {"vertices": ["a", "b"], "edges": [["a", "c"], ["b", "b"]]}, "edge 'a'-'c' uses an undeclared vertex"),
        ("g.json", {"vertices": ["a", "b"], "edges": [["b", "b"], ["a", "c"]]}, "self-loop at 'b'"),
        ("g.txt", "vertices: a\nb b\n", "self-loop at 'b'"),
        ("g.txt", "a b|c\nd d\n", f"vertex label 'b|c' {BAD_LABEL}"),
        ("g.txt", "a b c\n", "bad edge line 'a b c'"),
    ],
)
def test_graph_intake_messages_are_exact(capsys, tmp_path, name, content, message):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main(["classify", str(path)]) == 2
    assert one_line_error(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("head", ["", " ", "\n\t ", "\u2003\x1c"])
def test_a_graph_file_is_json_when_its_first_character_past_whitespace_is_a_brace(capsys, tmp_path, head):
    path = tmp_path / "g"
    path.write_text(head + '{"vertices": ["a"]')
    assert main(["classify", str(path)]) == 2
    assert one_line_error(capsys).startswith("error: bad graph JSON: ")
    path.write_text(head + "a b\n")
    assert main(["classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == {"vertices": ["a", "b"], "edges": [["a", "b"]]}


def test_classify_and_its_input_echo_build_no_view_of_the_input_graph(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(10 ** 8))  # some loop witnesses search past the default
    read, defining = [], []
    monkeypatch.setattr(cli, "graph_from_file", lambda path: read.append(graphs.graph_from_file(path)) or read[-1])
    # nor do the relator checks on the defining graph
    checked = cli.verify_relators_killed
    monkeypatch.setattr(cli, "verify_relators_killed", lambda g, th, d: defining.append(th.graph) or checked(g, th, d))
    kinds = set()
    for i, g in enumerate(oracles.atlas_up_to_six()):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps({"vertices": list(reversed(g.vertices)), "edges": [list(e) for e in g.edges]}))
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        kinds.add((report["verdict"], bool(report.get("defining_graph", {}).get("vertices"))))
        assert "neighbors" not in vars(read[-1]) and "edges" not in vars(read[-1])
    # loops, empty defining graphs and non-empty ones were all classified
    assert kinds == {("not_raag", False), ("raag", False), ("raag", True)}
    assert defining and all("neighbors" not in vars(d) and "edges" not in vars(d) for d in defining)


def test_word_reduce_builds_no_view_of_the_graph(capsys, tmp_path, monkeypatch):
    # every atlas graph up to six vertices, through the free shortcut, the
    # commuting one and the columns: only the masks are read
    read = []
    monkeypatch.setattr(cli, "graph_from_file", lambda path: read.append(graphs.graph_from_file(path)) or read[-1])
    for i, g in enumerate(oracles.atlas_up_to_six()):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(g.to_json()))
        word = " ".join(f"{v} {v}^-1 {v}^2" for v in reversed(g.vertices)) or "1"
        assert main(["word-reduce", str(path), word]) == (0 if g.vertices else 2)
        capsys.readouterr()
        assert "neighbors" not in vars(read[-1]) and "edges" not in vars(read[-1])
    assert len(read) == 208


def test_homology_chain_complex_admission_cap(capsys, tmp_path, monkeypatch):
    # four copies of one line: every nonempty index subset is a summand,
    # 4 + 6 + 4 + 1 = 15 in all, the last one in degree 4
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"ambient_dim": 2, "subspaces": [[["1", "-1/2"]]] * 4}))
    monkeypatch.setenv("RAAGBNS_CAP", "14")
    assert main(["homology", str(path), "--raw"]) == 3
    err = one_line_error(capsys)
    assert "15 summands at degree 4, over the cap of 14" in err
    monkeypatch.setenv("RAAGBNS_CAP", "15")
    code, report = run(capsys, "homology", str(path), "--raw")
    assert code == 0
    assert report["dims"] == [2, 4, 6, 4, 1]


def test_stray_exception_exits_4_with_one_line(capsys, f3_file, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "classify_pso", broken)
    assert main(["classify", f3_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: something broke\n"


def test_keyboard_interrupt_exits_130(capsys, f3_file, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "classify_pso", interrupted)
    assert main(["classify", f3_file]) == 130
    assert capsys.readouterr().out == ""


def test_closed_stdout_exits_141_silently(f3_file):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "raagbns.cli", "classify", f3_file],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


# Every usage error: exit 2, nothing on stdout and one stderr line.  A usage
# error of the command line is given as that whole line; an error about a file
# names the file and the trouble.  "@" stands for the test's directory.
USAGE_ERRORS = [
    ([], "raagbns: missing command, one of bns, classify, corpus, euler-report, homology, presentation, support-graphs, word-reduce"),
    (["bogus", "@f3.json"], "raagbns: no such command 'bogus'"),
    (["--bogus", "classify"], "raagbns: no such option '--bogus'"),
    (["classify", "--bogus", "@f3.json"], "raagbns classify: unrecognized arguments: --bogus"),
    (["classify"], "raagbns classify: the following arguments are required: GRAPH_FILE"),
    (["word-reduce", "@f3.json"], "raagbns word-reduce: the following arguments are required: WORD"),
    (["bns", "@f3.json"], "raagbns bns: the following arguments are required: --group"),
    (["bns", "@f3.json", "--group"], "raagbns bns: argument --group: expected one argument"),
    (["classify", "@f3.json", "--basepoints"], "raagbns classify: argument --basepoints: expected one argument"),
    (["bns", "@f3.json", "--group", "psx"], "raagbns bns: argument --group: invalid choice: 'psx' (choose from 'raag', 'psa', 'pso')"),
    (["presentation", "@f3.json", "--group=raag"], "raagbns presentation: argument --group: invalid choice: 'raag' (choose from 'psa', 'pso')"),
    (["classify", "@f3.json", "extra"], "raagbns classify: unrecognized arguments: extra"),
    (["word-reduce", "@f3.json", "a", "b"], "raagbns word-reduce: unrecognized arguments: b"),
    (["word-reduce", "@f3.json", "-a"], "raagbns word-reduce: unrecognized arguments: -a"),
    (["classify", "--pretty=yes", "@f3.json"], "raagbns classify: argument --pretty: ignored explicit argument 'yes'"),
    (["classify", "@missing.json"], ["graph file", "missing.json"]),
    (["homology", "@missing.json"], ["arrangement file", "missing.json"]),
    (["classify", "@f3.json", "--basepoints", "@missing.json"], ["basepoint file", "missing.json"]),
    (["corpus", "@missing"], ["corpus directory", "missing"]),
    (["euler-report", "@dir"], ["graph file", "dir"]),
    (["homology", "@dir"], ["arrangement file", "dir"]),
    (["classify", "@f3.json", "--basepoints=@dir"], ["basepoint file", "dir"]),
    (["corpus", "@f3.json"], ["corpus directory", "f3.json"]),
    # a string or an object where a list of vertices belongs
    (["classify", "@abe.json", "--basepoints", "@char.json"], ["basepoint nodes must be lists of vertices"]),
    (["classify", "@abe.json", "--basepoints", "@string.json"], ["basepoint nodes must be lists of vertices"]),
    (["classify", "@abe.json", "--basepoints", "@object.json"], ["basepoint nodes must be lists of vertices"]),
    # a JSON number past the interpreter's 4,300-digit limit, and an
    # exponent that Fraction would multiply out to a billion digits
    (["classify", "@huge.json"], ["bad graph JSON", "4300"]),
    (["homology", "@huge.json"], ["bad arrangement JSON", "4300"]),
    (["classify", "@abe.json", "--basepoints", "@huge.json"], ["unreadable basepoint file", "4300"]),
    (["homology", "@exponent.json"], ["bad rational literal '1e999999999'", "4300 digits"]),
    # JSON nested past the interpreter's recursion limit
    (["classify", "@nested-graph.json"], ["bad graph JSON", "recursion"]),
    (["homology", "@nested.json"], ["bad arrangement JSON", "recursion"]),
    (["classify", "@abe.json", "--basepoints", "@nested.json"], ["unreadable basepoint file", "recursion"]),
    # the first "--" is dropped, once: the second is the word, so "a" is extra
    (["word-reduce", "@f3.json", "--", "--", "a"], "raagbns word-reduce: unrecognized arguments: a"),
    # a later lone "--" is read as the word "--", where argparse gives []
    (["word-reduce", "@f3.json", "--", "--"], "unknown vertex '--' in word"),
    (["word-reduce", "--", "@f3.json", "--"], "unknown vertex '--' in word"),
    # a lone "-", a negative number and an argument holding a space are positionals
    (["word-reduce", "@f3.json", "-", "x"], "raagbns word-reduce: unrecognized arguments: x"),
    (["classify", "-"], ["unreadable graph file", "'-'"]),
    (["classify", "-1"], ["unreadable graph file", "'-1'"]),
    (["classify", "-a b"], ["unreadable graph file", "'-a b'"]),
    # an empty choice, and an explicit value given to a flag
    (["bns", "@f3.json", "--group="], "raagbns bns: argument --group: invalid choice: '' (choose from 'raag', 'psa', 'pso')"),
    (["classify", "@f3.json", "--pretty="], "raagbns classify: argument --pretty: ignored explicit argument ''"),
    # the last of repeated options wins, and is checked
    (["bns", "@f3.json", "--group", "pso", "--group=psx"], "raagbns bns: argument --group: invalid choice: 'psx' (choose from 'raag', 'psa', 'pso')"),
    # a value that looks like a flag is named as an unknown flag
    (["classify", "@f3.json", "--basepoints", "-x"], "raagbns classify: unrecognized arguments: -x"),
    (["bns", "@f3.json", "--group", "-1"], "raagbns bns: unrecognized arguments: -1"),
    # missing arguments are named in the order of --help, positionals first
    (["bns"], "raagbns bns: the following arguments are required: GRAPH_FILE, --group"),
    # unknown flags are named alone, ahead of every other error
    (["bns", "--bogus", "-q"], "raagbns bns: unrecognized arguments: --bogus -q"),
    (["bns", "@f3.json", "--group", "psx", "extra", "--bogus"], "raagbns bns: unrecognized arguments: --bogus"),
    # an option that takes a value stops at "--"; a "--" that no argument can
    # take is extra
    (["classify", "@f3.json", "--basepoints", "--"], "raagbns classify: argument --basepoints: expected one argument"),
    (["classify", "@f3.json", "--pretty", "--"], "raagbns classify: unrecognized arguments: --"),
    (["classify", "@f3.json", "x", "--", "y"], "raagbns classify: unrecognized arguments: x -- y"),
]


@pytest.mark.parametrize(
    "argv, named", USAGE_ERRORS, ids=[f"argv{i}-named{i}" for i in range(len(USAGE_ERRORS))]
)
def test_usage_error_exits_2_with_one_line(capsys, tmp_path, argv, named):
    (tmp_path / "f3.json").write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": []}))
    (tmp_path / "abe.json").write_text(json.dumps({"vertices": ["a", "b", "e"], "edges": []}))
    for name, nodes in (("char", ["e"]), ("string", ["cd"]), ("object", {"e": 0})):
        (tmp_path / f"{name}.json").write_text(json.dumps({"a": nodes}))
    (tmp_path / "dir").mkdir()
    (tmp_path / "huge.json").write_text('{"vertices": [' + "1" * 5000 + "]}")
    (tmp_path / "exponent.json").write_text(json.dumps({"ambient_dim": 1, "subspaces": [[["1e999999999"]]]}))
    (tmp_path / "nested.json").write_text("[" * 100_000)
    (tmp_path / "nested-graph.json").write_text('{"vertices": ' + "[" * 100_000)
    assert main([arg.replace("@", f"{tmp_path}/") for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if isinstance(named, str):
        assert err == f"error: {named}\n"
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(fragment in err for fragment in named), err


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["presentation", "--group=psa", "@"], ["presentation", "@", "--group", "psa"]),
        (["bns", "--group", "raag", "--group", "pso", "@", "--witness"], ["bns", "@", "--group", "pso", "--witness"]),
        (["classify", "--pretty", "@"], ["classify", "@", "--pretty"]),
        (["classify", "--pretty", "@", "--pretty"], ["classify", "@", "--pretty"]),
        (["word-reduce", "@", "--", "b a^-1 c"], ["word-reduce", "@", "b a^-1 c"]),
        (["word-reduce", "--pretty", "@", "b"], ["word-reduce", "@", "b", "--pretty"]),
    ],
)
def test_option_forms_and_places(capsys, f3_file, argv, same_as):
    outputs = []
    for args in (argv, same_as):
        assert main([f3_file if arg == "@" else arg for arg in args]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["--help", "bogus"], ["--help"]),
        (["classify", "@", "--help"], ["classify", "--help"]),
        (["word-reduce", "--pretty", "--help", "@"], ["word-reduce", "--help"]),
        (["bns", "@", "--group", "nonsense", "--help"], ["bns", "--help"]),
        (["homology", "@missing.json", "--help"], ["homology", "--help"]),
    ],
)
def test_help_anywhere_prints_to_stdout_and_exits_0(capsys, f3_file, argv, same_as):
    outputs = []
    for args in (argv, same_as):
        assert main([f3_file if arg == "@" else arg for arg in args]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""
    assert outputs[0].out.startswith("Usage: raagbns ")


# Tokens for argv over every command: every command's option strings, so some
# are unknown to the command drawn, their --x= and --x=v forms, the choices and
# near misses, "--", "-", negative numbers, arguments holding a space, unknown
# flags, --help and plain words.
FLAGS = sorted({option.flag for command in cli.COMMANDS.values() for option in command.options})
VALUES = ["", "raag", "psa", "pso", "psx", "PSA", "yes", "g", "-x", "-1", "a=b", "a b"]
TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(["--", "-", "-1", "-.5", "-1.", "-2\n", "-a b", "--bogus", "-x", "--pre", "--help", "--help=x"]),
    st.sampled_from(VALUES),
    st.builds("{}={}".format, st.sampled_from([*FLAGS, "--bogus"]), st.sampled_from(VALUES)),
)


class Parsed(BaseException):
    """Carries the keyword values a command's arguments parse to out of
    main, which catches only Exception, ahead of any file read."""


def front_end(argv, parse):
    """Exit code, stdout and stderr of `main(argv)` with `parse` reading the
    command's arguments, and the keyword values it returned; main stops as
    soon as they parse, so no file is read and the code is None."""

    def parsed(name, args):
        raise Parsed(parse(name, args))

    out, err = io.StringIO(), io.StringIO()
    code, values = None, None
    with mock.patch.object(cli, "_parse", parsed), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Parsed as stop:
            values = stop.args[0]
    return code, out.getvalue(), err.getvalue(), values


def argv_pieces(command):
    """Lists of argv pieces for `command`: plain words, its options each
    with a value it takes, given apart or after "=", and any of TOKENS."""
    pieces = [st.sampled_from(["g", "w"]).map(lambda word: [word]), TOKENS.map(lambda token: [token])]
    for option in command.options:
        if option.metavar or option.choices:
            value = st.sampled_from(option.choices or VALUES)
            pieces.append(value.map(lambda v, flag=option.flag: [flag, v]))
            pieces.append(value.map(lambda v, flag=option.flag: [f"{flag}={v}"]))
        else:
            pieces.append(st.just([option.flag]))
    return st.lists(st.one_of(pieces), max_size=6).map(lambda parts: sum(parts, []))


@settings(max_examples=1500, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(cli.COMMANDS)))
def test_argv_is_read_as_argparse_reads_it(data, name):
    # one divergence is intended: a later lone "--", which argparse reads
    # as an empty list, is the string "--"
    def argparse_values(name, args):
        return {key: "--" if value == [] else value for key, value in oracles.argparse_values(name, args).items()}

    argv = [name, *data.draw(argv_pieces(cli.COMMANDS[name]))]
    assert front_end(argv, cli._parse) == front_end(argv, argparse_values)


# Each command's body with every option it takes: its keyword values, given
# on the command line as flags, option values or the WORD positional
BODY_CALLS = [
    ("support-graphs", {}),
    ("classify", {"basepoints": None}),
    ("classify", {"basepoints": "base.json"}),
    ("homology", {"raw": False}),
    ("homology", {"raw": True}),
    *[("bns", {"group": group, "witness": witness}) for group in ("raag", "psa", "pso") for witness in (False, True)],
    ("presentation", {"group": "psa"}),
    ("presentation", {"group": "pso"}),
    ("euler-report", {}),
    ("word-reduce", {"word": "a b a^-1 c"}),
    ("corpus", {}),
]


@pytest.mark.parametrize(
    "graph, basepoints",
    [
        ({"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}, {"a": [["c", "d"]]}),
        ({"vertices": ["a", "b", "c", "d"], "edges": []}, {"a": [["c"]]}),
    ],
    ids=["path4", "f4"],
)
def test_each_body_returns_the_report_main_prints(capsys, tmp_path, monkeypatch, graph, basepoints):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "graph.json").write_text(json.dumps(graph))
    g = cli.graph_from_file("corpus/graph.json")
    (tmp_path / "arrangement.json").write_text(json.dumps(bns.pso_arrangement(g)[1].to_json()))
    (tmp_path / "base.json").write_text(json.dumps(basepoints))
    inputs = {
        "GRAPH_FILE": ("corpus/graph.json", g),
        "ARRANGEMENT_FILE": ("arrangement.json", cli.arrangement_from_file("arrangement.json")),
        "DIRECTORY": ("corpus", "corpus"),
    }
    for name, options in BODY_CALLS:
        path, data = inputs[cli.COMMANDS[name].arguments[0]]
        argv = [name, path]
        for key, value in options.items():
            if key == "word":
                argv.append(value)
            elif value is True:
                argv.append(f"--{key}")
            elif value:
                argv += [f"--{key}", value]
        report = cli.COMMANDS[name].body(data, **options)
        for pretty in ([], ["--pretty"]):
            code, printed = run(capsys, *argv, *pretty)
            assert code == 0, argv
            printed.pop("tool")
            printed.pop("input", None)
            assert report == printed, argv


def test_runs_without_click():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = "import sys; sys.modules['click'] = None; import raagbns.cli; raise SystemExit(raagbns.cli.main(['--help']))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Usage: raagbns [OPTIONS] COMMAND [ARGS]...\n")


def test_corpus_enumerates_delta_psets_once_per_graph(capsys, tmp_path, monkeypatch):
    calls = []
    body = bns._maximal_sets

    def counted(options, delta):
        calls.append(delta)
        return body(options, delta)

    monkeypatch.setattr(bns, "_maximal_sets", counted)
    corpus = tmp_path / "graphs"
    corpus.mkdir()
    (corpus / "f5.json").write_text(json.dumps({"vertices": list("abcde"), "edges": []}))
    code, report = run(capsys, "corpus", str(corpus))
    assert code == 0 and report["ok"]
    assert report["files"][0]["checks"]["witness_pairing_is_one"] is True
    assert [delta for delta in calls if delta] == [True]


# A fuzz of the input boundary: graph JSON, graph text and arrangement
# JSON, valid or not, go through main() for every command that reads
# them.  Inputs stay small: at most 6 vertices, ambient dimension at most
# 4 and at most 6 subspaces.

LABELS = list("abcdef")
JUNK_TEXT = ["", "a b", "x,y", "[", "^", "{", "1"]
JUNK = JUNK_TEXT + [1, 0.5, True, None, ["a"]]
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(LABELS + JUNK_TEXT)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(["vertices", "edges", "ambient_dim", "subspaces"]), kids, max_size=3),
    ),
    max_leaves=10,
)


@st.composite
def file_bytes(draw, documents):
    """A serialized document, sometimes cut short, or stray bytes."""
    mode = draw(st.integers(0, 5))
    if mode == 5:
        return draw(st.binary(max_size=30))
    text = json.dumps(draw(documents))
    return (text[: draw(st.integers(0, len(text)))] if mode == 4 else text).encode()


@st.composite
def graph_documents(draw):
    n = draw(st.integers(0, 6))
    vertices = LABELS[:n]
    pairs = [[u, w] for i, u in enumerate(vertices) for w in vertices[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    if draw(st.booleans()):
        return {"vertices": vertices, "edges": edges}
    label = st.sampled_from(LABELS + JUNK)
    return draw(st.one_of(
        st.fixed_dictionaries({"vertices": st.lists(label, max_size=6), "edges": st.lists(st.lists(label, max_size=3), max_size=4)}),
        st.fixed_dictionaries({"vertices": st.just(vertices), "edges": st.lists(st.lists(label, max_size=3), max_size=4)}),
        JSON_VALUES,
    ))


GRAPH_TEXTS = st.lists(
    st.one_of(
        st.lists(st.sampled_from(LABELS[:5] + ["é", "a,b", "x^", "{", "#"]), max_size=3).map(" ".join),
        st.lists(st.sampled_from(LABELS[:5] + ["é", "a;b"]), max_size=4).map(lambda vs: "vertices: " + " ".join(vs)),
    ),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode())


@st.composite
def arrangement_documents(draw):
    n = draw(st.integers(0, 4))
    good = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-1", "0", "3/4"]))
    entry = good if draw(st.integers(0, 2)) else st.one_of(good, st.sampled_from(["1/0", "x", "", "1e5000", "1e-5000", True, 1.5, None, [1]]))
    width = st.just(n) if draw(st.integers(0, 3)) else st.integers(0, 5)
    row = width.flatmap(lambda k: st.lists(entry, min_size=k, max_size=k))
    document = {"ambient_dim": n, "subspaces": draw(st.lists(st.lists(row, max_size=3), max_size=6))}
    return document if draw(st.integers(0, 3)) else draw(JSON_VALUES)


WORDS = st.lists(st.sampled_from(["a", "b", "a^-1", "c^2", "b^0", "z", "a^x", "^", "a^99999999999"]), max_size=5).map(" ".join)
GRAPH_COMMANDS = st.one_of(
    st.sampled_from([
        ["classify"], ["support-graphs"], ["euler-report"],
        ["bns", "--group", "raag"], ["bns", "--group", "psa"], ["bns", "--group", "pso", "--witness"],
        ["presentation", "--group", "psa"], ["presentation", "--group", "pso"],
    ]),
    WORDS.map(lambda word: ["word-reduce", word]),
)
ARRANGEMENT_COMMANDS = st.sampled_from([["homology"], ["homology", "--raw"]])
FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_clean_and_stable(capsys, path, content, command):
    """Run the command on a file holding `content` twice: exit 0, 2 or 3,
    no traceback, one stderr line on failure, the same bytes both times."""
    path.write_bytes(content)
    argv = [command[0], str(path), *command[1:]]
    runs = []
    for _ in range(2):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        else:
            json.loads(out)
        runs.append((code, out, err))
    assert runs[0] == runs[1]


@given(file_bytes(graph_documents()), GRAPH_COMMANDS)
@FUZZ
def test_fuzz_graph_json(capsys, tmp_path, monkeypatch, content, command):
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    assert_clean_and_stable(capsys, tmp_path / "g.json", content, command)


@given(GRAPH_TEXTS, GRAPH_COMMANDS)
@FUZZ
def test_fuzz_graph_text(capsys, tmp_path, monkeypatch, content, command):
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    assert_clean_and_stable(capsys, tmp_path / "g.txt", content, command)


@given(file_bytes(arrangement_documents()), ARRANGEMENT_COMMANDS)
@FUZZ
def test_fuzz_arrangement_json(capsys, tmp_path, monkeypatch, content, command):
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    assert_clean_and_stable(capsys, tmp_path / "a.json", content, command)


def star7_file(tmp_path, centre, leaves):
    path = tmp_path / f"star7-{centre}.json"
    path.write_text(json.dumps({"vertices": [centre, *leaves], "edges": [[v, centre] for v in leaves]}))
    return str(path)


def test_star7_is_refused_alike_centre_first_and_centre_last(capsys, tmp_path, monkeypatch):
    # the admission takes the option counts largest first, so the centre's
    # single option comes last whatever its label
    monkeypatch.setenv("RAAGBNS_CAP", "300000000")
    errors = []
    for centre, leaves in (("a", "bcdefgh"), ("x", "abcdefg")):
        assert main(["classify", star7_file(tmp_path, centre, leaves)]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: delta-p-set enumeration would visit 554766609 choice-tree nodes, "
        "over the cap of 300000000; raise RAAGBNS_CAP to insist\n"
    )


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_refusals_do_not_depend_on_the_labels(capsys, tmp_path, monkeypatch, data):
    # a graph on up to 7 vertices under two labellings, at caps one below
    # and at each family's admitted count: the same exit codes and messages
    vs = "abcdefg"[:data.draw(st.integers(1, 7))]
    pairs = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    relabel = dict(zip(vs, data.draw(st.permutations(vs))))
    g = SimpleGraph(vs, edges)
    counts = [bns._choice_tree_size(sorted(bns._option_counts(g, size), reverse=True)) for size in (1, 2)]
    caps = sorted({count + shift for count in counts for shift in (-1, 0)})
    outcomes = []
    for labels in ({v: v for v in vs}, relabel):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": [labels[v] for v in vs], "edges": [[labels[u], labels[w]] for u, w in edges]}))
        outcomes.append([])
        for cap in caps:
            monkeypatch.setenv("RAAGBNS_CAP", str(cap))
            code = main(["bns", "--group", "psa", str(path)])
            outcomes[-1].append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][caps.index(counts[0] - 1)] == (
        3,
        f"error: p-set enumeration would visit {counts[0]} choice-tree nodes, over the cap of {counts[0] - 1}; "
        "raise RAAGBNS_CAP to insist\n",
    )
