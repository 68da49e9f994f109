"""Golden CLI outputs over the acceptance corpus.

`golden_digests.json` holds, for every corpus graph but the seven-leaf
star and for each reporting command, the exit code and the sha256 of
stdout.  Any refactor of the verdict path must leave these bytes alone.
`golden_cli.json` pins the rest of the command line the same way:
`homology` with and without `--raw`, `word-reduce`, `corpus` on a
passing and a failing directory, `--pretty` on every reporting command,
options given in other places and forms, and the nine `--help` texts,
which it keeps verbatim.  After a deliberate change of output, rewrite
both files with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")
GOLDEN_CLI = pathlib.Path(__file__).with_name("golden_cli.json")
COMMANDS = (
    ("classify",),
    ("support-graphs",),
    ("presentation", "--group", "psa"),
    ("presentation", "--group", "pso"),
    ("bns", "--group", "raag"),
    ("bns", "--group", "psa"),
    ("bns", "--group", "pso", "--witness"),
    ("euler-report",),
)


def graph_key(g):
    return "".join(sorted(g.vertices)) + ":" + " ".join(u + w for u, w in sorted(g.edges))


def run_main(argv):
    """(exit code, stdout) of one in-process CLI call."""
    from raagbns.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def digest(code, out):
    return f"{code} {hashlib.sha256(out.encode()).hexdigest()}"


def digests(directory):
    """{graph key: {command line: "exit code, space, stdout sha256"}}."""
    from test_acceptance import STAR7, corpus

    path = pathlib.Path(directory) / "graph.json"
    out = {}
    for g in corpus():
        if g == STAR7:
            continue
        path.write_text(json.dumps(g.to_json()), encoding="utf-8")
        row = {}
        for command in COMMANDS:
            row[" ".join(command)] = digest(*run_main([command[0], str(path), *command[1:]]))
        out[graph_key(g)] = row
    return out


ARRANGEMENTS = {
    "three_lines.json": {"ambient_dim": 2, "subspaces": [[["1", "0"]], [["0", "1"]], [["1", "1"]]]},
    "four_planes.json": {
        "ambient_dim": 3,
        "subspaces": [
            [["0", "1", "0"], ["0", "0", "1"]],
            [["1", "1", "0"], ["0", "0", "1"]],
            [["1", "0", "0"], ["0", "1", "1"]],
            [["1", "0", "0"], ["0", "1", "0"]],
        ],
    },
    "one_line_four_times.json": {"ambient_dim": 2, "subspaces": [[["1", "-1/2"]]] * 4},
    "nested.json": {
        "ambient_dim": 3,
        "subspaces": [
            [["1", "0", "0"], ["0", "1", "0"]],
            [["1", "1", "0"]],
            [["0", "0", "1"]],
            [["1/2", "2/3", "1"]],
            [["3", "-1", "0"], ["0", "0", "5/7"]],
        ],
    },
}
WORDS = ("{0} {1} {0}^-1 {1}^-1", "{1}^2 {0} {2}^3 {1}^-2 {0}^-1 {2}", "")
HELP_COMMANDS = ("bns", "classify", "corpus", "euler-report", "homology", "presentation", "support-graphs", "word-reduce")


def cli_files(directory):
    """Write the inputs of cli_outputs under `directory` and return its
    cases, each an argv in which "@" stands for `directory` and a slash."""
    from test_acceptance import K33, STAR5, TWO_TRIANGLES, cycle, edgeless, path

    root = pathlib.Path(directory)
    graphs = {"f3.json": edgeless(3), "f4.json": edgeless(4), "p4.json": path(4), "p7.json": path(7),
              "c6.json": cycle(6), "k33.json": K33, "star5.json": STAR5, "two_triangles.json": TWO_TRIANGLES}
    for name, g in graphs.items():
        (root / name).write_text(json.dumps(g.to_json()), encoding="utf-8")
    for name, arrangement in ARRANGEMENTS.items():
        (root / name).write_text(json.dumps(arrangement), encoding="utf-8")
    (root / "base.json").write_text(json.dumps({"a": [["c"]]}), encoding="utf-8")
    for sub in ("passing", "failing"):
        (root / sub).mkdir()
        (root / sub / "f3.json").write_text(json.dumps(edgeless(3).to_json()), encoding="utf-8")
        (root / sub / "f4.json").write_text(json.dumps(edgeless(4).to_json()), encoding="utf-8")
    (root / "passing" / "path3.txt").write_text("vertices: a x b\na x\nx b\n", encoding="utf-8")
    # the row's error names no path, so the digest does not depend on `directory`
    (root / "failing" / "broken.json").write_text('{"vertices": ["a"', encoding="utf-8")

    cases = []
    for name in ARRANGEMENTS:
        cases += [["homology", "@" + name], ["homology", "@" + name, "--raw"]]
    for name in ("p7.json", "c6.json", "k33.json", "star5.json", "two_triangles.json"):
        v = sorted(graphs[name].vertices)
        cases += [["word-reduce", "@" + name, word.format(*v)] for word in WORDS]
    cases += [["corpus", "@passing"], ["corpus", "@failing"], ["corpus", "@passing", "--pretty"]]
    for name in ("f4.json", "p4.json"):
        for command in COMMANDS:
            cases.append([command[0], "@" + name, *command[1:], "--pretty"])
        cases.append(["word-reduce", "@" + name, "b a c^-1", "--pretty"])
    cases += [
        ["homology", "--pretty", "@nested.json", "--raw"],
        ["classify", "--pretty", "@f3.json"],
        ["classify", "@f3.json", "--basepoints", "@base.json"],
        ["classify", "--basepoints=@base.json", "@f3.json", "--pretty"],
        ["bns", "--group=psa", "@p4.json"],
        ["bns", "--witness", "--group", "pso", "@f4.json", "--witness"],
        ["presentation", "@p4.json", "--group", "psa", "--group", "pso"],
        ["word-reduce", "@p7.json", "--pretty", "a b^-1 a^-1"],
        ["word-reduce", "@p7.json", "--", "c d^2 c^-1"],
    ]
    return cases


def cli_outputs(directory):
    """{"digests": {case: "exit code, space, stdout sha256"},
    "help": {command line: the --help text}}."""
    cases = cli_files(directory)
    out = {"digests": {}, "help": {}}
    for case in cases:
        argv = [arg.replace("@", f"{directory}/") for arg in case]
        out["digests"][" ".join(case)] = digest(*run_main(argv))
    for argv in [["--help"]] + [[name, "--help"] for name in HELP_COMMANDS]:
        code, text = run_main(argv)
        assert code == 0, argv
        out["help"][" ".join(["raagbns", *argv])] = text
    return out


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert set(got) == set(expected)
    changed = [
        (key, command)
        for key, row in expected.items()
        for command, value in row.items()
        if got[key].get(command) != value
    ]
    assert not changed, changed[:10]


def test_cli_options_pretty_and_help_match_golden(tmp_path):
    expected = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
    got = cli_outputs(tmp_path)
    assert got["help"] == expected["help"]
    assert got["digests"] == expected["digests"]


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(GOLDEN.parent))
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(tmp)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} digests for {len(table)} graphs to {GOLDEN.name}")
    with tempfile.TemporaryDirectory() as tmp:
        table = cli_outputs(tmp)
    GOLDEN_CLI.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table['digests'])} digests and {len(table['help'])} help texts to {GOLDEN_CLI.name}")
