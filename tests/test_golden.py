"""Golden CLI outputs over the acceptance corpus.

`golden_digests.json` holds, for every corpus graph but the seven-leaf
star and for each reporting command, the exit code and the sha256 of
stdout.  Any refactor of the verdict path must leave these bytes alone.
After a deliberate change of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")
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


def digests(directory):
    """{graph key: {command line: "exit code, space, stdout sha256"}}."""
    from test_acceptance import STAR7, corpus

    from raagbns.cli import main

    path = pathlib.Path(directory) / "graph.json"
    out = {}
    for g in corpus():
        if g == STAR7:
            continue
        path.write_text(json.dumps(g.to_json()), encoding="utf-8")
        row = {}
        for command in COMMANDS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main([command[0], str(path), *command[1:]])
            row[" ".join(command)] = f"{code} {hashlib.sha256(buffer.getvalue().encode()).hexdigest()}"
        out[graph_key(g)] = row
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


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(GOLDEN.parent))
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(tmp)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} digests for {len(table)} graphs to {GOLDEN.name}")
