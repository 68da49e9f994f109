"""The benchmark's counter hooks, run on the program as it is.

perfbench/spans.py traces the public functions of each layer, and some
of its hooks read attributes of what those functions take or return:
`_components` reads a graph's `vertices` and `edges`, `_cells` a
boundary's `entries`, `_dropped` both arrangements' `subspaces` and
`_letters` the words' lengths.  The source lint lets these names
through only because other classes share them, so a change that drops
one would show first in a traced benchmark run.  Here every hook fires
on ops run through the CLI, as the harness's worker runs them.
"""

import json
import pathlib

from raagbns import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_counter_hook_runs_on_cli_ops(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/selfcheck.py imports it
    from spans import Tracer

    files = {
        "path4.json": {"vertices": list("abcd"), "edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
        "edgeless4.json": {"vertices": list("abcd"), "edges": []},
        # block-line: the x-axis lies in the plane <x, y>, so the filter drops it
        "nested.json": {"ambient_dim": 3, "subspaces": [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0]]]},
        # not block-line: the line x + y makes one block of the plane's two rows
        "plane-and-line.json": {"ambient_dim": 2, "subspaces": [[[1, 0], [0, 1]], [[1, 1]]]},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    path = {name: str(tmp_path / name) for name in files}
    ops = [
        ["classify", path["path4.json"]],  # a RAAG
        ["classify", path["edgeless4.json"]],  # a loop
        ["euler-report", path["path4.json"]],
        ["word-reduce", path["path4.json"], "a b a^-1 c"],
        ["bns", path["edgeless4.json"], "--group", "pso", "--witness"],
        ["homology", path["nested.json"]],
        # --raw, so the full complex is built: filtered, the plane alone is block-line
        ["homology", "--raw", path["plane-and-line.json"]],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        codes = [tracer.run_op(op_id, cli.main, argv) for op_id, argv in enumerate(ops)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(ops)
    totals = tracer.totals()
    counters = totals["counters"]
    # only the `homology` op without --raw filters: no graph arrangement is
    assert totals["calls"]["homology.maximal_filter"] == 1
    assert counters["homology.maximal_filter.dropped"] == 1
    assert counters["homology.build_chain_complex.cells"] > 0
    assert counters["words.reduce.letters_in"] > 0
    assert tracer.distinct_components
