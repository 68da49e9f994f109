"""Checks of the benchmark harness itself; exits 1 on the first failure.

    python3 perfbench/selfcheck.py

- The same seed regenerates byte-identical input files, and another
  seed changes them.
- The harness's own test of a word normal form (used on `words`) agrees
  with the program's reduce on random words.
- The speed probe's calibration scales a time by the probe's speed.
- BENCHMARK.json lists exactly the metrics run.py and spans.py report.
- A smoke run of every workload, untraced and traced, prints a correct
  result line with those metrics.
- Without the program's sources the benchmark exits non-zero and prints
  no result.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from probe import PROBE_REF_MS, calibrate  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import metric_units  # noqa: E402
from workloads import PASSES, _adjacency, _random_graph, _word_text, make_pass, parse_letters, word_is_fixed  # noqa: E402

from raagbns.graphs import SimpleGraph  # noqa: E402
from raagbns.words import format_word, parse_word, reduce  # noqa: E402

SCRATCH = HERE / "out" / "selfcheck"


def fail(message):
    raise SystemExit(f"selfcheck FAILED: {message}")


def write_inputs(directory, workload, seed):
    """Write passes 0 and 1 of a workload as files; return their bytes."""
    shutil.rmtree(directory, ignore_errors=True)
    for index in (0, 1):
        for i, op in enumerate(make_pass(workload, seed, index)):
            op_dir = directory / str(index) / str(i)
            op_dir.mkdir(parents=True)
            for name, text in op.files.items():
                (op_dir / name).write_text(text, encoding="utf-8")
            (op_dir / "argv.json").write_text(json.dumps([op.command, *op.extra]), encoding="utf-8")
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def check_inputs():
    for workload in PASSES:
        first = write_inputs(SCRATCH / "a", workload, 7)
        again = write_inputs(SCRATCH / "b", workload, 7)
        other = write_inputs(SCRATCH / "c", workload, 8)
        if first != again:
            fail(f"{workload}: seed 7 gave different input files on a second generation")
        if first == other:
            fail(f"{workload}: seeds 7 and 8 gave the same input files")
        print(f"ok  {workload}: {len(first)} input files, byte-identical per seed, changed by the seed")


def check_word_test():
    """word_is_fixed(w) holds exactly when the program's reduce returns w."""
    rng = random.Random(5)
    fixed = 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        vertices, edges = _random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        graph = {"vertices": vertices, "edges": [list(e) for e in edges]}
        adj = _adjacency(graph)
        g = SimpleGraph.from_json(graph)
        text = _word_text(rng, vertices, rng.randint(1, 12), rng.random() < 0.5)
        word = parse_word(g, text)
        normal = reduce(g, word)
        if list(word) != parse_letters(text) or (normal and parse_letters(format_word(normal)) != list(normal)):
            fail(f"parse_letters disagrees with the program on {text!r}")
        if not word_is_fixed(adj, list(normal)):
            fail(f"word_is_fixed rejects the normal form of {text!r} on {graph}")
        if word_is_fixed(adj, list(word)) != (normal == word):
            fail(f"word_is_fixed disagrees with reduce on {text!r} on {graph}")
        fixed += normal == word
    print(f"ok  word_is_fixed agrees with reduce on 2000 random words ({fixed} fixed points)")


def check_calibration():
    """An op that ran half the time at PROBE_REF_MS and half at twice that
    is scaled by 0.75; the probes inside it are reported for subtraction,
    and half of them as slow.  A short op is calibrated from its window."""
    samples = [[t / 20, 0.001, PROBE_REF_MS * (1 + t % 2) / 1000] for t in range(60)]
    got = calibrate(samples, 1.0, 2.0, 1.5 * PROBE_REF_MS)
    if abs(got[0] - 0.020) > 1e-9 or abs(got[1] - 0.75) > 1e-9 or got[2] != 0.5:
        fail(f"calibrate gave {got}, expected (0.020, 0.75, 0.5)")
    got = calibrate(samples, 1.01, 1.02, 1.5 * PROBE_REF_MS)
    if got[0] != 0 or abs(got[1] - 0.75) > 1e-9 or got[2] is not None:
        fail(f"calibrate gave {got} for a short op, expected (0, 0.75, None)")
    print("ok  calibration weighs the probe's speed over time and subtracts the probes inside an op")


def check_metric_lists():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if listed != END_TO_END:
        fail(f"BENCHMARK.json end_to_end {listed} != run.py {END_TO_END}")
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if listed != metric_units():
        fail("BENCHMARK.json per_layer differs from spans.metric_units()")
    if {w["name"] for w in bench["workloads"]} != set(PASSES):
        fail("BENCHMARK.json workloads differ from workloads.PASSES")
    print(f"ok  BENCHMARK.json lists the {len(END_TO_END)} end-to-end and {len(metric_units())} per-layer metrics")


def run_bench(cwd, workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_smoke_runs():
    for workload in PASSES:
        for trace, units in ((0, END_TO_END), (1, metric_units())):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {proc.stdout[-2000:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                fail(f"{workload} trace={trace}: metrics differ from the listed ones")
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, all correct")


def check_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file() and path.suffix in (".py", ".json", ".md"):
            shutil.copy(path, bare / "perfbench")
    proc = run_bench(bare, "words", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without sources the run exited {proc.returncode} and printed {proc.stdout[-500:]!r}")
    print(f"ok  without sources: exit {proc.returncode}, no result ({proc.stderr.strip()})")


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    check_inputs()
    check_word_test()
    check_calibration()
    check_metric_lists()
    check_smoke_runs()
    check_without_sources()
    shutil.rmtree(SCRATCH)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
