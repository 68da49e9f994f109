"""Runs some ops of one pass of a workload in a fresh interpreter: a
closed loop, one op at a time, each op a call of `raagbns.cli.main(argv)`
with stdout and stderr captured.  Only the `main` call is timed.  Right
after each op the worker checks its output (workloads.check_output) and
keeps only the verdict and the output's digest, so that the records it
holds do not grow its peak memory with the number of ops.

Going through the op indices it is given, the worker stops after
CHUNK_OPS ops, and run.py starts the next worker where this one
stopped.  A count, not a time: the records the worker holds add to its
peak memory, so a faster program must not get more ops a worker.  Then it runs the `again` ops,
which an earlier worker ran, once more, and writes the records of both.

In untraced passes a probe.Sampler samples the speed probe throughout
the ops, and PROBE_BLOCK times back to back before and after them.  Each
record carries the op's time without the samples taken inside it
("latency_s") and that time calibrated to the probe ("cal_s").  Before
each op the worker waits, untimed, until the probe runs within
probe.FAST_MARGIN of `fast_ms`, the probe's fast time that run.py passes
in, waiting at most WAIT_S before an op and at most WAIT_SHARE of its
busy time plus WAIT_S in all.  A record's
"slow_share" is the share of the samples inside the op slower than
that, or None for an op too short to hold probe.MIN_SAMPLES of them.
Traced passes run without the sampler and do not wait.

Usage: python3 worker.py CONFIG_JSON  (written by run.py)
"""

import contextlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

CHUNK_OPS = 1000
PROBE_BLOCK = 20
WAIT_S = 0.5
WAIT_SHARE = 0.5


def peak_rss_mb():
    """This process's peak resident set size in MB.  Not ru_maxrss: that
    also counts the pages of the parent, which a child started by vfork
    shares until it execs, so it would measure run.py."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(op, inputs, cli_main, tracer, op_id):
    """Write the op's input files under `inputs`, call the CLI on them and
    return (exit code, start, seconds, stdout, stderr, traceback or None);
    only the call is timed."""
    inputs.mkdir(parents=True)
    for name, text in op.files.items():
        (inputs / name).write_text(text, encoding="utf-8")
    argv = op.argv(inputs)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        began = perf_counter()
        try:
            if tracer is None:
                code = cli_main(argv)
            else:
                code = tracer.run_op(op_id, cli_main, argv)
        except Exception as exc:  # an escaped exception is a failed op
            code, error = 1, exc
        elapsed = perf_counter() - began
    tb = "".join(traceback.format_exception(error)) if error else None
    return code, began, elapsed, out.getvalue(), err.getvalue(), tb


def main():
    config = json.loads(sys.argv[1])
    sys.path.insert(0, config["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from probe import FAST_MARGIN, Sampler, calibrate
    from workloads import check_output, make_pass, stdout_digest

    from raagbns.cli import main as cli_main

    tracer, sampled = None, not config["traced"]
    if config["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    index, todo = config["pass"], config["ops"]
    ops = make_pass(config["workload"], config["seed"], index, config["smoke"])
    op_dir = Path(config["run_dir"]) / config["name"]
    op_dir.mkdir()
    limit_ms = config["fast_ms"] * FAST_MARGIN
    sampler = Sampler()
    busy = waited = 0.0

    def timed(op, name, op_id):
        nonlocal waited
        if sampled:
            waited += sampler.wait_fast(limit_ms, min(WAIT_S, WAIT_SHARE * busy + WAIT_S - waited))
        code, start, elapsed, stdout, stderr, error = run_op(op, op_dir / "in" / name, cli_main, tracer, op_id)
        return {
            "exit": code,
            "start": start,
            "latency_s": elapsed,
            "digest": stdout_digest(stdout),
            "reason": check_output(op, code, stdout, stderr, error),
        }

    sampler.block(PROBE_BLOCK)
    if sampled:
        sampler.start()
    seen, records = set(), []
    for i in todo[:CHUNK_OPS]:
        op = ops[i]
        key = op.key()
        if key in seen:
            raise SystemExit(f"pass {index} op {i} repeats an input of this process")
        seen.add(key)
        record = timed(op, str(i), f"{index}:{i}")
        busy += record["latency_s"]
        records.append({"pass": index, "op": i, "key": key, **record})
    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.write(op_dir / "spans.jsonl")
        layers, tracer = tracer.totals(), None
    again = []
    for other, i in config["again"]:
        op = make_pass(config["workload"], config["seed"], other, config["smoke"])[i]
        if op.key() in seen:
            raise SystemExit(f"pass {other} op {i} repeats an input of this process")
        seen.add(op.key())
        again.append({"pass": other, "op": i, **timed(op, f"again-{other}-{i}", None)})
    sampler.stop()
    sampler.block(PROBE_BLOCK)
    for record in records + again:
        end = record["start"] + record["latency_s"]
        inside, factor, record["slow_share"] = calibrate(sampler.samples, record["start"], end, limit_ms)
        record["latency_s"] -= inside
        record["cal_s"] = record["latency_s"] * (factor if sampled else 1.0)
    result = {
        "ops": records,
        "again": again,
        "samples": sampler.samples,
        "waited_s": waited,
        "peak_rss_mb": peak_rss_mb(),
    }
    if layers is not None:
        result["layers"] = layers
    shutil.rmtree(op_dir / "in", ignore_errors=True)
    (op_dir / "worker.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
