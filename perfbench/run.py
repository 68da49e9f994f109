"""Benchmark entry point for the raagbns CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/` there.  The ops run in fresh worker processes (worker.py) with
the RAAGBNS_* settings removed from their environment.  This process
measures set-up time, checks every op's output after the workers exit
(outside the timed region), and prints a summary followed, as the last
line of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from spans.py.  Times in the end-to-end metrics are
calibrated with the speed probe of probe.py, which runs inside and
between the ops and after every set-up sample; the summary also prints
the raw times.  `--workload all` runs every workload in
turn and prints each summary (no JSON line).  The run directory under
perfbench/out/ keeps the workers' op records, a result file with
machine information and, for traced runs, the spans.  See README.md for
why each workload exists.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

from probe import FAST_MARGIN, PROBE_REF_MS, Sampler, scale  # noqa: E402
from workloads import PASSES, make_pass  # noqa: E402

DEADLINE_S = 170  # the whole run, worker included, ends within this
AGAIN_BELOW_S = 3.0  # ops that a later worker runs again must be shorter
DISTURBED = 0.5  # an op with a larger slow_share is timed again in a later worker
SETUP_SAMPLES = 8  # fresh interpreters before the workers, and again after them
SETUP_WAIT_S = 2.0  # longest wait for fast spells over the set-up samples of one call
SCRUBBED = ("RAAGBNS_CAP", "RAAGBNS_ACCEPT_FULL", "RAAGBNS_STATS")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# times the import first, so that the probe's own imports are not in it
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import raagbns.cli; t = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); import probe; s = probe.Sampler(); s.block(20); "
    "print(t, *(x[2] * 1000 for x in s.samples))"
)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model
            )
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def import_times(env, count):
    """Raw ("latency_s") and calibrated ("cal_s") seconds to import
    raagbns.cli, and the probe times ("probe_ms") after it, each sample
    from a fresh interpreter started once the probe runs fast here (or
    once SETUP_WAIT_S of waiting are used up)."""
    gate = Sampler()
    gate.block(20)
    limit_ms = statistics.quantiles([s * 1000 for _, _, s in gate.samples], n=10)[0] * FAST_MARGIN
    samples, budget = [], SETUP_WAIT_S
    for _ in range(count):
        gate.block(1)
        budget -= gate.wait_fast(limit_ms, budget)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        raw, *probes = map(float, proc.stdout.split())
        samples.append({"latency_s": raw, "cal_s": raw * scale(probes), "probe_ms": probes})
    return samples


def run_worker(config, env, deadline):
    """Run one worker to completion and return its report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(0.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    path = Path(config["run_dir"]) / config["name"] / "worker.json"
    return json.loads(path.read_text(encoding="utf-8"))


class Runner:
    """Starts workers for one run and collects what they report."""

    def __init__(self, args, env, run_dir, probe_ms):
        self.args, self.env, self.run_dir = args, env, run_dir
        self.deadline = args.started + DEADLINE_S
        self.layers, self.peak_rss_mb, self.probe_ms = [], 0.0, list(probe_ms)
        self.waited_s = 0.0
        self.again = []  # (pass, op, record) for the next worker to run again
        self.disturbed = []  # the records in `again` to time again
        self.rechecked = self.retimed = 0

    def run_worker(self, index, todo, traced):
        """Run ops `todo` of pass `index` in one worker, from the first, as
        far as it gets, and the ops kept for running again; return the
        records of the ops of `todo` that it ran."""
        config = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "pass": index,
            "ops": todo,
            "name": f"w{index}-{todo[0] if todo else 'again'}",
            "traced": traced,
            "fast_ms": statistics.quantiles(self.probe_ms, n=10)[0],
            "again": [[p, i] for p, i, _ in self.again],
            "smoke": self.args.smoke,
            "src": str(SRC),
            "run_dir": str(self.run_dir),
        }
        result = run_worker(config, self.env, self.deadline)
        self.probe_ms.extend(s * 1000 for _, _, s in result["samples"])
        self.waited_s += result["waited_s"]
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])
        if traced:
            self.layers.append(result["layers"])
        for (_, _, first), rec in zip(self.again, result["again"]):
            first["agree"] = first.get("agree", True) and (rec["exit"], rec["digest"]) == (first["exit"], first["digest"])
            self.rechecked += 1
            if first in self.disturbed and rec["slow_share"] is not None and rec["slow_share"] < first["slow_share"]:
                first.update(latency_s=rec["latency_s"], cal_s=rec["cal_s"], slow_share=rec["slow_share"])
                self.retimed += 1
        self.again = self.to_run_again(index, result["ops"], traced)
        return result["ops"]

    def to_run_again(self, index, records, traced):
        """The first op of a worker shorter than AGAIN_BELOW_S, to check
        that another process prints the same output, and, in untraced
        passes, every such op that ran mostly in slow spells, to time it
        again."""
        short = [r for r in records if r["latency_s"] < AGAIN_BELOW_S]
        self.disturbed = [] if traced else [r for r in short if (r["slow_share"] or 0) > DISTURBED]
        return [(index, r["op"], r) for r in short[:1] + [r for r in self.disturbed if r is not short[0]]]

    def run_ops(self, index, todo, traced):
        """Records of ops `todo` of pass `index`, in as many workers as they need."""
        records = []
        while len(records) < len(todo):
            records.extend(self.run_worker(index, todo[len(records):], traced))
        return records

    def run_passes(self):
        """Whole passes, at least one, and another as long as one more of
        the average length still ends within --seconds; each op is timed
        once.  Traced runs alternate untraced and traced passes, at least
        one of each."""
        args = self.args
        began = time.monotonic()
        passes = []
        while (
            not passes
            or (time.monotonic() - began) * (len(passes) + 1) / len(passes) <= args.seconds
            or (args.trace and len(passes) < 2)
        ):
            index = len(passes)
            traced = bool(args.trace) and index % 2 == 1
            count = len(make_pass(args.workload, args.seed, index, args.smoke))
            records = self.run_ops(index, list(range(count)), traced)
            passes.append({"index": index, "traced": traced, "records": records})
        if self.again:
            self.run_worker(len(passes) - 1, [], False)
        for p in passes:
            for key in ("latency_s", "cal_s"):
                p[key] = sum(r[key] for r in p["records"])
        return passes


def check_ops(workload, records, digests):
    """One failure reason (or None) per op: the worker's check of its
    output, then the checks across records."""
    recorded = digests.get(workload, {})
    reasons = []
    for rec in records:
        reason = rec["reason"]
        if reason is None and not rec.get("agree", True):
            reason = "the op printed another output when a later worker ran it again"
        if reason is None and recorded.get(rec["key"], rec["digest"]) != rec["digest"]:
            reason = "stdout differs from the recorded digest"
        reasons.append(reason)
    return reasons


def timings(setup, passes, records, key):
    """setup_s, wall_s, op_p50_ms and op_p90_ms from the raw ("latency_s")
    or the calibrated ("cal_s") times."""
    latencies_ms = [r[key] * 1000 for r in records]
    return {
        "setup_s": statistics.median(s[key] for s in setup),
        "wall_s": statistics.median(p[key] for p in passes),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
    }


def end_to_end(setup, passes, peak_rss_mb, records, reasons):
    ok = sum(1 for r, why in zip(records, reasons) if why is None and r["exit"] == 0)
    return {
        **timings(setup, passes, records, "cal_s"),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": ok / len(records),
    }


def run(args):
    if not (SRC / "raagbns" / "cli.py").is_file():
        raise SystemExit(f"error: no raagbns sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from spans import layer_metrics, metric_units  # imports raagbns

    env = child_env()
    info = machine_info()
    info["load_before"] = os.getloadavg()
    warm = import_times(env, 1)  # leaves the bytecode cache warm
    setup = [] if args.trace else import_times(env, SETUP_SAMPLES)
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args, env, run_dir, [p for s in warm + setup for p in s["probe_ms"]])
    passes = runner.run_passes()
    records = [r for p in passes for r in p["records"]]
    info["load_after"] = os.getloadavg()
    if not args.trace:
        setup += import_times(env, SETUP_SAMPLES)

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    reasons = check_ops(args.workload, records, digests)
    failed = sum(1 for why in reasons if why is not None)
    refused = sum(1 for r in records if r["exit"] == 3)

    if args.trace:
        values = layer_metrics(
            runner.layers,
            sum(1 for p in passes if p["traced"]),
            [p["latency_s"] for p in passes if p["traced"]],
            [p["latency_s"] for p in passes if not p["traced"]],
        )
        units = metric_units()
    else:
        values = end_to_end(setup, passes, runner.peak_rss_mb, records, reasons)
        units = END_TO_END
    raw = timings(setup, passes, records, "latency_s") if setup else {}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p["cal_s"] for p in passes],
        "ops": len(records),
        "rechecked": runner.rechecked,
        "retimed": runner.retimed,
        "probe_ms": statistics.median(runner.probe_ms),
        "waited_s": runner.waited_s,
        "raw": raw,
        "fail_frac": failed / len(records),
        "refused_frac": refused / len(records),
        "failures": [
            {"pass": r["pass"], "op": r["op"], "reason": why} for r, why in zip(records, reasons) if why
        ][:20],
        "machine": info,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.record_digests:
        record_digests(args.workload, records, reasons, digests)
    print_summary(summary)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def record_digests(workload, records, reasons, digests):
    if any(reasons):
        raise SystemExit("error: not recording digests of a run with failed ops")
    table = digests.setdefault(workload, {})
    for rec in records:
        table[rec["key"]] = rec["digest"]
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def print_summary(summary):
    m = summary["machine"]
    print(
        f"# {summary['workload']} seed={summary['seed']} trace={summary['trace']}: "
        f"{summary['ops']} ops in {summary['passes']} passes, closed loop, 1 client | "
        f"python {m['python']}, nproc {m['nproc']}, {m['cpu']}, "
        f"load {m['load_before'][0]:.2f} -> {m['load_after'][0]:.2f}"
    )
    print(
        f"# times calibrated to a probe time of {PROBE_REF_MS} ms; the probe took "
        f"{summary['probe_ms']:.4g} ms in this run; {summary['waited_s']:.3g} s waited for fast spells; "
        f"{summary['rechecked']} ops run again in a later worker, {summary['retimed']} of them retimed"
    )
    for name, metric in summary["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    for name, value in summary["raw"].items():
        print(f"{'raw ' + name:48s} {value:.6g} {END_TO_END[name]}")
    print(f"{'fail_frac':48s} {summary['fail_frac']:.6g} ratio")
    print(f"{'refused_frac':48s} {summary['refused_frac']:.6g} ratio")
    for failure in summary["failures"]:
        print(f"FAILED pass {failure['pass']} op {failure['op']}: {failure['reason']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*PASSES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny passes, for the harness's own checks")
    parser.add_argument(
        "--record-digests", action="store_true", help="store this run's stdout digests in digests.json"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        for name in PASSES:
            sub = parse_args([*(argv or sys.argv[1:]), "--workload", name])
            sub.started = time.monotonic()
            run(sub)
        return
    args.started = time.monotonic()
    try:
        result = run(args)
    except (RuntimeError, subprocess.SubprocessError) as err:
        raise SystemExit(f"error: {err}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
