"""Spans around the public functions of each raagbns layer, recorded from
outside the package.

`Tracer.install` rebinds every traced name in its defining module and in
each raagbns module that imported it (methods are rebound on their
class), so calls made through module globals are seen wherever they
come from; `uninstall` puts the originals back.  Spans are kept in
memory as [name, start, end, parent index, op id] and written out when
the run ends.  A span's self time is its duration minus the durations of
its direct children; its total time includes them.  Counter hooks run
after a span closes and are recorded as `trace.hook` spans, so their
cost lands in no layer.
"""

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from raagbns.errors import CapExceeded


def _cells(tracer, args, result):
    tracer.count("homology.build_chain_complex.cells", sum(result.dims))
    tracer.count(
        "homology.build_chain_complex.boundary_nnz",
        sum(1 for b in result.boundaries for row in b.entries for x in row if x != 0),
    )


def _dropped(tracer, args, result):
    tracer.count("homology.maximal_filter.dropped", len(args[0].subspaces) - len(result.subspaces))


def _found(name):
    def hook(tracer, args, result):
        tracer.count(f"{name}.found", len(result))

    return hook


def _components(tracer, args, result):
    g, a = args[0], args[1]
    tracer.distinct_components.add((tracer.op, g.vertices, g.edges, a))


def _letters(tracer, args, result):
    tracer.count("words.reduce.letters_in", len(args[1]))
    tracer.count("words.reduce.letters_out", len(result))


# traced name -> counter hook (or None), grouped by layer
TARGETS = {
    "linalg.rref": None,
    "linalg.rank": None,
    "linalg.kernel_basis": None,
    "linalg.intersect": None,
    "linalg.subspace_leq": None,
    "linalg.QMatrix.mul": None,
    "linalg.Subspace.coordinates": None,
    "homology.arrangement_from_file": None,
    "homology.maximal_filter": _dropped,
    "homology.build_chain_complex": _cells,
    "homology.verify_complex": None,
    "homology.betti_numbers": None,
    "bns.maximal_disconnected_subsets": _found("bns.maximal_disconnected_subsets"),
    "bns.maximal_psets": _found("bns.maximal_psets"),
    "bns.maximal_delta_psets": _found("bns.maximal_delta_psets"),
    "bns.raag_arrangement": None,
    "bns.psa_arrangement": None,
    "bns.pso_arrangement": None,
    "bns.euler_report": None,
    "bns.h1_witness": None,
    "graphs.graph_from_file": None,
    "graphs.complement_components": _components,
    "graphs.classify_pair": None,
    "graphs.support_graph": None,
    "graphs.forest_certificate": None,
    "presentations.presentation_graph": None,
    "presentations.generator_dictionary": None,
    "presentations.verify_relators_killed": None,
    "presentations.classify_pso": None,
    "presentations.psa_presentation": None,
    "words.parse_word": None,
    "words.reduce": _letters,
    "words.standard_generators": None,
}
COUNTERS = [
    "homology.build_chain_complex.cells",
    "homology.build_chain_complex.boundary_nnz",
    "homology.maximal_filter.dropped",
    "bns.maximal_disconnected_subsets.found",
    "bns.maximal_psets.found",
    "bns.maximal_delta_psets.found",
    "bns.cap_exceeded",
    "words.reduce.letters_in",
    "words.reduce.letters_out",
]
OP_SPAN = "cli.op"


def metric_units():
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["graphs.complement_components.distinct_ratio"] = "ratio"
    units["bns.pso_arrangement.calls_per_op"] = "count"
    units["homology.build_chain_complex.calls_per_op"] = "count"
    units[f"{OP_SPAN}.calls"] = "count"
    units["cli.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = defaultdict(int)
        self.distinct_components = set()
        self._last_cap = None
        self._saved = []

    def count(self, name, n=1):
        self.counters[name] += n

    def call(self, name, fn, args, kwargs, hook=None):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except CapExceeded as exc:
            if exc is not self._last_cap:
                self._last_cap = exc
                self.count("bns.cap_exceeded")
            raise
        finally:
            span[2] = perf_counter()
            self.stack.pop()
        if hook is not None:
            start = perf_counter()
            hook(self, args, result)
            self.spans.append(["trace.hook", start, perf_counter(), parent, self.op])
        return result

    def run_op(self, op_id, fn, *args):
        """Run one op as the root `cli.op` span."""
        self.op = op_id
        try:
            return self.call(OP_SPAN, fn, args, {})
        finally:
            self.op = None
            self._last_cap = None

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "raagbns" or n.startswith("raagbns.")]
        for name, hook in TARGETS.items():
            module_name, *path = name.split(".")
            owner = sys.modules[f"raagbns.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[path[-1]]
            wrapper = self._wrap(name, original, hook)
            if len(path) > 1:
                self._rebind(owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")

    def totals(self):
        """Calls, self and total seconds per span name, and the counters."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
        counters = dict(self.counters)
        counters["graphs.complement_components.distinct"] = len(self.distinct_components)
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "counters": counters}


def layer_metrics(totals, passes, traced_walls, untraced_walls):
    """Per-layer metrics from the workers' totals, each a mean per traced
    pass, plus the tracing overhead."""
    merged = {"calls": defaultdict(int), "self_s": defaultdict(float), "total_s": defaultdict(float),
              "counters": defaultdict(float)}
    for part in totals:
        for kind, table in part.items():
            for name, value in table.items():
                merged[kind][name] += value
    calls, counters = merged["calls"], merged["counters"]
    values = {}
    for name in TARGETS:
        values[f"{name}.calls"] = calls[name] / passes
        values[f"{name}.self_s"] = merged["self_s"][name] / passes
        values[f"{name}.total_s"] = merged["total_s"][name] / passes
    for name in COUNTERS:
        values[name] = counters[name] / passes
    components = calls["graphs.complement_components"]
    values["graphs.complement_components.distinct_ratio"] = (
        counters["graphs.complement_components.distinct"] / components if components else 0.0
    )
    ops = calls[OP_SPAN]
    values["bns.pso_arrangement.calls_per_op"] = calls["bns.pso_arrangement"] / ops
    values["homology.build_chain_complex.calls_per_op"] = calls["homology.build_chain_complex"] / ops
    values[f"{OP_SPAN}.calls"] = ops / passes
    values["cli.self_s"] = merged["self_s"][OP_SPAN] / passes
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    return values
