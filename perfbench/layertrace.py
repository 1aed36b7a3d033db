"""Per-layer tracing: wrap the public functions of widthlab's modules.

A layer is a package module. Every public function a module defines is
replaced, in every widthlab module that binds it, by a wrapper that
times the call as a span. A span's self time is its duration minus the
durations of the wrapped calls made inside it, so the layers' self
times add up to the time spent inside the outermost span. Counts are
computed from call arguments and return values, never from inside the
program. Private helpers are not wrapped; their time is their caller's.

Pool workers are forked from the traced process and inherit the
wrappers. A worker starts its own totals on its first span and writes
them to a file when it exits; :meth:`Tracer.merge_workers` adds them
in. On a pooled workload the layer times are therefore summed over
processes and can exceed the wall time.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("_kernels", "oracles", "decomp", "bounds", "graphs", "widthcalc", "hales", "suites", "cli")
PREFIXES = tuple(layer.lstrip("_") for layer in LAYERS)  # a metric name starts with a letter

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("kernels.self_s", "s", "lower"),
    ("kernels.elim_table.self_s", "s", "lower"),
    ("kernels.boundary_table.self_s", "s", "lower"),
    ("kernels.sep_table.self_s", "s", "lower"),
    ("kernels.bv_table.self_s", "s", "lower"),
    ("kernels.dp.calls", "count", "lower"),
    ("kernels.dp.subsets", "count", "lower"),
    ("kernels.dp.max_table_mb", "MB", "lower"),
    ("kernels.bag_occurrence.self_s", "s", "lower"),
    ("kernels.bag_occurrence.entries", "count", "lower"),
    ("kernels.connected_rows.self_s", "s", "lower"),
    ("kernels.closure_rows.self_s", "s", "lower"),
    ("kernels.touch_scan.self_s", "s", "lower"),
    ("kernels.bramble.rows", "count", "lower"),
    ("oracles.self_s", "s", "lower"),
    ("oracles.calls", "count", "lower"),
    ("oracles.exact_treewidth.self_s", "s", "lower"),
    ("oracles.exact_pathwidth.self_s", "s", "lower"),
    ("oracles.exact_bandwidth.self_s", "s", "lower"),
    ("oracles.min_balanced_separator.self_s", "s", "lower"),
    ("decomp.self_s", "s", "lower"),
    ("decomp.petersen_pd.self_s", "s", "lower"),
    ("decomp.validate_decomposition.path.self_s", "s", "lower"),
    ("decomp.validate_decomposition.tree.self_s", "s", "lower"),
    ("decomp.validate_decomposition.not_ok", "count", "lower"),
    ("decomp.read_td.self_s", "s", "lower"),
    ("decomp.write_td.self_s", "s", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.petersen_bramble.self_s", "s", "lower"),
    ("bounds.validate_bramble.self_s", "s", "lower"),
    ("bounds.verify_spectrum_moments.self_s", "s", "lower"),
    ("bounds.validate_bramble.not_ok", "count", "lower"),
    ("graphs.self_s", "s", "lower"),
    ("graphs.gen.self_s", "s", "lower"),
    ("graphs.read_graph.self_s", "s", "lower"),
    ("graphs.write_graph.self_s", "s", "lower"),
    ("widthcalc.self_s", "s", "lower"),
    ("widthcalc.assemble_block.self_s", "s", "lower"),
    ("widthcalc.manhattan_radius.self_s", "s", "lower"),
    ("hales.self_s", "s", "lower"),
    ("suites.self_s", "s", "lower"),
    ("suites.run_suite.s", "s", "lower"),
    ("suites.write_report.s", "s", "lower"),
    ("suites.jobs", "count", "higher"),
    ("suites.records", "count", "higher"),
    ("suites.worker_busy", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.call_p50_ms", "ms", "lower"),
    ("cli.call_tail_ms", "ms", "lower"),
    ("cli.call_tail_pct", "%", "higher"),
    ("cli.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
]


def _span_key(layer: str, name: str):
    """The name a call is recorded under; a callable when it depends on the arguments."""
    if layer == "graphs" and name.startswith("gen_"):
        return "graphs.gen"
    if (layer, name) == ("decomp", "validate_decomposition"):
        return lambda g, d: "decomp.validate_decomposition." + ("path" if d.is_path else "tree")
    return f"{layer}.{name}"


# counts taken from (tracer, bound arguments, result) after a call returns


def _dp_hook(tr, a, result):
    tr.sums["kernels.dp.calls"] += 1
    tr.sums["kernels.dp.subsets"] += 2 ** a["n"]
    if len(result) == 2 ** a["n"]:  # bv_table keeps no table; it returns one value per size
        mb = result.nbytes / 2**20
        tr.peaks["kernels.dp.max_table_mb"] = max(tr.peaks["kernels.dp.max_table_mb"], mb)


def _bag_hook(tr, a, result):
    tr.sums["kernels.bag_occurrence.entries"] += len(a["flat"])


def _rows_hook(tr, a, result):
    tr.sums["kernels.bramble.rows"] += a["packed"].shape[0]


def _not_ok_hook(key):
    def hook(tr, a, result):
        tr.sums[key] += not result.ok

    return hook


def _suite_hook(tr, a, result):
    config = a["config"]
    suites = sys.modules["widthlab.suites"]
    tr.sums["suites.jobs"] += len(suites.SUITES[config.name][0](config.params))
    tr.sums["suites.records"] += len(result)


HOOKS = {
    **{f"kernels.{name}": _dp_hook for name in ("elim_table", "boundary_table", "sep_table", "bv_table")},
    "kernels.bag_occurrence": _bag_hook,
    "kernels.connected_rows": _rows_hook,
    "decomp.validate_decomposition": _not_ok_hook("decomp.validate_decomposition.not_ok"),
    "bounds.validate_bramble": _not_ok_hook("bounds.validate_bramble.not_ok"),
    "suites.run_suite": _suite_hook,
}


class Tracer:
    """Span totals and counts for one process."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self._reset()

    def _reset(self):
        self.stack = []  # per open span: time covered by its wrapped children
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, total s, self s]
        self.sums = defaultdict(float)
        self.peaks = defaultdict(float)
        self.cli_ms = []

    def _enter_worker(self):
        self.pid = os.getpid()
        self._reset()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self):
        path = os.path.join(self.dump_dir, f"worker-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "sums": self.sums, "peaks": self.peaks}, fh)

    def merge_workers(self):
        for path in glob.glob(os.path.join(self.dump_dir, "worker-*.json")):
            with open(path) as fh:
                data = json.load(fh)
            os.remove(path)
            for key, (calls, total, self_s) in data["spans"].items():
                rec = self.spans[key]
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for key, val in data["sums"].items():
                self.sums[key] += val
            for key, val in data["peaks"].items():
                self.peaks[key] = max(self.peaks[key], val)

    def wrap(self, layer: str, name: str, fn):
        key = _span_key(layer, name)
        hook = HOOKS.get(f"{layer}.{name}")
        sig = inspect.signature(fn) if hook else None
        is_cli = (layer, name) == ("cli", "main")
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_worker()
            inner = [0.0]
            tracer.stack.append(inner)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                rec = tracer.spans[key(*args, **kwargs) if callable(key) else key]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner[0]
                if is_cli:
                    tracer.cli_ms.append(dt * 1e3)
            if hook:
                hook(tracer, sig.bind(*args, **kwargs).arguments, result)
            return result

        return span

    def install(self):
        """Wrap every public function of every layer, wherever a widthlab module binds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"widthlab.{layer}")
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(layer.lstrip("_"), name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "widthlab" or mod_name.startswith("widthlab."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        setattr(mod, name, wrappers[id(obj)][1])

    def metrics(self, verdict_s: float, worker_busy: float) -> dict:
        """Every per-layer metric except ``trace.overhead_s``, which needs an untraced run."""
        out = {f"{layer}.self_s": sum(rec[2] for key, rec in self.spans.items() if key.split(".", 1)[0] == layer) for layer in PREFIXES}
        out["oracles.calls"] = sum(rec[0] for key, rec in self.spans.items() if key.startswith("oracles."))
        out["suites.worker_busy"] = worker_busy
        out.update(cli_call_stats(self.cli_ms))
        out.update(self.sums)
        out.update(self.peaks)
        for name, _, _ in PER_LAYER:
            key, _, field = name.rpartition(".")
            if name not in out and key in self.spans and field in ("s", "self_s"):
                out[name] = self.spans[key][2 if field == "self_s" else 1]
        # the function-level self times, not the layer totals, which cover everything by construction
        named = [name for name, _, _ in PER_LAYER if name.endswith(".self_s") and name.count(".") > 1]
        out["trace.accounted_frac"] = sum(out.get(name, 0.0) for name in named) / verdict_s
        return {name: out.get(name, 0.0) for name, _, _ in PER_LAYER if name != "trace.overhead_s"}


def cli_call_stats(durations_ms) -> dict:
    """Median call time and the highest percentile with at least ten calls beyond it.

    With ten calls or fewer no such percentile exists; the tail is then
    the slowest call, reported at 100%.
    """
    ordered = sorted(durations_ms)
    n = len(ordered)
    if n == 0:
        return {"cli.call_p50_ms": 0.0, "cli.call_tail_ms": 0.0, "cli.call_tail_pct": 0.0, "cli.calls": 0}
    idx = n - 11 if n > 10 else n - 1
    return {
        "cli.call_p50_ms": statistics.median(ordered),
        "cli.call_tail_ms": ordered[idx],
        "cli.call_tail_pct": 100.0 * (idx + 1) / n,
        "cli.calls": n,
    }
