"""Span tracing of cmvm from outside the package, and the per-layer summary.

``Tracer.install`` rebinds each function in ``TRACED`` in every loaded
``cmvm`` module that holds it (the defining module and every module that
imported it by name), so calls through any of those names record a span.
``Tracer.uninstall`` puts every original back. Nothing under ``src/`` is
edited. Spans are kept in memory as parallel lists and written out once,
after the traced run.

A span is (name, start_ns, end_ns, parent, n_steps, count). ``parent`` is
the index of the enclosing span, or -1. ``n_steps`` comes from the grid of
the span's arguments, or else from its parent. ``count`` is the number of
jump events of a sampled path and 0 for every other span.

``summarize`` turns the span files of one or more traced runs into the
per-layer metrics. It needs neither cmvm nor numpy.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import defaultdict
from statistics import median

# Functions wrapped in spans, by module. Besides the layers the benchmark
# reports, the list covers the public helpers the scenarios spend time in
# (ito_residual, qv_refinement_study, the burkholder estimators), so that
# the orchestration left in harness.run's self time stays small.
TRACED = (
    ("noise", "sample_path"),
    ("noise", "substream"),
    ("noise", "normalize_spec"),
    ("hilbert", "op_norm"),
    ("hilbert", "psd_sqrt"),
    ("integrate", "integrate"),
    ("integrate", "simulate_ito_process"),
    ("integrate", "realized_lambda2_mass"),
    ("integrate", "lambda2_norm"),
    ("quadvar", "optional_qv"),
    ("quadvar", "predictable_qv"),
    ("quadvar", "riemann_qv"),
    ("quadvar", "make_dyadic_partition"),
    ("quadvar", "qv_refinement_study"),
    ("ito", "ito_terms"),
    ("ito", "ito_residual"),
    ("burkholder", "check"),
    ("burkholder", "path_running_sup"),
    ("burkholder", "walk_ensemble"),
    ("burkholder", "bracket_terminal"),
    ("burkholder", "terminal_isometry_gap"),
    ("harness", "run"),
)

# Both walk entry points run the same step loop; the span is named after the
# integrand kind, because adapted and deterministic integrands cost very
# differently per path.
_WALKS = {
    "integrate.integrate": lambda integrand: integrand,
    "integrate.simulate_ito_process": lambda process: process.integrand,
}

MODULES = ("noise", "hilbert", "integrate", "quadvar", "ito", "burkholder", "harness")
ROOT_SPAN = "harness.run"

# Step counts keyed separately: the mesh levels of the ito-mesh workload.
KEYED_STEPS = (16, 32, 64, 128, 256)
PER_PATH_KEYED = (
    "noise.sample_path.self_us_per_path",
    "noise.substream.calls_per_path",
    "noise.substream.self_us_per_path",
    "noise.jump_events_per_path",
    "hilbert.op_norm.calls_per_path",
    "hilbert.op_norm.self_us_per_path",
    "integrate.walk_det.self_us_per_path",
    "ito.ito_terms.self_us_per_call",
)


def _steps_of(args):
    """n_steps of the first argument that is a TimeGrid or carries one."""
    for arg in args:
        grid = arg if type(arg).__name__ == "TimeGrid" else getattr(arg, "grid", None)
        if grid is not None:
            return grid.n_steps
    return None


class Tracer:
    """Records spans around the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.steps = []
        self.counts = []
        self._stack = [-1]
        self._rebound = []

    def _wrap(self, module: str, func: str, original):
        names, starts, ends = self.names, self.starts, self.ends
        parents, steps, counts, stack = self.parents, self.steps, self.counts, self._stack
        clock = time.perf_counter_ns
        fixed_name = f"{module}.{func}"
        walk_of = _WALKS.get(fixed_name)
        count_jumps = fixed_name == "noise.sample_path"

        def traced(*args, **kwargs):
            if walk_of is None:
                name = fixed_name
            else:
                det = walk_of(args[0]).deterministic
                name = "integrate.walk_det" if det else "integrate.walk_adapted"
            idx = len(names)
            parent = stack[-1]
            n = _steps_of(args)
            if n is None and parent >= 0:
                n = steps[parent]
            names.append(name)
            parents.append(parent)
            steps.append(n)
            counts.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_jumps:
                counts[idx] = len(result.jumps)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        traced.__doc__ = original.__doc__
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded cmvm module."""
        loaded = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cmvm" or name.startswith("cmvm."))
        }
        for module, func in TRACED:
            original = getattr(loaded[f"cmvm.{module}"], func)
            wrapper = self._wrap(module, func, original)
            for mod in loaded.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebound.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every rebound attribute; True when all are the originals again."""
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        restored = all(getattr(mod, attr) is original for mod, attr, original in self._rebound)
        self._rebound = []
        return restored

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        spans = [
            [ids[n], s, e, p, k, c]
            for n, s, e, p, k, c in zip(
                self.names, self.starts, self.ends, self.parents, self.steps, self.counts
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": spans}, fh, separators=(",", ":"))


def self_times(spans):
    """Self time in ns of each span: its duration minus its children's."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def summarize(span_files, run_s_traced, run_s_untraced):
    """Per-layer metrics from the span files of the traced runs.

    run_s_traced lists the wall time of each traced run, in the order of
    span_files; run_s_untraced the untraced runs of the same workload and
    seed. Per-path metrics divide by the number of sampled paths (keyed
    ones by the paths at that step count); per-call metrics by the calls.
    """
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    keyed_ns = defaultdict(int)
    keyed_calls = defaultdict(int)
    jumps = defaultdict(int)
    for path in span_files:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        names, spans = doc["names"], doc["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, steps = names[span[0]], span[4]
            self_ns[name] += own
            calls[name] += 1
            keyed_ns[name, steps] += own
            keyed_calls[name, steps] += 1
            jumps[steps] += span[5]

    runs = len(span_files)
    traced_total = sum(run_s_traced)

    def per(value, base):
        return value / base if base else 0.0

    def layer_metrics(key=None):
        """Per-path and per-call metrics over all spans, or those at n_steps=key."""

        def own_us(name):
            return (self_ns[name] if key is None else keyed_ns[name, key]) / 1e3

        def count(name):
            return calls[name] if key is None else keyed_calls[name, key]

        paths = count("noise.sample_path")
        out = {
            "noise.sample_path.self_us_per_path": per(own_us("noise.sample_path"), paths),
            "noise.jump_events_per_path": per(
                sum(jumps.values()) if key is None else jumps[key], paths
            ),
        }
        for name in ("noise.substream", "hilbert.op_norm"):
            out[f"{name}.calls_per_path"] = per(count(name), paths)
            out[f"{name}.self_us_per_path"] = per(own_us(name), paths)
        for name in ("integrate.walk_adapted", "integrate.walk_det"):
            out[f"{name}.self_us_per_path"] = per(own_us(name), paths)
        for name in (
            "integrate.realized_lambda2_mass",
            "quadvar.optional_qv",
            "quadvar.predictable_qv",
            "quadvar.riemann_qv",
            "burkholder.path_running_sup",
            "ito.ito_terms",
        ):
            out[f"{name}.self_us_per_call"] = per(own_us(name), count(name))
        return out

    metrics = layer_metrics()
    for name in ("burkholder.check", "burkholder.walk_ensemble", "harness.run"):
        metrics[f"{name}.self_s"] = per(self_ns[name] / 1e9, runs)
    for module in MODULES:
        module_ns = sum(ns for name, ns in self_ns.items() if name.split(".")[0] == module)
        metrics[f"{module}.self_frac"] = per(module_ns / 1e9, traced_total)
    layer_ns = sum(ns for name, ns in self_ns.items() if name != ROOT_SPAN)
    metrics["trace.unattributed_frac"] = per(traced_total - layer_ns / 1e9, traced_total)
    metrics["trace.overhead_frac"] = per(
        median(run_s_traced) - median(run_s_untraced), median(run_s_untraced)
    )
    for steps in KEYED_STEPS:
        at_steps = layer_metrics(steps)
        for name in PER_PATH_KEYED:
            metrics[f"{name}.n{steps}"] = at_steps[name]
    return metrics


def unit_of(name: str) -> str:
    base = re.sub(r"\.n\d+$", "", name)
    if base.endswith(("_us_per_path", "_us_per_call")):
        return "us"
    if base.endswith("_per_path"):
        return "count"
    if base.endswith("self_s"):
        return "s"
    return "frac"
