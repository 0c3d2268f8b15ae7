"""Span tracer for the hartman benchmark.

The tracer wraps every public function of the loaded `hartman` modules by
identity: each module attribute that is bound to one of those function
objects, including `from ... import` copies in other modules, is replaced by
one wrapper.  A function that moves to another module therefore stays
traced, and a function that no longer exists shows up as `missing` in the
per-layer metrics instead of as 0.  Functions defined in `hartman.verify`
are oracles and are not wrapped.

Each span records the function, start, end, parent span and op id.  Spans
are kept in memory and written out at the end of a run.  A span's self time
is its duration minus the time covered by its child spans (calls are
single-threaded, so children never overlap).
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "hartman"
UNTRACED_MODULES = ("hartman.verify",)
KERNEL_PREFIX = "hartman._kernel"

# span record fields (lists, not objects, to keep the tracer cheap)
FN, START, END, PARENT, OP, N, TAG = range(7)


def _points(args, kwargs, result):
    """Kernel batch size: the size of the largest array argument."""
    return max((a.size for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)),
               default=1)


def _rows_arg(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs.get("rows", ())
    return len(rows)


def _packet_points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["p"]))


# per-function span counters, keyed by function name
MEASURES = {
    "build_phase_table": lambda args, kwargs, result: len(result.k_grid),
    "adaptive_quad": lambda args, kwargs, result: result.n_panels,
    "solve_bound_states": lambda args, kwargs, result: result.n_b,
    "write_dataset": _rows_arg,
    "packet_amplitude": _packet_points,
}


def _cli_tag(args, kwargs):
    """The subcommand of a `hartman.cli.main` call."""
    argv = args[0] if args else kwargs.get("argv")
    return str(argv[0]) if argv else ""


class Tracer:
    """Wraps hartman's public functions and records spans while enabled."""

    def __init__(self):
        self.functions: list[tuple[str, str]] = []  # (name, module) per fid
        self.spans: list[list] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id(function) -> its wrapper

    def install(self) -> None:
        """Bind the wrappers in every loaded hartman module; the wrappers are
        made on the first call and reused after an uninstall."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        if not self._wrappers:
            for module in modules:
                for attr, value in vars(module).items():
                    if attr.startswith("_") or isinstance(value, type) or not callable(value):
                        continue
                    origin = getattr(value, "__module__", None) or ""
                    if not (origin == PACKAGE or origin.startswith(PACKAGE + ".")):
                        continue
                    if origin in UNTRACED_MODULES or id(value) in self._wrappers:
                        continue
                    self._wrappers[id(value)] = self._wrap(value, len(self.functions))
                    self.functions.append((value.__name__, origin))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, fid):
        name = fn.__name__
        measure = _points if fn.__module__.startswith(KERNEL_PREFIX) else MEASURES.get(name)
        tag_of = _cli_tag if name == "main" else None
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0,
                    tag_of(args, kwargs) if tag_of else ""]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if measure is not None:
                span[N] = measure(args, kwargs, result)
            return result

        traced.__name__ = name
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions,
                       "fields": ["fn", "start", "end", "parent", "op", "n", "tag"],
                       "spans": self.spans}, fh)


# (metric, unit, function that must exist for it to be measurable, total it
# reads: "<function>.calls", ".n" (the span counter), ".self_s", or a kernel
# total inside that function's subtree)
PER_LAYER = (
    ("kernel.calls", "count", "kernel", "kernel.calls"),
    ("kernel.points", "count", "kernel", "kernel.n"),
    ("kernel.scalar_calls", "count", "kernel", "kernel.scalar_calls"),
    ("kernel.self_s", "s", "kernel", "kernel.self_s"),
    ("kernel.ns_per_point", "ns", "kernel", "kernel.ns_per_point"),
    ("phase_table.builds", "count", "build_phase_table", "build_phase_table.calls"),
    ("phase_table.points", "count", "build_phase_table", "build_phase_table.n"),
    ("phase_table.rounds", "count", "build_phase_table", "build_phase_table.kernel_calls"),
    ("phase_table.self_s", "s", "build_phase_table", "build_phase_table.self_s"),
    ("amplitudes.calls", "count", "amplitudes", "amplitudes.calls"),
    ("quad.calls", "count", "adaptive_quad", "adaptive_quad.calls"),
    ("quad.panels", "count", "adaptive_quad", "adaptive_quad.n"),
    ("quad.kernel_points", "count", "adaptive_quad", "adaptive_quad.kernel_points"),
    ("quad.self_s", "s", "adaptive_quad", "adaptive_quad.self_s"),
    ("tail.calls", "count", "integral_to_zero", "integral_to_zero.calls"),
    ("tail.halvings", "count", "integral_to_zero", "integral_to_zero.quad_children"),
    ("tail.self_s", "s", "integral_to_zero", "integral_to_zero.self_s"),
    ("exit_time.calls", "count", "mean_exit_time", "mean_exit_time.calls"),
    ("exit_time.self_s", "s", "mean_exit_time", "mean_exit_time.self_s"),
    ("exit_time.kernel_points", "count", "mean_exit_time", "mean_exit_time.kernel_points"),
    ("flux.calls", "count", "mean_exit_time_via_flux", "mean_exit_time_via_flux.calls"),
    ("flux.self_s", "s", "mean_exit_time_via_flux", "mean_exit_time_via_flux.self_s"),
    ("flux.kernel_points", "count", "mean_exit_time_via_flux",
     "mean_exit_time_via_flux.kernel_points"),
    ("flux.kernel_s", "s", "mean_exit_time_via_flux", "mean_exit_time_via_flux.kernel_s"),
    ("packet_amplitude.points", "count", "packet_amplitude", "packet_amplitude.n"),
    ("packet_amplitude.self_s", "s", "packet_amplitude", "packet_amplitude.self_s"),
    ("bound_states.calls", "count", "solve_bound_states", "solve_bound_states.calls"),
    ("bound_states.levels", "count", "solve_bound_states", "solve_bound_states.n"),
    ("bound_states.self_s", "s", "solve_bound_states", "solve_bound_states.self_s"),
    ("levinson.self_s", "s", "levinson_check", "levinson_check.self_s"),
    ("count.calls", "count", "count_bound_states", "count_bound_states.calls"),
    ("causality_bounds.self_s", "s", "causality_bounds", "causality_bounds.self_s"),
    ("eigen_bounds.self_s", "s", "eigenphase_derivative_bounds",
     "eigenphase_derivative_bounds.self_s"),
    ("dwell.self_s", "s", "dwell_time", "dwell_time.self_s"),
    ("smith.self_s", "s", "smith_identity_check", "smith_identity_check.self_s"),
    ("cli.main.amplitudes.self_s", "s", "main", "main.amplitudes.self_s"),
    ("cli.main.delay-sweep.self_s", "s", "main", "main.delay-sweep.self_s"),
    ("cli.main.packet-sweep.self_s", "s", "main", "main.packet-sweep.self_s"),
    ("cli.write.self_s", "s", "write_dataset", "write_dataset.self_s"),
    ("cli.rows", "count", "write_dataset", "write_dataset.n"),
)

# functions whose subtree's kernel calls are totalled separately
_KERNEL_CONTEXTS = ("build_phase_table", "adaptive_quad", "mean_exit_time",
                    "mean_exit_time_via_flux")


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans, and the metrics that are
    missing because the functions they measure no longer exist."""
    names = [name for name, _ in tracer.functions]
    is_kernel = [module.startswith(KERNEL_PREFIX) for _, module in tracer.functions]
    is_cli = [module == PACKAGE + ".cli" for _, module in tracer.functions]
    present = set(names) | ({"kernel"} if any(is_kernel) else set())

    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    totals = defaultdict(float)
    # per span: the nearest enclosing span of each context function, by name
    enclosing: list[dict] = []
    for i, s in enumerate(spans):
        fid, parent = s[FN], s[PARENT]
        name = names[fid]
        outer = enclosing[parent] if parent >= 0 else {}
        here = {**outer, name: i} if name in _KERNEL_CONTEXTS or name == "main" else outer
        enclosing.append(here)
        duration = s[END] - s[START]
        own = duration - child_time[i]
        totals[name + ".calls"] += 1
        totals[name + ".n"] += s[N]
        totals[name + ".self_s"] += own
        parent_name = names[spans[parent][FN]] if parent >= 0 else ""

        if is_kernel[fid]:
            totals["kernel.self_s"] += own
            if parent >= 0 and is_kernel[spans[parent][FN]]:
                continue  # nested kernel helper; counted within its caller
            totals["kernel.calls"] += 1
            totals["kernel.n"] += s[N]
            totals["kernel.scalar_calls"] += s[N] == 1
            totals["kernel.s"] += duration
            for context in _KERNEL_CONTEXTS:
                if context in here:
                    totals[context + ".kernel_calls"] += 1
                    totals[context + ".kernel_points"] += s[N]
                    totals[context + ".kernel_s"] += duration
        elif name == "adaptive_quad" and parent_name == "integral_to_zero":
            totals["integral_to_zero.quad_children"] += 1
        if is_cli[fid] and name != "write_dataset" and "main" in here:
            totals[f"main.{spans[here['main']][TAG]}.self_s"] += own

    if totals["kernel.n"]:
        totals["kernel.ns_per_point"] = 1e9 * totals["kernel.s"] / totals["kernel.n"]
    out = {}
    missing = []
    for metric, unit, needs, key in PER_LAYER:
        if needs in present:
            value = totals[key]
            out[metric] = (int(value) if unit == "count" else float(value), unit)
        else:
            out[metric] = (None, unit)
            missing.append(metric)
    return out, missing
