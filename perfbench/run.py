"""Benchmark of the hartman library, driven through its public functions.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Workloads (see workloads.py):

  presets      the paper's figure presets fig1, fig2, fig3 through the CLI
  flux-oracle  the time-domain flux oracle on fine- and coarse-grid configs
  analysis     bound states, phase tables, delay bounds and dwell identities

With --trace 0 the run measures the end-to-end metrics with tracing off;
op latencies are rescaled by a reference task timed between the ops, which
takes the shared machine's changing speed out of them (see reference.py),
and set-up times by bare interpreter starts (see SetupTimer).
With --trace 1 it runs a fixed number of passes untraced and then traced,
and reports per-layer metrics from the spans.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full report and the spans go to .perfbench-out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("presets", "flux-oracle", "analysis")
# the end-to-end metrics of the result line, as listed in BENCHMARK.json
GATED = ("wall_s", "peak_rss_mb", "setup_s")
SETUP_REPS = 10
SETUP_CODE = (
    "import hartman, hartman.cli\n"
    "amp = hartman.amplitudes(hartman.SquarePotential(5.0, 0.5), hartman.ATOMIC, 1.0)\n"
    "print(abs(amp.t) ** 2 + abs(amp.r) ** 2)\n"
)
SETUP_UNITARITY_TOL = 1e-12
# median time of a bare interpreter start (`python3 -c pass`) on an idle
# 2-core x86-64 VM of the kind the first numbers were taken on
BARE_START_S = 0.06


@dataclass
class Record:
    op: object
    latency: float  # seconds; rescaled to the reference speed after the run
    error: str | None
    start: float
    raw: float  # the latency as measured


class SetupTimer:
    """Times fresh interpreters that import hartman and hartman.cli and make
    one amplitudes call.  The reps are spread through the run, so that their
    median does not hang on one moment of a noisy machine; one untimed rep
    first fills the bytecode cache.

    Each rep sits between two bare interpreter starts, and its time is
    rescaled by them to a machine on which a bare start takes BARE_START_S:
    start-up is process creation, file reads and unmarshalling, whose speed
    the in-process reference tasks do not follow but a bare start does (over
    31 windows of ten reps the rescaled median spread by 0.045, the raw one
    by 0.18).  A change to hartman's imports moves only the rep."""

    def __init__(self, env: dict, spacing: float):
        self.env = env
        self.spacing = spacing
        self.times: list[float] = []
        self.raw: list[float] = []
        self.error: str | None = None
        self._time_one()
        self.times.clear()
        self.raw.clear()

    def _interpreter(self, code: str):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        return perf_counter() - start, proc

    def _time_one(self) -> None:
        before, _ = self._interpreter("pass")
        elapsed, proc = self._interpreter(SETUP_CODE)
        after, _ = self._interpreter("pass")
        self.raw.append(elapsed)
        self.times.append(elapsed * BARE_START_S / ((before + after) / 2))
        self._last = perf_counter()
        if proc.returncode != 0:
            self.error = f"setup interpreter exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        elif not abs(float(proc.stdout) - 1.0) < SETUP_UNITARITY_TOL:
            self.error = f"setup amplitudes call: |T|^2+|R|^2 = {proc.stdout.strip()}"

    def between_passes(self) -> None:
        if len(self.times) < SETUP_REPS and perf_counter() - self._last >= self.spacing:
            self._time_one()

    def finish(self) -> tuple[float, float]:
        """Median set-up time, rescaled and as measured."""
        while len(self.times) < SETUP_REPS:
            self._time_one()
        return statistics.median(self.times), statistics.median(self.raw)


def run_op(workload, op, tracer=None) -> Record:
    """One op: the library call is timed, its check runs after the clock."""
    if tracer is not None:
        tracer.enabled = True
    start = perf_counter()
    try:
        out = workload.run(op)
        error = None
    except Exception as exc:  # a failed op is recorded, and the loop goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
        tracer.op += 1
    if error is None:
        try:
            error = workload.check(op, out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(op, latency, error, start, latency)


def run_passes(workload, passes, tracer=None) -> tuple[list[Record], list[float]]:
    records, pass_times = [], []
    for i in passes:
        recs = [run_op(workload, op, tracer) for op in workload.pass_ops(i)]
        records += recs
        pass_times.append(sum(r.latency for r in recs))
    return records, pass_times


def timed_loop(workload, seconds: float, clock: ReferenceClock,
               between_passes) -> tuple[list[Record], list[float]]:
    """Passes for about `seconds`, with reference samples between the ops.
    After the first pass an op starts only when its last latency fits in the
    time left, so the last pass may end early; `pass_times` holds the whole
    passes.  Each latency is then rescaled to the reference speed."""
    records, pass_times, last = [], [], {}
    start = perf_counter()
    i = 0
    while True:
        ops, recs = workload.pass_ops(i), []
        for op in ops:
            if i and perf_counter() - start + last[op] > seconds:
                break
            clock.maybe_sample()
            recs.append(run_op(workload, op))
            last[op] = recs[-1].raw
        clock.sample()
        records += recs
        if len(recs) < len(ops):
            break
        pass_times.append(sum(r.raw for r in recs))
        i += 1
        between_passes()
    for r in records:
        r.latency = r.raw * clock.factor(r.start, r.start + r.raw)
    return records, pass_times


def latency_stats(records) -> dict:
    """Timings at the reference speed, from each input's median latency over
    the run's passes, and the plain latency distribution.

    `wall_s` is one pass assembled from each input's median latency, and
    `op_p50_ms` the median of those over the inputs; an input that failed
    once counts as infinitely slow.  `wall_raw_s` is the same pass from each
    input's best latency as measured, not rescaled.  The plain median and
    p90 over every op are reported beside them, p90 only when at least ten
    samples lie beyond it."""
    inf = float("inf")
    runs: dict = {}
    for r in records:
        runs.setdefault(r.op, []).append(r)
    typical = {op: statistics.median(r.latency for r in rs) for op, rs in runs.items()}
    best_raw = {op: min(r.raw for r in rs) for op, rs in runs.items()}
    for r in records:
        if r.error is not None:
            typical[r.op] = best_raw[r.op] = inf
    out = {"wall_s": (sum(typical.values()), "s", len(typical)),
           "wall_raw_s": (sum(best_raw.values()), "s", len(best_raw)),
           "op_p50_ms": (1e3 * statistics.median(typical.values()), "ms", len(typical))}
    lat = sorted(r.latency if r.error is None else inf for r in records)
    out["op_median_ms"] = (1e3 * statistics.median(lat), "ms", len(lat))
    p90 = lat[-(-9 * len(lat) // 10) - 1]  # nearest rank
    if sum(x > p90 for x in lat) >= 10:
        out["op_p90_ms"] = (1e3 * p90, "ms", len(lat))
    return out


def environment() -> dict:
    """Interpreter, NumPy, cores and the modules the kernel entry points
    come from (found without the library's own backend queries)."""
    import numpy

    kernel = sys.modules["hartman._kernel"]
    entry_points = {name: getattr(fn, "__module__", "?") for name, fn in vars(kernel).items()
                    if not name.startswith("_") and callable(fn) and not isinstance(fn, type)
                    and (getattr(fn, "__module__", "") or "").startswith("hartman._kernel")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "kernel_backend": sorted(set(entry_points.values()) - {"hartman._kernel"})
        or ["hartman._kernel"],
        "kernel_entry_points": entry_points,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _text(value) -> str:
    if value is None:
        return "missing"
    return str(value) if isinstance(value, int) else format(value, ".6g")


def _finite(value):
    return value if value == value and value not in (float("inf"), float("-inf")) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hartman", "__init__.py")):
        sys.stderr.write(f"error: no hartman sources under {SRC}; run from a checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=SRC)
    sys.path.insert(0, SRC)

    from probes import run_probes
    from reference import ReferenceClock
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment()}
    errors = []

    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probes = run_probes()
        warm = [run_op(workload, op) for op in workload.warmup_ops()]
        if args.trace:
            # one settling pass, then each pass untraced and traced in turn
            warm += run_passes(workload, [-1])[0]
            tracer = Tracer()
            records, plain_times, traced_times = [], [], []
            for i in range(workload.trace_passes):
                recs, times = run_passes(workload, [i])
                records += recs
                plain_times += times
                tracer.install()
                try:
                    recs, times = run_passes(workload, [i], tracer)
                finally:
                    tracer.uninstall()
                records += recs
                traced_times += times
        else:
            clock = ReferenceClock(workload.reference)
            setup = SetupTimer(env, args.seconds / SETUP_REPS)
            records, pass_times = timed_loop(workload, args.seconds, clock, setup.between_passes)
            setup_s, setup_raw_s = setup.finish()
            if setup.error:
                errors.append({"input": "setup", "error": setup.error})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in warm + records:
        if r.error is not None:
            errors.append({"input": f"{r.op.kind}: {r.op.label}", "error": r.error})
    failed = sum(r.error is not None for r in records)
    correct = not errors
    regime_fail_frac = sum(not p["ok"] for p in probes) / len(probes)
    report.update(attempted=len(records), failed=failed, correct=correct,
                  errors=errors[:20], regime_probes=probes)

    if args.trace:
        per_layer, missing = layer_metrics(tracer)
        per_layer["trace.overhead_frac"] = (sum(traced_times) / sum(plain_times) - 1.0, "ratio")
        spans_path = os.path.join(OUT_DIR, f"spans-{stem}.json")
        tracer.write(spans_path)
        report.update(per_layer={k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
                      missing=missing, spans=os.path.relpath(spans_path, ROOT),
                      traced_passes=len(traced_times))
        metrics = per_layer
        lines = [f"{name:32s} {_text(value):>14s} {unit}" for name, (value, unit) in per_layer.items()]
    else:
        named = {"setup_s": (setup_s, "s", SETUP_REPS),
                 "setup_raw_s": (setup_raw_s, "s", SETUP_REPS),
                 **latency_stats(records),
                 "pass_median_raw_s": (statistics.median(pass_times), "s", len(pass_times)),
                 "reference_ms": (1e3 * clock.median(), "ms", len(clock.times)),
                 **workload.summary(records),
                 "error_rate": (failed / len(records), "ratio", len(records)),
                 "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                 "MB", 1),
                 "regime_fail_frac": (regime_fail_frac, "ratio", len(probes))}
        report["end_to_end"] = {k: {"value": _finite(v), "unit": u, "n": n}
                                for k, (v, u, n) in named.items()}
        report["pass_times_s"] = pass_times
        report["op_times_s"] = [[r.op.kind, round(r.start, 4), r.raw, r.latency] for r in records]
        metrics = {k: named[k][:2] for k in GATED}
        lines = [f"{name:24s} {v:14.6g} {u:6s} n={n}" for name, (v, u, n) in named.items()]

    report_path = os.path.join(OUT_DIR, f"report-{stem}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    env_line = report["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: python {env_line['python']}, "
          f"numpy {env_line['numpy']}, nproc {env_line['nproc']}, "
          f"kernel {', '.join(env_line['kernel_backend'])}")
    print("\n".join(lines))
    for e in errors[:5]:
        print(f"# FAILED {e['input']}: {e['error']}")
    print(f"# regime probes failing: {sum(not p['ok'] for p in probes)}/{len(probes)}; "
          f"report: {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": _finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
