"""The benchmark's workloads: seeded inputs, timed ops and their oracles.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned and its output has been checked.  An op's
latency covers only the library call; the correctness check against an
oracle runs after the clock has stopped.

A workload exposes
  ``pass_ops(i)``  the ops of pass i (the same inputs every pass, in an order
                   the seed may set),
  ``warmup_ops()`` ops run once, untimed, before the first timed pass,
  ``run(op)``      the timed library call, returning its output,
  ``check(op, out)`` None when the output is correct, else the reason,
  ``summary(records)`` per-kind medians for the report.

All library calls look the function up on its module at call time, so that
the span tracer's wrappers are used when tracing is on.
"""
from __future__ import annotations

import math
import os
import random
import statistics
from dataclasses import dataclass

import numpy as np

import hartman
import hartman.cli
from hartman import ATOMIC, GaussianPacketSpec, SquarePotential, verify

# tolerances, as pinned in hartman.verify and tests/test_acceptance.py
ORACLE_REL_TOL = 1e-10  # closed-form amplitudes vs plane-wave matching
BOUND_SLACK = -1e-9  # delay-bound chain and per-channel bounds
P_T_EXCESS_TOL = 1e-10  # P_T <= 1
FLUX_REL_TOL = 1e-3  # momentum-space vs time-domain exit time
LEVINSON_TOL = 1e-2 * math.pi
SMITH_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    kind: str  # the group the op is reported under
    label: str  # the input, as named in error reports
    args: tuple


def count_formula(v0: float, half_width: float) -> int:
    """n_b = floor(2 z0 / pi) + 1 for a well off threshold (hbar = m = 1)."""
    if v0 >= 0:
        return 0
    return math.floor(2.0 * half_width * math.sqrt(2.0 * abs(v0)) / math.pi) + 1


def threshold_depth(n: int, half_width: float) -> float:
    """Depth at which the n-th bound state appears (hbar = m = 1)."""
    return -((n * math.pi) ** 2) / (8.0 * half_width**2)


def _median_by_kind(records, kinds, scale=1.0):
    out = {}
    for kind in kinds:
        lat = [r.latency for r in records if r.op.kind == kind and r.error is None]
        if lat:
            out[kind] = (statistics.median(lat) * scale, len(lat))
    return out


class Presets:
    """The paper's three figure presets, run in-process through the CLI."""

    name = "presets"
    reference = "scalar"  # the reference task (reference.py)
    trace_passes = 2
    kinds = ("fig1", "fig2", "fig3")
    ARGV = {
        "fig1": ("amplitudes", "--preset", "fig1"),
        "fig2": ("delay-sweep", "--preset", "fig2"),
        "fig3": ("packet-sweep", "--preset", "fig3"),
    }
    # the paper's figure parameters, used by the checks (hbar = m = 1)
    FIG1_V0, FIG1_WIDTHS = 5.0, (1.0, 3.0)
    FIG2_HALF_WIDTH, FIG2_ROWS = 1.0, 601
    FIG3_ROWS = 201
    FIG1_SAMPLED_ROWS = 16

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ops = {k: Op(k, f"{' '.join(argv)} --jobs 1", argv) for k, argv in self.ARGV.items()}

    def pass_ops(self, i: int) -> list[Op]:
        order = list(self.kinds)
        random.Random(self.seed * 1_000_003 + i).shuffle(order)
        return [self.ops[k] for k in order]

    def warmup_ops(self) -> list[Op]:
        return [self.ops[k] for k in self.kinds]

    def run(self, op: Op) -> str:
        path = os.path.join(self.workdir, op.kind + ".csv")
        code = hartman.cli.main([*op.args, "--out", path, "--jobs", "1"])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return path

    def check(self, op: Op, path: str) -> str | None:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        col = {name: rows[:, i] for i, name in enumerate(header)}
        return getattr(self, "_check_" + op.kind)(col, len(rows))

    def _check_fig1(self, col, n):
        if set(col["d"]) != set(self.FIG1_WIDTHS):
            return f"widths {sorted(set(col['d']))} != {self.FIG1_WIDTHS}"
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        for i in rng.choice(n, size=min(n, self.FIG1_SAMPLED_ROWS), replace=False):
            pot = SquarePotential(self.FIG1_V0, col["d"][i] / 2.0)
            t_o, r_o = verify.transfer_matrix_amplitudes(pot, ATOMIC, col["k"][i])
            t = complex(col["re_T"][i], col["im_T"][i])
            worst = max(worst, abs(t - t_o) / max(abs(t_o), abs(r_o)))
        if not worst < ORACLE_REL_TOL:
            return f"T differs from plane-wave matching by {worst:.3e} (relative)"
        return None

    def _check_fig2(self, col, n):
        if n != self.FIG2_ROWS:
            return f"{n} rows, expected {self.FIG2_ROWS}"
        margin = float(np.min(col["delta_t"] - col["bound_osc"]))
        if not margin >= BOUND_SLACK:
            return f"delta_t below the oscillatory bound by {-margin:.3e}"
        expected = [count_formula(v0, self.FIG2_HALF_WIDTH) for v0 in col["v0"]]
        wrong = np.nonzero(col["n_b"] != np.array(expected))[0]
        if wrong.size:
            i = wrong[0]
            return f"n_b = {col['n_b'][i]:g} at v0 = {col['v0'][i]:g}, formula {expected[i]}"
        return None

    def _check_fig3(self, col, n):
        if n != self.FIG3_ROWS:
            return f"{n} rows, expected {self.FIG3_ROWS}"
        excess = float(np.max(col["p_t"] - 1.0))
        if not excess < P_T_EXCESS_TOL:
            return f"P_T exceeds 1 by {excess:.3e}"
        window = (col["diverged"] == 0) & (col["t_subtracted"] < 0) & (col["p_t"] > 0.5)
        for target in verify.CROSSING_TARGETS:
            if not np.any(window & (np.abs(col["v0"] - target) <= 0.25)):
                return f"no enhancement window near v0 = {target:+.4f}"
        return None

    def summary(self, records) -> dict:
        return {f"{k}_s": (v, "s", n) for k, (v, n) in
                _median_by_kind(records, self.kinds).items()}


class FluxOracle:
    """The time-domain flux oracle on configs drawn around the
    cross-validation families.  Each pass holds two configs whose time
    window stays on the fine grid (a barrier and a free particle) and one
    broad low-momentum packet on a low barrier whose window reaches the long
    coarse grid."""

    name = "flux-oracle"
    reference = "array"  # the reference task (reference.py)
    trace_passes = 1
    kinds = ("barrier", "free", "coarse")
    # relative v0 and k0 jitter and absolute x0 jitter; small, so that every
    # seed asks for the same work to within a few percent (the window length
    # scales with x0 and, for the coarse config, with v0)
    JITTER = {"barrier": (0.05, 0.02, 0.5), "free": (0.0, 0.01, 0.25),
              "coarse": (0.01, 0.005, 0.25)}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(seed)
        configs = verify.CROSS_VALIDATION_CONFIGS
        family = {
            "barrier": next(c for c in configs if c[0].v0 > 1.0),
            "free": next(c for c in configs if c[0].v0 == 0.0),
            "coarse": next(c for c in configs if 0.0 < c[0].v0 < 1.0),
        }
        self.ops = []
        for kind in self.kinds:
            base_pot, base_spec = family[kind]
            dv, dk, dx = self.JITTER[kind]
            pot = SquarePotential(base_pot.v0 * (1.0 + rng.uniform(-dv, dv)), base_pot.half_width)
            spec = GaussianPacketSpec(base_spec.k0 * (1.0 + rng.uniform(-dk, dk)),
                                      base_spec.delta_p, base_spec.x0 + rng.uniform(-dx, dx))
            label = (f"v0={pot.v0!r} a={pot.half_width!r} k0={spec.k0!r} "
                     f"dp={spec.delta_p!r} x0={spec.x0!r}")
            self.ops.append(Op(kind, label, (spec, pot)))

    def pass_ops(self, i: int) -> list[Op]:
        order = list(self.ops)
        random.Random(self.seed * 1_000_003 + i).shuffle(order)
        return order

    def warmup_ops(self) -> list[Op]:
        return [op for op in self.ops if op.kind == "free"]

    def run(self, op: Op) -> float:
        spec, pot = op.args
        return hartman.mean_exit_time_via_flux(spec, pot, ATOMIC)

    def check(self, op: Op, t_flux: float) -> str | None:
        spec, pot = op.args
        t_out = hartman.mean_exit_time(spec, pot, ATOMIC).t_out
        rel = abs(t_flux - t_out) / abs(t_out)
        if not rel < FLUX_REL_TOL:
            return f"flux oracle {t_flux!r} vs momentum route {t_out!r}: rel diff {rel:.3e}"
        return None

    def summary(self, records) -> dict:
        return {f"flux_{k}_s": (v, "s", n) for k, (v, n) in
                _median_by_kind(records, self.kinds).items()}


class Analysis:
    """Bound states, phase tables, delay bounds and dwell identities on
    seeded barriers, wells and near-threshold wells.

    Parameters follow the ranges of the paper's figures and `hartman verify`:
    |v0| in [0.05, 10], a in [0.2, 2], k in [0.25, 5].  Near-threshold wells
    sit 1-10% (log-uniform, either side) from the depth where the n-th level
    appears, n = 1..3, with |v0| <= 14.  Closer than 1% the unwrapped
    Phi_T(k_min = 1e-4) has not yet reached its k -> 0 limit, so the
    Levinson check says nothing about the library there; plain wells are
    kept out of that band for the same reason.  Below k ~ 0.2 the central
    energy difference in `smith_identity_check` cancels (it sets
    cancellation_warning) and misses the 1e-6 tolerance on about one input
    in 2,000; that regime is a regime probe, not part of the timed loop.
    Each kind is sampled by a Latin hypercube, which keeps the per-seed
    spread of the pass time small.
    """

    name = "analysis"
    reference = "scalar"  # the reference task (reference.py)
    trace_passes = 2
    kinds = ("barrier", "well", "near-threshold")
    PER_KIND = 100
    THRESHOLD_BAND = (1e-2, 1e-1)
    K_MIN, K_MAX = 0.25, 5.0

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        n = self.PER_KIND

        def lhs(dims):
            # one stratified sample per row in each dimension, rows shuffled
            u = (np.arange(n)[:, None] + rng.random((n, dims))) / n
            for j in range(dims):
                u[:, j] = rng.permutation(u[:, j])
            return u

        def k_of(u):
            return self.K_MIN + (self.K_MAX - self.K_MIN) * u

        ops = []
        u = lhs(3)
        for v, a, k in zip(0.05 + 9.95 * u[:, 0], 0.2 + 1.8 * u[:, 1], k_of(u[:, 2])):
            ops.append(self._op("barrier", v, a, k))
        u = lhs(3)
        for v, a, k in zip(-(0.05 + 9.95 * u[:, 0]), 0.2 + 1.8 * u[:, 1], k_of(u[:, 2])):
            ops.append(self._op("well", self._off_threshold(v, a), a, k))
        u = lhs(3)
        lo, hi = self.THRESHOLD_BAND
        for i, (ua, ue, k) in enumerate(zip(u[:, 0], u[:, 1], k_of(u[:, 2]))):
            level = 1 + i % 3
            a = 0.3 * level + (2.0 - 0.3 * level) * ua
            eps = lo * (hi / lo) ** ue
            sign = 1.0 if (i // 3) % 2 else -1.0
            ops.append(self._op("near-threshold",
                                threshold_depth(level, a) * (1.0 + sign * eps), a, k))
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def _off_threshold(self, v0: float, a: float) -> float:
        """Move a well that lies within the threshold band's lower edge of a
        threshold depth to that edge."""
        x = 2.0 * a * math.sqrt(2.0 * abs(v0)) / math.pi
        level = max(1, round(x))
        depth = threshold_depth(level, a)
        ratio = v0 / depth - 1.0
        if abs(ratio) < self.THRESHOLD_BAND[0]:
            return depth * (1.0 + math.copysign(self.THRESHOLD_BAND[0], ratio or 1.0))
        return v0

    @staticmethod
    def _op(kind, v0, a, k):
        return Op(kind, f"v0={float(v0)!r} a={float(a)!r} k={float(k)!r}",
                  (SquarePotential(float(v0), float(a)), float(k)))

    def pass_ops(self, i: int) -> list[Op]:
        return self.ops

    def warmup_ops(self) -> list[Op]:
        return self.ops[:30]

    def run(self, op: Op):
        pot, k = op.args
        spectrum = hartman.solve_bound_states(pot, ATOMIC) if pot.v0 < 0 else None
        levinson = hartman.levinson_check(pot, ATOMIC, k_min=1e-4)
        table = hartman.build_phase_table(pot, ATOMIC, 1e-3)
        record = hartman.causality_bounds(pot, ATOMIC, table, k)
        eigen = hartman.eigenphase_derivative_bounds(pot, ATOMIC, table)
        parities = ("even", "odd")
        dwell = [hartman.dwell_time(pot, ATOMIC, k, p) for p in parities]
        smith = [hartman.smith_identity_check(pot, ATOMIC, k, p) for p in parities]
        return spectrum, levinson, record, eigen, dwell, smith

    def check(self, op: Op, out) -> str | None:
        pot, _ = op.args
        spectrum, levinson, record, eigen, dwell, smith = out
        n_b = count_formula(pot.v0, pot.half_width)
        if spectrum is not None and not (spectrum.n_b == len(spectrum.levels) == n_b):
            return f"{spectrum.n_b} levels ({len(spectrum.levels)} solved), formula {n_b}"
        if not levinson.residual < LEVINSON_TOL:
            return f"Levinson residual {levinson.residual:.3e} >= {LEVINSON_TOL:.3e}"
        margin = record.delta_t - record.bound_tight_osc
        if not margin >= BOUND_SLACK:
            return f"delta_t below the oscillatory bound by {-margin:.3e}"
        if not eigen.passed:
            return f"{len(eigen.violations)} per-channel bound violations"
        worst = max(s.rel_error for s in smith)
        if not worst < SMITH_TOL:
            return f"Smith identity rel error {worst:.3e}"
        if not min(d.tau_d for d in dwell) > 0:
            return "non-positive dwell time"
        return None

    def summary(self, records) -> dict:
        return {f"op_p50_{k}_ms": (v, "ms", n) for k, (v, n) in
                _median_by_kind(records, self.kinds, scale=1e3).items()}


WORKLOADS = {w.name: w for w in (Presets, FluxOracle, Analysis)}
