"""Command-line front end: sweeps, figure presets, CSV/JSON emission.

Subcommands
-----------
amplitudes    transmission/eigenphase table over a wavenumber grid
delay-sweep   time delay and causality bounds versus potential strength
packet-sweep  transmission probability and subtracted passage time per depth
verify        run the cross-module invariant suite

Every option has a long flag; values may also come from a key=value config
file (--config), whose keys must be options of the subcommand other than
--preset and --config.  Precedence is flag > config file > preset > default;
each option's type and default live in its add_argument call, and JSON output
echoes every resolved value.  Output goes to
--out (CSV or JSON; stdout when omitted), resolved against $HARTMAN_OUT_DIR
for relative paths.  Identical configurations produce byte-identical files.
`amplitudes` and `delay-sweep` are a few vectorized kernel calls each.
`packet-sweep` runs its rows in lockstep, one kernel call per block of each
quadrature round over all open rows; --jobs N gives each of up to N worker
processes one contiguous chunk of rows.

Exit codes: 0 success, 1 invariant failure, 2 invalid input, 3 numerical
non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import _kernel
from .boundstates import count_bound_states
from .delays import oscillatory_delay_bound
from .errors import ConvergenceError, ThresholdDivergenceError
from .potential import PhysicalConstants, SquarePotential
from .scattering import build_phase_table, eigenphases, require_finite
from .quadrature import _first_error
from .wavepacket import (GaussianPacketSpec, PassageTimeReport, _exit_times,
                         classical_reference_time)

PRESETS = {
    "fig1": {
        "v0": 5.0, "widths": (1.0, 3.0), "k_min": 0.01, "k_max": 6.0,
        "samples": 1200,
    },
    "fig2": {
        "v0_min": -2.0, "v0_max": 1.0, "v0_step": 0.005, "k": 0.1, "width": 2.0,
    },
    "fig3": {
        "v0_min": -1.6, "v0_max": 0.4, "v0_step": 0.01,
        "k0": math.pi / 8.0, "delta_p": 1.0, "x0": -41.0, "width": 2.0,
    },
}


def _resolve_out(out: str | None):
    if out is None:
        return None
    base = os.environ.get("HARTMAN_OUT_DIR", "")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def write_dataset(args: argparse.Namespace, header: list[str], rows: list[tuple]) -> None:
    """Emit rows as CSV (UTF-8, LF, one header row) or JSON (metadata + rows)."""
    if args.format == "csv":
        # one %-format string per dataset, from the types of its first row
        fmt = ",".join("%d" if isinstance(x, (bool, int, np.integer))
                       else f"%.{args.precision}g" for x in next(iter(rows), ()))
        text = "\n".join([",".join(header)] + [fmt % tuple(row) for row in rows]) + "\n"
    else:
        meta = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
        payload = {
            "metadata": meta,
            "rows": [
                {
                    name: (bool(x) if isinstance(x, bool) else
                           int(x) if isinstance(x, (int, np.integer)) else
                           float(x))
                    for name, x in zip(header, row)
                }
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = _resolve_out(args.out)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_amplitudes(args: argparse.Namespace, consts: PhysicalConstants,
                   widths=None) -> list[tuple]:
    """Amplitudes and closed-form phases, one row per table grid point.

    The table starts from --samples uniform points on [k_min, k_max] and
    bisects where the phases move fast; with the adaptive flag off, only the
    uniform points are emitted (fixed-size datasets).
    """
    widths = (args.width,) if args.width is not None or not widths else widths  # flag > preset
    if None in widths:
        raise ValueError("amplitudes requires --width (or a preset)")
    k_min, k_hi, samples = args.k_min, args.k_max, args.samples
    rows = []
    for w in widths:
        pot = SquarePotential(v0=args.v0, half_width=w / 2.0)
        table = build_phase_table(pot, consts, k_min, k_hi, samples=samples)
        keep = args.adaptive | np.isin(table.k_grid, np.linspace(k_min, k_hi, samples))
        for i in np.nonzero(keep)[0]:
            k = table.k_grid[i]
            tt = complex(table.t[i])
            rows.append(
                (w, float(k), tt.real, tt.imag, abs(tt) ** 2,
                 float(table.phi_t[i]), float(table.delta0[i]),
                 float(table.delta1[i]))
            )
    return rows


AMPLITUDE_HEADER = ["d", "k", "re_T", "im_T", "abs_T2", "phi_T", "delta0", "delta1"]
DELAY_HEADER = ["v0", "delta_t", "bound_osc", "bound_simple", "n_b"]
PACKET_HEADER = ["v0", "p_t", "t_out", "t_classical", "t_subtracted",
                 "classical_defined", "diverged"]


def delay_rows(v0s, k: float, width: float, consts: PhysicalConstants) -> list[tuple]:
    """(v0, delta_t, bound_osc, bound_simple, n_b) per well depth or barrier
    height, from one kernel call over the whole v0 grid."""
    if not 0 < k < math.inf:
        raise ValueError(f"--k must be positive and finite, got {k}")
    pots = [SquarePotential(v0=v0, half_width=width / 2.0) for v0 in v0s]
    g = np.array([pot.strength(consts) for pot in pots])
    t, r, dphi, _, _ = _kernel.scatter_grid(g, width, np.full(len(g), k))
    m, hbar = consts.mass, consts.hbar
    delta_t = m * dphi / (hbar * k)
    osc = oscillatory_delay_bound(k, width / 2.0, *eigenphases(t, r), consts)
    require_finite(delta_t, osc, t=t)
    simple = -m * width / (hbar * k)
    return [
        (pot.v0, dt, bound, simple, count_bound_states(pot, consts))
        for pot, dt, bound in zip(pots, delta_t.tolist(), osc.tolist())
    ]


def _packet_rows(args: argparse.Namespace, consts: PhysicalConstants,
                 v0s: list[float]) -> list[tuple]:
    """Packet-sweep rows at depths v0s, in lockstep.  A row whose exit time
    diverges is flagged with its P_T; the first other error is raised."""
    spec = GaussianPacketSpec(k0=args.k0, delta_p=args.delta_p, x0=args.x0)
    pots = [SquarePotential(v0=v0, half_width=args.width / 2.0) for v0 in v0s]
    rows = []
    for v0, pot, (p_t, rep) in zip(v0s, pots, _exit_times(spec, pots, consts)):
        diverged = isinstance(rep, ThresholdDivergenceError)
        if diverged:
            t_cl, defined = classical_reference_time(spec, pot, consts)
            rep = PassageTimeReport(_first_error([p_t])[0], math.nan, t_cl, math.nan, defined)
        rep = _first_error([rep])[0]
        rows.append((v0, rep.p_t, rep.t_out, rep.t_classical, rep.t_subtracted,
                     rep.classical_defined, diverged))
    return rows


def _v0_grid(args: argparse.Namespace) -> list[float]:
    if None in (args.v0_min, args.v0_max, args.v0_step):
        raise ValueError("sweep requires --v0-min, --v0-max, --v0-step (or a preset)")
    if not all(map(math.isfinite, (args.v0_min, args.v0_max, args.v0_step))):
        raise ValueError("--v0-min, --v0-max and --v0-step must be finite")
    if args.v0_step <= 0:
        raise ValueError("--v0-step must be positive")
    if args.v0_max < args.v0_min:
        raise ValueError("--v0-max must not be below --v0-min")
    # the largest n with v0_min + n step <= v0_max, up to 1e-9 of a step of rounding
    n = math.floor((args.v0_max - args.v0_min) / args.v0_step + 1e-9)
    return [args.v0_min + i * args.v0_step for i in range(n + 1)]


def cmd_delay_sweep(args: argparse.Namespace, consts: PhysicalConstants) -> list[tuple]:
    return delay_rows(_v0_grid(args), args.k, args.width, consts)


def cmd_packet_sweep(args: argparse.Namespace, consts: PhysicalConstants) -> list[tuple]:
    if None in (args.k0, args.delta_p, args.x0):
        raise ValueError("packet sweep requires --k0, --delta-p, --x0 (or a preset)")
    v0s = _v0_grid(args)
    # one contiguous chunk of rows per worker process, each run in lockstep
    workers = min(args.jobs, len(v0s), os.cpu_count() or 1)
    if workers == 1:
        return _packet_rows(args, consts, v0s)
    chunks = [chunk.tolist() for chunk in np.array_split(v0s, workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rows = pool.map(partial(_packet_rows, args, consts), chunks)
        return [row for chunk in rows for row in chunk]


def cmd_verify(args) -> int:
    from .verify import run_all_checks

    results = run_all_checks(include_slow=not args.skip_slow)
    if args.format == "json":
        payload = [
            {"name": r.name, "passed": bool(r.passed), "seconds": r.seconds,
             "detail": r.detail}
            for r in results
        ]
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
        n_fail = sum(not r.passed for r in results)
        sys.stdout.write(
            f"{len(results) - n_fail}/{len(results)} checks passed\n"
        )
    return 0 if all(r.passed for r in results) else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--out", help="output path (stdout if omitted); "
                   "relative paths resolve against $HARTMAN_OUT_DIR")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--precision", type=int, default=17,
                   help="significant digits for CSV numbers (default %(default)s)")
    p.add_argument("--config", help="key=value file with defaults; flags override")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for packet-sweep, each one chunk of "
                   "rows (default %(default)s; at most one per row and per CPU)")


def _file_defaults(args: argparse.Namespace) -> dict:
    """The --config file's key=value pairs, checked against the subcommand's
    options; argparse converts each string with its option's own type."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    except OSError as exc:
        raise ValueError(f"cannot read --config file: {exc}") from None
    values = {}
    for line in lines:
        if "=" not in line:
            raise ValueError(f"bad config line (need key=value): {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    unknown = sorted(set(values) - (set(vars(args)) - {"command", "config", "preset"}))
    if unknown:
        raise ValueError(f"{args.config}: {args.command} takes no config key "
                         + ", ".join(unknown))
    if "adaptive" in values:  # a store_false flag, which has no type
        values["adaptive"] = values["adaptive"].lower() not in ("0", "false", "no", "off")
    return values


def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The hartman parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="hartman",
        description="Square-barrier/well scattering, causality bounds, and "
        "wave-packet passage times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_amp = sub.add_parser("amplitudes", help="amplitude/phase table over k")
    p_amp.add_argument("--v0", type=float, default=0.0)
    p_amp.add_argument("--width", type=float)
    p_amp.add_argument("--k-min", dest="k_min", type=float, default=0.01)
    p_amp.add_argument("--k-max", dest="k_max", type=float, default=6.0)
    p_amp.add_argument("--samples", type=int, default=1200)
    p_amp.add_argument("--no-adaptive", dest="adaptive", action="store_false",
                       help="emit only the uniform base grid, not the "
                       "adaptively refined points")
    p_amp.add_argument("--preset", choices=("fig1",))
    _add_common(p_amp)

    p_del = sub.add_parser("delay-sweep", help="time delay vs potential strength")
    p_del.add_argument("--v0-min", dest="v0_min", type=float)
    p_del.add_argument("--v0-max", dest="v0_max", type=float)
    p_del.add_argument("--v0-step", dest="v0_step", type=float)
    p_del.add_argument("--k", type=float, default=0.1)
    p_del.add_argument("--width", type=float, default=2.0)
    p_del.add_argument("--preset", choices=("fig2",))
    _add_common(p_del)

    p_pkt = sub.add_parser("packet-sweep", help="passage time vs potential strength")
    p_pkt.add_argument("--v0-min", dest="v0_min", type=float)
    p_pkt.add_argument("--v0-max", dest="v0_max", type=float)
    p_pkt.add_argument("--v0-step", dest="v0_step", type=float)
    p_pkt.add_argument("--k0", type=float)
    p_pkt.add_argument("--delta-p", dest="delta_p", type=float)
    p_pkt.add_argument("--x0", type=float)
    p_pkt.add_argument("--width", type=float, default=2.0)
    p_pkt.add_argument("--preset", choices=("fig3",))
    _add_common(p_pkt)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--skip-slow", action="store_true",
                       help="skip the packet-integral checks")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def main(argv=None) -> int:
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        preset = dict(PRESETS.get(args.preset, {}))
        widths = preset.pop("widths", None)
        if preset or args.config:
            # flag > config file > preset > default: the preset's and the
            # file's values become the subcommand's defaults, and argv is
            # parsed again over them
            file_values = _file_defaults(args) if args.config else {}
            commands[args.command].set_defaults(**{**preset, **file_values})
            args = parser.parse_args(argv)
        if args.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {args.format!r}")
        if args.precision < 12:
            raise ValueError("--precision must be at least 12 significant digits")
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        consts = PhysicalConstants(hbar=args.hbar, mass=args.mass)
        # an opaque barrier overflows the kernel's intermediates on the way to
        # a typed error; that error, not NumPy's warnings, is the report
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "amplitudes":
                rows = cmd_amplitudes(args, consts, widths=widths)
                write_dataset(args, AMPLITUDE_HEADER, rows)
            elif args.command == "delay-sweep":
                rows = cmd_delay_sweep(args, consts)
                write_dataset(args, DELAY_HEADER, rows)
            elif args.command == "packet-sweep":
                rows = cmd_packet_sweep(args, consts)
                write_dataset(args, PACKET_HEADER, rows)
            else:  # pragma: no cover
                parser.error(f"unknown command {args.command}")
        return 0
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
