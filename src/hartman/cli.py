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
The module parses, dispatches (`DATASETS`) and writes: the rows come from a
phase table and `_kernel.scatter_grid`, `delays.delay_rows` and
`wavepacket.packet_rows`, the sweeps over the depths of `v0_grid`.  Each
command imports the module it calls when it runs, so `amplitudes` loads
neither `delays` nor `wavepacket`; the commands import NumPy and `main` does
not, so --help and a usage error load none of it, and `json` loads only to
write JSON.  Every command runs in one process; --jobs N is accepted and
checked (N >= 1) but changes nothing.

Exit codes: 0 success, 1 invariant failure, 2 invalid input, 3 numerical
non-convergence.
"""
from __future__ import annotations

import argparse
import math
import numbers
import os
import sys

from .errors import ConvergenceError
from .potential import PhysicalConstants, SquarePotential

PRESETS = {
    "fig1": {
        "v0": 5.0, "width": (1.0, 3.0), "k_min": 0.01, "k_max": 6.0,
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


def _json_value(x):
    """A row value as JSON: bool, int, or a float, with null for NaN and
    infinity (a diverged packet row), which JSON cannot represent."""
    if isinstance(x, bool):
        return x
    if isinstance(x, numbers.Integral):  # int or a NumPy integer
        return int(x)
    return float(x) if math.isfinite(x) else None


def write_dataset(args: argparse.Namespace, header: list[str], rows: list[tuple]) -> None:
    """Emit rows as CSV (UTF-8, LF, one header row) or JSON (metadata + rows,
    non-finite values as null)."""
    if args.format == "csv":
        # one %-format string per dataset, from the types of its first row
        fmt = ",".join("%d" if isinstance(x, numbers.Integral)
                       else f"%.{args.precision}g" for x in next(iter(rows), ()))
        text = "\n".join([",".join(header)] + [fmt % tuple(row) for row in rows]) + "\n"
    else:
        import json

        meta = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
        payload = {
            "metadata": meta,
            "rows": [{name: _json_value(x) for name, x in zip(header, row)} for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = _resolve_out(args.out)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_amplitudes(args: argparse.Namespace, consts: PhysicalConstants) -> list[tuple]:
    """Amplitudes and closed-form phases, one row per table grid point and
    width (--width is one width; a preset may give several).

    The table starts from --samples uniform points on [k_min, k_max] and
    bisects where the phases move fast; with the adaptive flag off, only the
    uniform points are emitted (fixed-size datasets).
    """
    import numpy as np
    from ._kernel import scatter_grid
    from .scattering import build_phase_table

    if args.width is None:
        raise ValueError("amplitudes requires --width (or a preset)")
    k_min, k_hi, samples = args.k_min, args.k_max, args.samples
    rows = []
    for w in np.atleast_1d(args.width).tolist():
        pot = SquarePotential(v0=args.v0, half_width=w / 2.0)
        table = build_phase_table(pot, consts, k_min, k_hi, samples=samples)
        cols = table.k_grid, table.phi_t, table.delta0, table.delta1
        if not args.adaptive:
            keep = np.isin(table.k_grid, np.linspace(k_min, k_hi, samples))
            cols = [c[keep] for c in cols]
        t = scatter_grid(pot.strength(consts), pot.width, cols[0])[0].tolist()
        # Python's abs below: np.abs(t)**2 differs in the last bit
        rows += zip([w] * len(t), cols[0].tolist(), [z.real for z in t], [z.imag for z in t],
                    [abs(z) ** 2 for z in t], *(c.tolist() for c in cols[1:]))
    return rows


AMPLITUDE_HEADER = ["d", "k", "re_T", "im_T", "abs_T2", "phi_T", "delta0", "delta1"]
DELAY_HEADER = ["v0", "delta_t", "bound_osc", "bound_simple", "n_b"]
PACKET_HEADER = ["v0", "p_t", "t_out", "t_classical", "t_subtracted",
                 "classical_defined", "diverged"]


def v0_grid(v0_min: float, v0_max: float, v0_step: float) -> list[float]:
    """The depths of a sweep: v0_min + n v0_step for n = 0, 1, ... up to v0_max."""
    if None in (v0_min, v0_max, v0_step):
        raise ValueError("sweep requires --v0-min, --v0-max, --v0-step (or a preset)")
    if not all(map(math.isfinite, (v0_min, v0_max, v0_step))):
        raise ValueError("--v0-min, --v0-max and --v0-step must be finite")
    if v0_step <= 0:
        raise ValueError("--v0-step must be positive")
    if v0_max < v0_min:
        raise ValueError("--v0-max must not be below --v0-min")
    # the largest n with v0_min + n step <= v0_max, up to 1e-9 of a step of rounding
    n = math.floor((v0_max - v0_min) / v0_step + 1e-9)
    return [v0_min + i * v0_step for i in range(n + 1)]


def cmd_delay_sweep(args: argparse.Namespace, consts: PhysicalConstants) -> list[tuple]:
    from .delays import delay_rows

    return delay_rows(v0_grid(args.v0_min, args.v0_max, args.v0_step), args.k,
                      args.width, consts)


def cmd_packet_sweep(args: argparse.Namespace, consts: PhysicalConstants) -> list[tuple]:
    from .wavepacket import GaussianPacketSpec, packet_rows

    if None in (args.k0, args.delta_p, args.x0):
        raise ValueError("packet sweep requires --k0, --delta-p, --x0 (or a preset)")
    v0s = v0_grid(args.v0_min, args.v0_max, args.v0_step)
    spec = GaussianPacketSpec(k0=args.k0, delta_p=args.delta_p, x0=args.x0)
    return packet_rows(v0s, spec, args.width, consts)


# each dataset command's rows and their CSV header
DATASETS = {
    "amplitudes": (cmd_amplitudes, AMPLITUDE_HEADER),
    "delay-sweep": (cmd_delay_sweep, DELAY_HEADER),
    "packet-sweep": (cmd_packet_sweep, PACKET_HEADER),
}


def cmd_verify(args) -> int:
    from .verify import run_all_checks

    results = run_all_checks(include_slow=not args.skip_slow)
    if args.format == "json":
        import json

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
                   help="accepted and checked (at least 1) but without effect: "
                   "every command runs in one process")


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
                       help="skip the flux-oracle, two width and fig3 threshold-window checks")
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
        preset = PRESETS.get(args.preset, {})
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
        rows_of, header = DATASETS[args.command]
        write_dataset(args, header, rows_of(args, consts))
        return 0
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
