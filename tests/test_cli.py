"""CLI behavior: datasets, determinism, presets, config files, exit codes."""
import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hartman.cli
from hartman import (GaussianPacketSpec, mean_exit_time, threshold_depths,
                     transmission_probability, verify)
from hartman.cli import build_parser, main
from hartman.delays import delay_rows
from hartman.potential import ATOMIC, SquarePotential
from hartman.verify import transfer_matrix_amplitudes


def run_cli(args):
    """main's exit code, also when argparse ends the run with SystemExit."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_amplitudes_free_case_all_zero_phase(tmp_path):
    out = tmp_path / "amp.csv"
    code = run_cli([
        "amplitudes", "--v0", "0", "--width", "2", "--k-min", "0.1",
        "--k-max", "5", "--samples", "50", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["d", "k", "re_T", "im_T", "abs_T2", "phi_T", "delta0", "delta1"]
    phi = [float(r[5]) for r in rows]
    assert max(abs(x) for x in phi) < 1e-12
    assert all(float(r[4]) == pytest.approx(1.0, abs=1e-14) for r in rows)


def test_amplitudes_column_matches_matching_oracle(tmp_path):
    out = tmp_path / "amp.csv"
    run_cli([
        "amplitudes", "--v0", "5", "--width", "1", "--k-min", "0.5",
        "--k-max", "3", "--samples", "40", "--out", str(out),
    ])
    _, rows = read_csv(out)
    pot = SquarePotential(5.0, 0.5)
    for r in rows[::7]:
        k = float(r[1])
        t_o, _ = transfer_matrix_amplitudes(pot, ATOMIC, k)
        assert float(r[4]) == pytest.approx(abs(t_o) ** 2, rel=1e-9)


def test_fig1_t_is_scatter_grid_t_bitwise(tmp_path):
    """The amplitude rows' T, formed once from `scatter_grid` over the rows'
    k, is `scatter_grid`'s T bit for bit, on a barrier (tunnelling and
    propagating points) and a well, both with refined tables; --no-adaptive
    emits the adaptive rows at the uniform points, byte for byte."""
    for v0, width in ((5.0, 6.0), (-5.0, 4.0)):
        pot = SquarePotential(v0, width / 2.0)
        opts = ["amplitudes", "--v0", str(v0), "--width", str(width), "--k-min", "1e-3",
                "--k-max", str(hartman.default_k_max(pot, ATOMIC)), "--samples", "400"]
        assert run_cli(opts + ["--out", str(tmp_path / "all.csv")]) == 0
        assert run_cli(opts + ["--no-adaptive", "--out", str(tmp_path / "uniform.csv")]) == 0
        _, rows = read_csv(tmp_path / "all.csv")
        _, uniform = read_csv(tmp_path / "uniform.csv")
        k, re_t, im_t = (np.array([float(r[i]) for r in rows]) for i in (1, 2, 3))
        t = hartman._kernel.scatter_grid(pot.strength(ATOMIC), pot.width, k)[0]
        assert np.array_equal(re_t, t.real) and np.array_equal(im_t, t.imag)
        grid = np.linspace(1e-3, hartman.default_k_max(pot, ATOMIC), 400)
        assert uniform == [r for r, x in zip(rows, np.isin(k, grid)) if x]
        assert len(uniform) == 400 < len(rows)


def test_byte_identical_reruns(tmp_path):
    args = [
        "delay-sweep", "--v0-min", "-0.5", "--v0-max", "0.5", "--v0-step", "0.1",
        "--k", "0.1", "--width", "2",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_roundtrip_exact(tmp_path):
    out = tmp_path / "d.csv"
    run_cli([
        "delay-sweep", "--v0-min", "1.0", "--v0-max", "3.0", "--v0-step", "0.5",
        "--out", str(out),
    ])
    header, rows = read_csv(out)
    # default precision (17 significant digits) round-trips doubles exactly,
    # and a row does not depend on the rest of the v0 grid
    for r in rows:
        (row,) = delay_rows([float(r[0])], 0.1, 2.0, ATOMIC)
        for got, want in zip(r[1:4], row[1:4]):
            assert float(got) == want


def test_reduced_precision_roundtrip_within_one_ulp(tmp_path):
    out = tmp_path / "p12.csv"
    run_cli([
        "delay-sweep", "--v0-min", "1.0", "--v0-max", "2.0", "--v0-step", "0.5",
        "--precision", "12", "--out", str(out),
    ])
    _, rows = read_csv(out)
    for r in rows:
        (row,) = delay_rows([float(r[0])], 0.1, 2.0, ATOMIC)
        for got, want in zip(r[1:4], row[1:4]):
            # one ulp at 12 emitted significant digits
            ulp = 10.0 ** (math.floor(math.log10(abs(want))) - 11)
            assert abs(float(got) - want) <= ulp


def _fmt_reference(x, precision):
    """One value as the CSV writer formats it, value by value."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), f".{precision}g")


@pytest.mark.parametrize("precision", [17, 12, 6])
def test_write_dataset_matches_per_value_format(precision, capsys):
    rows = [
        (True, 3, np.int64(-7), 0.1, np.float64(-2.5e-300), math.nan, np.float64(7.0)),
        (False, -1, np.int64(0), -0.0, math.inf, -math.inf, np.float64(1 / 3)),
    ]
    header = list("abcdefg")
    config = argparse.Namespace(command="x", format="csv", precision=precision, out=None)
    hartman.cli.write_dataset(config, header, rows)
    want = [",".join(header)] + [
        ",".join(_fmt_reference(x, precision) for x in row) for row in rows
    ]
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    hartman.cli.write_dataset(config, header, [])
    assert capsys.readouterr().out == "a,b,c,d,e,f,g\n"


def test_delay_sweep_barrier_rows_obey_simple_bound(tmp_path):
    out = tmp_path / "d.csv"
    run_cli([
        "delay-sweep", "--v0-min", "0.5", "--v0-max", "5.0", "--v0-step", "0.5",
        "--out", str(out),
    ])
    _, rows = read_csv(out)
    for r in rows:
        assert float(r[1]) >= float(r[3]) - 1e-12  # delta_t >= bound_simple
        assert int(r[4]) == 0


def test_fig1_preset_emits_two_width_series(tmp_path):
    """fig1's widths are a preset default like any other: one row series per
    width, and JSON metadata records both."""
    out = tmp_path / "fig1.json"
    code = run_cli([
        "amplitudes", "--preset", "fig1", "--samples", "60", "--k-max", "2.0",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["metadata"]["width"] == [1.0, 3.0]
    assert sorted({row["d"] for row in payload["rows"]}) == [1.0, 3.0]
    assert max(row["k"] for row in payload["rows"]) <= 2.0 + 1e-12


def test_width_flag_replaces_fig1_widths(tmp_path):
    """flag > preset: an explicit --width gives rows for that width only, as
    the same options without the preset do, and JSON records that width."""
    opts = ["--samples", "60", "--k-max", "2.0", "--format", "json"]
    with_preset, plain = tmp_path / "p.json", tmp_path / "w.json"
    assert run_cli(["amplitudes", "--preset", "fig1", "--width", "2"] + opts
                   + ["--out", str(with_preset)]) == 0
    assert run_cli(["amplitudes", "--v0", "5", "--width", "2"] + opts
                   + ["--out", str(plain)]) == 0
    got, want = json.loads(with_preset.read_text()), json.loads(plain.read_text())
    assert {row["d"] for row in got["rows"]} == {2.0}
    assert got["metadata"]["width"] == 2.0 and got["rows"] == want["rows"]


def test_no_adaptive_emits_exact_sample_count(tmp_path):
    out = tmp_path / "u.csv"
    run_cli([
        "amplitudes", "--v0", "5", "--width", "2", "--k-min", "0.05",
        "--k-max", "4", "--samples", "64", "--no-adaptive", "--out", str(out),
    ])
    _, rows = read_csv(out)
    ks = np.array([float(r[1]) for r in rows])
    # uniform base grid restricted to the requested range, no refinement rows
    assert np.allclose(np.diff(ks), ks[1] - ks[0], rtol=1e-12)
    assert len(ks) == 64 and ks[0] == 0.05 and ks[-1] == 4.0


def test_fig2_preset_overridable(tmp_path):
    out = tmp_path / "fig2.csv"
    code = run_cli([
        "delay-sweep", "--preset", "fig2", "--v0-min", "-0.4",
        "--v0-max", "-0.2", "--v0-step", "0.05", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["v0", "delta_t", "bound_osc", "bound_simple", "n_b"]
    assert len(rows) == 5
    assert all(int(r[4]) == 1 for r in rows)


def test_packet_sweep_flags_divergent_row(tmp_path):
    out = tmp_path / "p.csv"
    code = run_cli([
        "packet-sweep", "--preset", "fig3", "--v0-min", "-0.05",
        "--v0-max", "0.05", "--v0-step", "0.05", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "v0", "p_t", "t_out", "t_classical", "t_subtracted",
        "classical_defined", "diverged",
    ]
    by_v0 = {float(r[0]): r for r in rows}
    assert by_v0[0.0][6] == "1"  # flagged, not fatal
    assert math.isnan(float(by_v0[0.0][2]))
    assert by_v0[-0.05][6] == "0"
    assert float(by_v0[-0.05][4]) < 0  # advancement window


def test_packet_sweep_free_and_threshold_rows_diverge(tmp_path):
    """The free row (v0 = 0) and a well exactly at its first bound-state
    threshold are both flagged, each with its own P_T."""
    v_thr = threshold_depths(1.0, 1, ATOMIC)[0]
    out = tmp_path / "p.csv"
    assert run_cli([
        "packet-sweep", "--preset", "fig3", "--v0-min", repr(v_thr),
        "--v0-max", "0", "--v0-step", repr(-v_thr), "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [v_thr, 0.0]
    spec = GaussianPacketSpec(math.pi / 8, 1.0, -41.0)
    for r in rows:
        assert r[6] == "1"
        assert math.isnan(float(r[2])) and math.isnan(float(r[4]))
        assert float(r[1]) == transmission_probability(spec, SquarePotential(float(r[0]), 1.0))


def test_fig3_kernel_call_budget(tmp_path, monkeypatch):
    """fig3's 201 rows run in lockstep, one kernel call per block of each
    quadrature round, each row's time moment starts from the panels its P_T
    evaluated, each panel costs the 15 nodes of one Gauss-Kronrod pair, and
    both integrals end in the closed-form tail below p_c: 20 calls over
    35,511 points in all, and no call over 4,096 points."""
    sizes = []
    inner = hartman._kernel.transmission_grid

    def counting(g, width, k):
        sizes.append(np.size(k))
        return inner(g, width, k)

    monkeypatch.setattr(hartman._kernel, "transmission_grid", counting)
    assert run_cli(["packet-sweep", "--preset", "fig3", "--out", str(tmp_path / "f.csv")]) == 0
    assert len(sizes) <= 20
    assert sum(sizes) <= 36_000
    assert max(sizes) <= 4096


def test_fig3_rows_match_single_rows(tmp_path):
    """Every fig3 row from the lockstep sweep equals, bit for bit, what its
    own `mean_exit_time` call gives: a panel's sums do not depend on the
    panels reduced beside it in a block."""
    out = tmp_path / "f.csv"
    assert run_cli(["packet-sweep", "--preset", "fig3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 201
    spec = GaussianPacketSpec(math.pi / 8, 1.0, -41.0)
    for r in rows:
        if r[6] == "1":
            continue
        rep = mean_exit_time(spec, SquarePotential(float(r[0]), 1.0))
        assert [float(x) for x in r[1:5]] == [rep.p_t, rep.t_out, rep.t_classical,
                                              rep.t_subtracted]


def test_json_output_with_metadata(tmp_path):
    out = tmp_path / "p.json"
    run_cli([
        "packet-sweep", "--preset", "fig3", "--v0-min", "-0.3",
        "--v0-max", "-0.3", "--v0-step", "1.0", "--format", "json",
        "--out", str(out),
    ])
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["metadata"]["k0"] == pytest.approx(math.pi / 8)
    assert payload["metadata"]["command"] == "packet-sweep"
    (row,) = payload["rows"]
    assert row["p_t"] > 0.5
    assert row["t_subtracted"] < 0


def test_fig3_json_is_strict_with_null_for_diverged_rows(tmp_path):
    """fig3's JSON parses without NaN or Infinity constants; the diverged
    free row carries null times, and every other row a finite time."""
    out = tmp_path / "fig3.json"
    assert run_cli(["packet-sweep", "--preset", "fig3", "--format", "json",
                    "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    rows = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)["rows"]
    assert len(rows) == 201
    diverged = [r for r in rows if r["diverged"]]
    assert [r["v0"] for r in diverged] == [0.0]
    assert diverged[0]["t_out"] is None and diverged[0]["t_subtracted"] is None
    assert math.isfinite(diverged[0]["p_t"])
    assert all(math.isfinite(r["t_out"]) for r in rows if not r["diverged"])


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HARTMAN_OUT_DIR", str(tmp_path))
    run_cli([
        "delay-sweep", "--v0-min", "1.0", "--v0-max", "1.0", "--v0-step", "1.0",
        "--out", "rel.csv",
    ])
    assert (tmp_path / "rel.csv").exists()


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v0-min=1.0\nv0-max=2.0\nv0_step=0.5\nk=0.2\n", encoding="utf-8")
    out = tmp_path / "c.csv"
    run_cli([
        "delay-sweep", "--config", str(cfg), "--v0-step", "1.0",
        "--out", str(out),
    ])
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [1.0, 2.0]  # step overridden to 1.0


# the options a config file may set: every option but --preset and --config
CONFIG_OPTIONS = [
    (command, name)
    for command in ("amplitudes", "delay-sweep", "packet-sweep")
    for name in vars(build_parser().parse_args([command]))
    if name not in ("command", "preset", "config")
]

# a small valid run of each subcommand, as {option: flag value}
BASE_RUNS = {
    "amplitudes": {"v0": "5", "width": "1", "k_min": "0.5", "k_max": "3",
                   "samples": "30"},
    "delay-sweep": {"v0_min": "-0.5", "v0_max": "0.5", "v0_step": "0.25"},
    "packet-sweep": {"v0_min": "-0.4", "v0_max": "-0.2", "v0_step": "0.1",
                     "k0": "0.39", "delta_p": "1", "x0": "-41"},
}


def _flags(options):
    return [arg for name, value in options.items()
            for arg in ("--" + name.replace("_", "-"), value)]


@pytest.mark.parametrize("command, name", CONFIG_OPTIONS,
                         ids=[f"{c}-{n}" for c, n in CONFIG_OPTIONS])
def test_config_key_matches_flag(tmp_path, command, name):
    """name=value in a config file resolves exactly as the option's flag
    does, and adaptive=off as --no-adaptive: the JSON metadata agree."""
    out = tmp_path / "run.json"
    base = {**BASE_RUNS[command], "format": "json", "out": str(out)}

    def metadata(argv):
        assert run_cli([command, *argv]) == 0
        return json.loads(out.read_text(encoding="utf-8"))["metadata"]

    resolved = metadata(_flags(base))
    assert name in resolved  # every option has a value: a default or the base run's
    old = resolved[name]
    rest = _flags({k: v for k, v in base.items() if k != name})
    cfg = tmp_path / "run.cfg"
    if isinstance(old, bool):  # a switch: off by its --no- flag
        flag, line = [f"--no-{name}"], f"{name}=off"
    else:
        # strings (format, out) keep the base run's value; numbers move off it
        value = (old if isinstance(old, str) else str(old + 1) if isinstance(old, int)
                 else repr(old + 0.125))
        flag, line = _flags({name: value}), f"{name}={value}"
    cfg.write_text(line + "\n", encoding="utf-8")
    by_flag = metadata(rest + flag)
    assert metadata(rest + ["--config", str(cfg)]) == by_flag
    assert isinstance(old, str) or by_flag[name] != old


def test_config_file_bad_value_exits_2(tmp_path, capsys):
    """A value its option's type cannot read exits 2, as a bad flag does."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k=abc\n", encoding="utf-8")
    out = tmp_path / "c.csv"
    assert run_cli(["delay-sweep", "--config", str(cfg), "--v0-min", "0",
                    "--v0-max", "1", "--v0-step", "0.5", "--out", str(out)]) == 2
    assert "abc" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["delay-sweep", "--k", "abc"]) == 2


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k 0.2\n", encoding="utf-8")
    assert run_cli(["delay-sweep", "--config", str(cfg)]) == 2
    assert "need key=value" in capsys.readouterr().err


def test_config_file_missing_exits_2(tmp_path, capsys):
    """A --config path that does not exist ended in a FileNotFoundError
    traceback; it exits 2 with one error line and writes nothing."""
    out = tmp_path / "c.csv"
    assert run_cli(["delay-sweep", "--config", str(tmp_path / "missing.cfg"), "--v0-min",
                    "0", "--v0-max", "1", "--v0-step", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "missing.cfg" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-0.1", "nan", "inf"])
def test_delay_sweep_rejects_bad_k(tmp_path, capsys, k):
    """k = 0 ended in a ZeroDivisionError traceback; a negative or NaN k
    wrote wrong rows and exited 0."""
    out = tmp_path / "d.csv"
    assert run_cli(["delay-sweep", "--v0-min", "0", "--v0-max", "1", "--v0-step", "0.5",
                    "--k", k, "--out", str(out)]) == 2
    assert "--k must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k_max", ["inf", "nan"])
def test_amplitudes_rejects_non_finite_k_max(tmp_path, capsys, k_max):
    """--k-max inf ended in a ConvergenceError, exit 3, that blamed an opaque
    barrier."""
    out = tmp_path / "a.csv"
    assert run_cli(["amplitudes", "--v0", "5", "--width", "1", "--k-max", k_max,
                    "--out", str(out)]) == 2
    assert "k_max < inf" in capsys.readouterr().err
    assert not out.exists()


def test_delay_sweep_opaque_barrier_exits_3(tmp_path, capsys):
    """An opaque barrier wrote a NaN delay and bound and exited 0."""
    out = tmp_path / "d.csv"
    assert run_cli(["delay-sweep", "--v0-min", "5", "--v0-max", "5", "--v0-step", "1",
                    "--width", "800", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    """Misspelt keys used to be dropped, running at the default k and d."""
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("kk=0.2\nwidht=5\n", encoding="utf-8")
    code = run_cli([
        "delay-sweep", "--config", str(cfg), "--v0-min", "0", "--v0-max", "1",
        "--v0-step", "0.5", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "kk" in err and "widht" in err
    assert not (tmp_path / "c.csv").exists()
    cfg.write_text("format=xml\n", encoding="utf-8")  # a known key, a bad value
    assert run_cli(["delay-sweep", "--config", str(cfg), "--v0-min", "0",
                    "--v0-max", "1", "--v0-step", "0.5"]) == 2


def test_json_metadata_holds_defaults(tmp_path):
    out = tmp_path / "d.json"
    assert run_cli([
        "delay-sweep", "--v0-min", "0", "--v0-max", "1", "--v0-step", "1",
        "--format", "json", "--out", str(out),
    ]) == 0
    meta = json.loads(out.read_text(encoding="utf-8"))["metadata"]
    assert meta["k"] == 0.1 and meta["width"] == 2.0
    assert "adaptive" not in meta  # an amplitudes option


def test_sweep_grid_stops_at_v0_max(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli([
        "delay-sweep", "--v0-min", "0", "--v0-max", "1", "--v0-step", "0.6",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [0.0, 0.6]


@pytest.mark.parametrize("v0_min, v0_max", [("1", "0"), ("0", "inf")])
def test_sweep_grid_rejects_bad_bounds(tmp_path, v0_min, v0_max):
    """Reversed bounds gave a header-only file; an infinite one a traceback."""
    out = tmp_path / "d.csv"
    assert run_cli([
        "delay-sweep", "--v0-min", v0_min, "--v0-max", v0_max, "--v0-step", "0.5",
        "--out", str(out),
    ]) == 2
    assert not out.exists()


PACKET_ROWS_3 = [
    "packet-sweep", "--preset", "fig3", "--v0-min", "-0.4", "--v0-max", "-0.2",
    "--v0-step", "0.1",
]


def test_jobs_parallel_matches_serial(tmp_path):
    """--jobs is accepted but changes nothing: every packet sweep runs its
    rows in lockstep in one process, so any N >= 1 writes the same bytes."""
    a, b, c = tmp_path / "serial.csv", tmp_path / "two.csv", tmp_path / "many.csv"
    assert run_cli(PACKET_ROWS_3 + ["--jobs", "1", "--out", str(a)]) == 0
    assert run_cli(PACKET_ROWS_3 + ["--jobs", "2", "--out", str(b)]) == 0
    assert run_cli(PACKET_ROWS_3 + ["--jobs", "1000000", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_rejected(jobs):
    for args in (
        ["delay-sweep", "--v0-min", "0", "--v0-max", "1", "--v0-step", "1"],
        PACKET_ROWS_3,
        ["amplitudes", "--v0", "5", "--width", "1", "--samples", "20"],
    ):
        assert run_cli(args + ["--jobs", jobs]) == 2


def test_cli_import_loads_no_numpy():
    """`import hartman.cli` leaves NumPy unloaded, so --help and usage errors
    do not pay its import."""
    src = os.path.dirname(os.path.dirname(hartman.__file__))
    code = "import sys, hartman.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_starts_no_process_pool():
    """Importing the CLI loads neither multiprocessing nor concurrent.futures."""
    src = os.path.dirname(os.path.dirname(hartman.__file__))
    code = ("import sys, hartman.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_packet_sweep_right_start_exits_2(tmp_path, capsys, jobs):
    """A packet that starts right of the potential fails every row: exit 2
    with the first row's message, and no output file."""
    out = tmp_path / "p.csv"
    assert run_cli(PACKET_ROWS_3 + ["--x0", "0.5", "--jobs", jobs, "--out", str(out)]) == 2
    assert "packet must start left of the potential" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, code", [
    (["--width", "1e-200"], 0),  # was an OverflowError in the resonance loop
    (["--delta-p", "1e-200"], 2),  # was a ZeroDivisionError in the tail
    (["--delta-p", "1e-160"], 2),  # was P_T = 0: the support rounded to p0
    (["--delta-p", "1e150"], 3),  # hung in the resonance loop
    (["--delta-p", "1e200"], 2),  # was an OverflowError
    (["--width", "1.5e3", "--x0=-1e4"], 3),  # more resonances than panels
])
def test_packet_sweep_extreme_inputs_exit_typed(tmp_path, capsys, args, code):
    """fig3 at extreme widths and momentum spreads ends with rows or a typed
    error and its exit code, not a traceback or a hang."""
    out = tmp_path / "p.csv"
    assert run_cli(["packet-sweep", "--preset", "fig3", *args, "--out", str(out)]) == code
    assert out.exists() == (code == 0)


def test_packet_sweep_raises_first_row_error(tmp_path, monkeypatch, capsys):
    """Row -0.3 fails to converge (NaN |D|^2) and row -0.2 transmits nothing
    (|D|^2 = inf, T = 0): the sweep exits as a serial one would, with the
    first of them."""
    inner = hartman._kernel.transmission_grid

    def poisoned(g, width, k):
        den, *rest = inner(g, width, k)
        bad, dark = np.isclose(g, -0.6, atol=1e-9), np.isclose(g, -0.4, atol=1e-9)
        return np.where(bad, np.nan, np.where(dark, np.inf, den)), *rest

    monkeypatch.setattr(hartman._kernel, "transmission_grid", poisoned)
    out = tmp_path / "p.csv"
    assert run_cli(PACKET_ROWS_3 + ["--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_input_exit_code():
    assert run_cli(["amplitudes", "--v0", "5", "--width", "-1"]) == 2
    assert run_cli(["delay-sweep", "--v0-min", "0", "--v0-max", "1",
                    "--v0-step", "-0.1"]) == 2
    assert run_cli(["packet-sweep", "--v0-min", "0", "--v0-max", "0",
                    "--v0-step", "1", "--k0", "1", "--delta-p", "0.1",
                    "--x0", "5"]) == 2  # packet starts right of the barrier


@pytest.mark.parametrize("args, message", [
    (["amplitudes", "--v0", "5"], "requires --width"),
    (["delay-sweep", "--v0-min", "0", "--v0-step", "0.5"], "requires --v0-min"),
    (["packet-sweep", "--v0-min", "0", "--v0-max", "1", "--v0-step", "0.5", "--k0", "1",
      "--delta-p", "0.1"], "requires --k0"),
], ids=["amplitudes_width", "sweep_grid", "packet_spec"])
def test_missing_values_exit_2(capsys, args, message):
    """A value with no default, from no flag, preset or config file."""
    assert run_cli(args) == 2
    assert message in capsys.readouterr().err


def _assert_typed_error_alone(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    assert code == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_opaque_barrier_error_without_numpy_warnings(capsys):
    """The kernel's overflow on an opaque barrier ends in the typed error
    (exit 3) alone, one `error:` line with no NumPy RuntimeWarning ahead of
    it."""
    _assert_typed_error_alone(
        ["amplitudes", "--v0", "5", "--width", "200", "--k-min", "0.5", "--k-max", "1",
         "--samples", "10"], capsys)


@pytest.mark.parametrize("argv", [
    ["delay-sweep", "--v0-min", "1", "--v0-max", "800", "--v0-step", "1", "--width", "60",
     "--k", "0.1"],
    ["packet-sweep", "--v0-min", "1", "--v0-max", "50", "--v0-step", "7", "--k0", "0.5",
     "--delta-p", "0.1", "--x0", "-400", "--width", "300"],
], ids=lambda argv: argv[0])
def test_sweep_opaque_barrier_error_without_numpy_warnings(argv, capsys):
    """The same single typed error in each sweep command."""
    _assert_typed_error_alone(argv, capsys)


def test_precision_floor_enforced():
    assert run_cli([
        "delay-sweep", "--v0-min", "0", "--v0-max", "1", "--v0-step", "1",
        "--precision", "6",
    ]) == 2


def test_verify_fast_suite_passes(capsys):
    code = run_cli(["verify", "--skip-slow"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_verify_broken_kernel_fails(capsys, monkeypatch):
    """A NaN from the kernel fails checks: exit code 1 and FAIL lines.  A
    check that reaches the NaN through `require_finite` raises, and fails
    under its function's name while the rest of the suite still runs.  The
    NaN goes into `phase_parts`, the real-k entry that `scatter_grid`, the
    phase tables and the delays all read, in every part but |D|^2: NumPy's
    complex division by a NaN raises an 'invalid' RuntimeWarning, which
    would end the run before any check reports."""
    phase_parts = hartman._kernel.phase_parts

    def one_nan(g, d, k):
        out = tuple(np.array(x) for x in phase_parts(g, d, k))
        for i, x in enumerate(out):
            if i != 2:
                x.flat[x.size // 2] = np.nan
        return out

    monkeypatch.setattr(hartman._kernel, "phase_parts", one_nan)
    code = run_cli(["verify", "--skip-slow"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15 and lines[-1].endswith("/14 checks passed")
    assert sum(line.startswith("FAIL  k -> 0 phase slopes") for line in lines) == 1
    for check in (verify.check_oracle_equivalence, verify.check_removable_singularity,
                  verify.check_phases_and_derivatives, verify.check_crossings_near_thresholds,
                  verify.check_hartman_plateau,
                  verify.check_levinson, verify.check_smith_identity_and_dwell):
        assert sum(line.startswith(f"FAIL  {check.__name__}  [error=")
                   for line in lines) == 1, check.__name__


def test_verify_json_format(capsys):
    code = run_cli(["verify", "--skip-slow", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["passed"] for entry in payload)
    assert any("unitarity" in entry["name"] for entry in payload)
    assert all(isinstance(entry["seconds"], float) and entry["seconds"] >= 0
               for entry in payload)
