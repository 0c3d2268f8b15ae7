"""The calling contract between the library and the benchmark in perfbench/.

perfbench/ is read, not imported as a package: its workloads call the CLI
with fixed arguments, and its tracer finds the functions it measures by name.
A change that breaks either shows up here instead of as a failed benchmark
op or a `null` per-layer metric.
"""
import importlib.util
import inspect
import pathlib
import sys

import pytest

import hartman.cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module of its own, registered while it runs."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_presets_argv_runs(workloads, tmp_path):
    """Each preset op, with the --jobs 1 the benchmark appends, exits 0."""
    for kind, argv in workloads.Presets.ARGV.items():
        out = tmp_path / f"{kind}.csv"
        assert hartman.cli.main([*argv, "--out", str(out), "--jobs", "1"]) == 0
        assert out.stat().st_size > 0


def test_every_per_layer_metric_is_measurable(workloads, tracer):
    """With the modules a benchmark run loads, every function a per-layer
    metric needs is traced, so a traced run reports no metric as missing."""
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert tracer.layer_metrics(t)[1] == []


def test_traced_signatures():
    """The tracer reads a main call's subcommand from its first argument and
    a write_dataset call's row count from its third."""
    assert list(inspect.signature(hartman.cli.main).parameters)[0] == "argv"
    assert list(inspect.signature(hartman.cli.write_dataset).parameters)[:3] == [
        "args", "header", "rows"]
