"""The package namespace and what importing it loads.

`import hartman` loads `errors` and `potential`; every other module is
imported on the first use of one of its names.  The start-up checks run in
fresh interpreters, since this process has long loaded every module.
"""
import ast
import importlib
import os
import subprocess
import sys

import pytest

import hartman

SRC = os.path.dirname(os.path.dirname(hartman.__file__))
SUBMODULES = ("_kernel", "boundstates", "delays", "quadrature", "scattering", "wavepacket")
HEAVY = {f"hartman.{m}" for m in ("boundstates", "delays", "quadrature", "wavepacket")}


# prints the loaded hartman modules when the interpreter exits
REPORT = ("import atexit, sys\n"
          "atexit.register(lambda: print(sorted(m for m in sys.modules\n"
          "                                     if m.split('.')[0] == 'hartman')))\n")


def _imported(code, *argv, cwd=None):
    """The hartman modules loaded by a fresh `python -c code *argv`."""
    proc = subprocess.run([sys.executable, "-c", REPORT + code, *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_import_loads_errors_and_potential_only():
    assert _imported("import hartman, hartman.cli") == {
        "hartman", "hartman.cli", "hartman.errors", "hartman.potential"}


def test_amplitudes_call_adds_scattering_and_kernel():
    base = _imported("import hartman, hartman.cli")
    after = _imported("import hartman, hartman.cli\n"
                      "hartman.amplitudes(hartman.SquarePotential(5.0, 0.5), hartman.ATOMIC, 1.0)")
    assert after - base == {"hartman.scattering", "hartman._kernel"}


def test_amplitudes_preset_skips_the_other_physics(tmp_path):
    """`python -m hartman.cli amplitudes --preset fig1`, run as -m runs it."""
    loaded = _imported("import runpy\n"
                       "runpy.run_module('hartman.cli', run_name='__main__', alter_sys=True)",
                       "amplitudes", "--preset", "fig1", "--out", "fig1.csv", cwd=tmp_path)
    assert "hartman.scattering" in loaded
    assert not loaded & HEAVY
    assert (tmp_path / "fig1.csv").stat().st_size > 0


def test_submodules_resolve_through_bare_import():
    """Each submodule is an attribute of the package after `import hartman`
    alone, as it was when the package imported them all."""
    code = ("import hartman\n"
            f"for name in {SUBMODULES!r}:\n"
            "    assert getattr(hartman, name) is sys.modules['hartman.' + name], name\n")
    assert _imported(code) >= {f"hartman.{m}" for m in SUBMODULES}


def test_public_names_are_their_module_objects():
    """Each name of __all__, cached or resolved anew, is its module's object."""
    for name in hartman.__all__:
        module = importlib.import_module(f"hartman.{hartman._MODULE_OF[name]}")
        assert getattr(hartman, name) is getattr(module, name), name
        assert hartman.__getattr__(name) is getattr(module, name), name


def test_dir_and_star_import_cover_all():
    assert set(hartman.__all__) <= set(dir(hartman))
    assert "__version__" in dir(hartman)
    namespace = {}
    exec("from hartman import *", namespace)
    assert set(hartman.__all__) <= set(namespace)
    for name in hartman.__all__:
        assert namespace[name] is getattr(hartman, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'hartman' has no attribute 'nope'$"):
        hartman.nope
    assert not hasattr(hartman, "nope")
