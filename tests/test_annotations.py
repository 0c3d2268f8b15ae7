"""Every annotation in the package must resolve to a real name."""
import importlib
import inspect
import pkgutil
import typing

import pytest

import hartman

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hartman.__path__, prefix="hartman.")
)


def _functions(module):
    """Functions defined in the module, and the methods of its classes."""
    for _, obj in inspect.getmembers(module):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for _, meth in inspect.getmembers(obj, inspect.isfunction):
                if meth.__module__ == module.__name__:
                    yield meth


def test_every_module_is_listed():
    assert {"hartman._kernel", "hartman.cli", "hartman.verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    functions = list(_functions(module))
    assert functions
    for fn in functions:
        typing.get_type_hints(fn)  # raises NameError on an unimported name
