"""Public name lists of the widthlab modules."""

import importlib
import inspect
import pkgutil

import pytest

import widthlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(widthlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(f"widthlab.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []


def test_every_module_is_listed():
    assert {"bounds", "cli", "decomp", "graphs", "hales", "oracles", "suites", "widthcalc"} <= set(MODULES)


EXPORTING = [m for m in MODULES if hasattr(importlib.import_module(f"widthlab.{m}"), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_public_function_and_class_is_listed(name):
    module = importlib.import_module(f"widthlab.{name}")
    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
