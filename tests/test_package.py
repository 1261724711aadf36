import importlib
import pkgutil

import pytest

import chardeg

MODULES = sorted(m.name for m in pkgutil.iter_modules(chardeg.__path__))


def test_library_modules_found():
    assert {"exact_arith", "partitions", "alternating", "lie_type", "degree_data",
            "structure_bounds", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # The package root re-exports nothing, so a stale __all__ entry would
    # otherwise go unnoticed; perfbench's tracer also wraps the functions
    # listed in structure_bounds.__all__.
    module = importlib.import_module(f"chardeg.{name}")
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, missing
