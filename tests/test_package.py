import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import chardeg
from chardeg import alternating, cli, degree_data, lie_type, partitions
from chardeg import structure_bounds
from conftest import REPO_ROOT

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


def test_no_module_state():
    # A function keeps its state in locals or in what it returns: no
    # chardeg module has a global or nonlocal statement.
    found = {
        f"{name}:{node.lineno}"
        for name in MODULES
        for node in ast.walk(ast.parse((REPO_ROOT / "src" / "chardeg" / f"{name}.py").read_text()))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    }
    assert found == set()


def _imports(roots: set[str]) -> set[str]:
    # "module:line:root" for each import of a root module in roots, at the
    # top of a chardeg module or inside a function.
    found = set()
    for name in MODULES:
        tree = ast.parse((REPO_ROOT / "src" / "chardeg" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = {node.module.split(".")[0]}
            else:
                continue
            found |= {f"{name}:{node.lineno}:{root}" for root in imported & roots}
    return found


def test_no_private_name_crosses_modules():
    # Each module keeps its underscore names to itself: no chardeg module
    # imports one from, or reads one off, another.  Prime powers, say, are
    # decided once, by exact_arith.prime_power.
    found = set()
    for name in MODULES:
        tree = ast.parse((REPO_ROOT / "src" / "chardeg" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "chardeg"
                                                      or node.module.startswith("chardeg.")):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in MODULES:
                names = [node.attr]
            else:
                continue
            found |= {f"{name}:{node.lineno}:{n}" for n in names if n.startswith("_")}
    assert found == set()
    assert not {"_factor_prime_power", "_perfect_power_root"} & set(vars(lie_type))


def test_no_fractions_or_decimal_import():
    # A ratio is a pair of ints from parse to verdict.
    assert _imports({"fractions", "decimal"}) == set()


def test_only_build_parser_imports_argparse():
    # cli reads the plain form itself and imports argparse only inside
    # build_parser, for every other argv.
    tree = ast.parse((REPO_ROOT / "src" / "chardeg" / "cli.py").read_text())
    build = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
    )
    found = _imports({"argparse"})
    assert len(found) == 1
    name, line, _ = found.pop().split(":")
    assert name == "cli" and build.lineno < int(line) <= build.end_lineno


def test_only_structure_bounds_imports_json():
    # Reading a chief series is the one use of json; cli writes its
    # documents with its own writer.
    assert {found.split(":")[0] for found in _imports({"json"})} == {"structure_bounds"}


# Names perfbench/tracer.py wraps that the package no longer has: the
# tracer lists each as absent and its metrics read 0.  A refactor that drops
# another traced name fails test_tracer_spans_resolve until it is named here.
STALE_SPANS = {
    "cli.hooks",
    "cli.partition_degree",
    "cli.parse_partition",
    "alternating.hooks",
    "lie_type.check_steinberg_gap",
    "lie_type.check_min_ratio",
    "lie_type.cyclotomic",
    "lie_type.eval_poly",
    "lie_type.order",
    "lie_type.steinberg_degree",
    "lie_type.beta_degree",
}


def test_tracer_spans_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = {
        f"{mod}.{attr}"
        for mod, attr, _ in tracer.SPANS + tracer.GENERATORS
        if not callable(getattr(importlib.import_module(f"chardeg.{mod}"), attr, None))
    }
    assert absent == STALE_SPANS


def _records():
    """One instance of every record type, each with one of its fields."""
    spec = lie_type.make_spec(lie_type.Family.LINEAR, 4, rank=3)
    factor = structure_bounds.ChiefFactorDescriptor("A5", 60, 1, False, False)
    table = degree_data.DegreeTable("A5", (1, 3, 3, 4, 5), 60)
    report = alternating.check_witness(7)
    return [
        (partitions.parse_partition("3,2,2"), "parts"),
        (report, "passed"),
        (spec, "q"),
        (lie_type.check_point(spec).gap_pair, "beta_degree"),
        (lie_type.Exclusion(spec.family, 2, 4, "PSL_2"), "reason"),
        (lie_type.check_point(spec), "order"),
        (table, "degrees"),
        (factor, "factor_order"),
        (cli.run(["conjugate", "--partition", "2,1"]), "status"),
    ]


RECORDS = _records()


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_cli_start_up_imports():
    # Every command pays for what importing chardeg.cli loads: dataclasses
    # (with inspect, ast and dis) and hashlib cost about 17 ms a process,
    # argparse (with gettext and locale) about 3 ms and json about 1.5 ms.
    code = (
        "import json, sys; base = set(sys.modules); import chardeg.cli; "
        "print(json.dumps(sorted(set(sys.modules) - base)))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "chardeg.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "hashlib", "argparse", "gettext",
                         "locale", "json"}


def test_imports_make_no_compile_calls():
    # typing.NamedTuple compiles every field annotation it gets as a string
    # (a ForwardRef), which each record field was under postponed
    # annotations; the records take real types instead.  Compiles of a
    # module's own source, made when its bytecode cache is missing or stale,
    # are the import system's and are not counted.
    code = (
        "import builtins, json\n"
        "calls = []\n"
        "real = builtins.compile\n"
        "def counting(source, filename, *args, **kwargs):\n"
        "    if not str(filename).endswith('.py'):\n"
        "        calls.append(repr(source)[:60])\n"
        "    return real(source, filename, *args, **kwargs)\n"
        "builtins.compile = counting\n"
        + "".join(f"import chardeg.{name}\n" for name in MODULES)
        + "print(json.dumps(calls))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []


def test_bench_files_keep_summaries_only():
    # A BENCH_*.json file keeps the summary of its runs; the raw per-run
    # records, which no code reads, stay in git history.
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert paths
    with_records = [p.name for p in paths if "records" in json.loads(p.read_text())]
    assert with_records == []
