"""Every fixed CLI query of the benchmark, run in-process, must reproduce the
exit code and stdout SHA-256 digest recorded in perfbench/golden.json, and so
must the witness range, run in chunks."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys

import pytest

from chardeg import cli

from conftest import REPO_ROOT


def _load_workloads():
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
GOLDEN_DOC = json.loads(WORKLOADS.GOLDEN_PATH.read_text())
GOLDEN = GOLDEN_DOC["commands"]
VARIANTS = WORKLOADS.all_query_variants()


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def test_every_subcommand_has_a_golden_query():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {argv[0] for argv in VARIANTS}


@pytest.mark.parametrize("argv", VARIANTS, ids=[" ".join(a)[:60] for a in VARIANTS])
def test_query_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # relative --data paths
    rc, out = _run(argv)
    expected = GOLDEN[" ".join(argv)]
    assert rc == expected["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("order", ["in-order", "reversed"])
def test_witness_range_chunks_match_golden(order):
    # In order, each chunk continues the (n!)**13 carry of the one before;
    # reversed, every chunk starts where the carry cannot help.
    lo, hi, k = WORKLOADS.WITNESS_FROM, WORKLOADS.WITNESS_TO, 8
    cuts = [lo + i * (hi + 1 - lo) // k for i in range(k + 1)]
    chunks = list(zip(cuts, cuts[1:]))
    outputs = {}
    for start, stop in chunks if order == "in-order" else reversed(chunks):
        rc, outputs[start] = _run(["prop42", "--from", str(start), "--to", str(stop - 1), "--jsonl"])
        assert rc == 0
    joined = "".join(outputs[start] for start, _ in chunks)
    assert hashlib.sha256(joined.encode()).hexdigest() == GOLDEN_DOC["witness_range_sha256"]
