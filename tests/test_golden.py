"""Every fixed CLI query of the benchmark, run in-process, must reproduce the
exit code and stdout SHA-256 digest recorded in perfbench/golden.json."""

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
GOLDEN = json.loads(WORKLOADS.GOLDEN_PATH.read_text())["commands"]
VARIANTS = WORKLOADS.all_query_variants()


@pytest.mark.parametrize("argv", VARIANTS, ids=[" ".join(a)[:60] for a in VARIANTS])
def test_query_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # relative --data paths
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    expected = GOLDEN[" ".join(argv)]
    assert rc == expected["rc"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == expected["sha256"]
