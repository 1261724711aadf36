"""Every fixed CLI query of the benchmark, run in-process, must reproduce the
exit code and stdout SHA-256 digest recorded in perfbench/golden.json, and so
must the witness range, run in chunks, and each sweep of the lie-sweep
workload, with its point counts."""

import contextlib
import hashlib
import io
import json

import pytest

from chardeg import cli

from conftest import REPO_ROOT, load_workloads

WORKLOADS = load_workloads()
GOLDEN_DOC = json.loads(WORKLOADS.GOLDEN_PATH.read_text())
GOLDEN = GOLDEN_DOC["commands"]
VARIANTS = WORKLOADS.all_query_variants()
SWEEP_FAMILIES = list(WORKLOADS.CLASSICAL_RANK_MIN) + list(WORKLOADS.EXCEPTIONAL)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def test_every_subcommand_has_a_golden_query():
    assert {row[0] for row in cli.command_table()} == {argv[0] for argv in VARIANTS}


@pytest.mark.parametrize("argv", VARIANTS, ids=[" ".join(a)[:60] for a in VARIANTS])
def test_query_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # relative --data paths
    rc, out = _run(argv)
    expected = GOLDEN[" ".join(argv)]
    assert rc == expected["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("order", ["in-order", "reversed"])
def test_witness_range_chunks_match_golden(order):
    # Each chunk raises its own first factorial and carries (n!)**13 only
    # within itself, so the joined output is the same in either order.
    lo, hi, k = WORKLOADS.WITNESS_FROM, WORKLOADS.WITNESS_TO, 8
    cuts = [lo + i * (hi + 1 - lo) // k for i in range(k + 1)]
    chunks = list(zip(cuts, cuts[1:]))
    outputs = {}
    for start, stop in chunks if order == "in-order" else reversed(chunks):
        rc, outputs[start] = _run(["prop42", "--from", str(start), "--to", str(stop - 1), "--jsonl"])
        assert rc == 0
    joined = "".join(outputs[start] for start, _ in chunks)
    assert hashlib.sha256(joined.encode()).hexdigest() == GOLDEN_DOC["witness_range_sha256"]


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_lie_sweep_matches_golden(family):
    argv = WORKLOADS.sweep_argv(family)
    rc, out = _run(argv)
    expected = GOLDEN[" ".join(argv)]
    assert rc == expected["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]
    lines = out.splitlines()
    checked = sum('"status": "ok"' in line for line in lines)
    assert {"points": len(lines), "checked": checked, "excluded": len(lines) - checked} == (
        expected["counts"]
    )
    if family == "linear":
        # The ratio pair of this point is the override (39, 12); the Steinberg
        # pair next to it keeps alpha = 27.
        (line,) = [l for l in lines if l.startswith('{"family": "linear", "rank": 3, "q": 3,')]
        assert line == (
            '{"family": "linear", "rank": 3, "q": 3, "status": "ok", "order": "5616", '
            '"alpha": "27", "beta": "12", "beta_label": "(n-1,1)", "passed_pow14": true, '
            '"ratio_alpha": "39", "ratio_beta": "12", "passed_ratio165": true}'
        )
