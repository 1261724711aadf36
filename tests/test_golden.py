"""Every fixed CLI query of the benchmark, run in-process, must reproduce the
exit code and stdout SHA-256 digest recorded in perfbench/golden.json, and so
must the witness range, run in chunks, and each sweep of the lie-sweep
workload, with its point counts.  The verdicts of the sweeps and of the
sweep, thm21, lemma61, sporadic-check and prop42 queries also replay from
their printed numbers, and those of the thmB, prop23, out-bound, maroti and
prop32 queries from their argv (tests/replay.py)."""

import ast
import contextlib
import hashlib
import io
import json
import re

import pytest

from chardeg import cli

import replay
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
    if rc == 0 and argv[0] in replay.COMMANDS:  # an error document has no verdict
        replay.query(argv, out)


def test_replay_imports_no_chardeg():
    tree = ast.parse((REPO_ROOT / "tests" / "replay.py").read_text())
    roots = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert roots == {"csv", "io", "json", "math"}


def test_replay_fails_on_one_changed_digit():
    # Each digit of the E8 alpha, of a sweep entry's alpha, of a witness's
    # hook product and of a maroti bound, changed alone, breaks the replay.
    for argv, key in ((["thm21", "--family", "E8", "--q", "2"], "alpha"),
                      (["sweep", "--families", "E8", "--q-max", "2"], "alpha"),
                      (["prop42", "--n", "40"], "hook_product"),
                      (["maroti", "--n", "30", "--d", "8"], "bound")):
        rc, out = _run(argv)
        replay.query(argv, out)
        (value,) = re.findall(f'"{key}": "([0-9]+)"', out)
        for i, digit in enumerate(value):
            changed = f"{value[:i]}{(int(digit) + 1) % 10}{value[i + 1:]}"
            with pytest.raises(AssertionError):
                replay.query(argv, out.replace(f'"{key}": "{value}"', f'"{key}": "{changed}"'))


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
    replay.sweep(out, "jsonl")
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
