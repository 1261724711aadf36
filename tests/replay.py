"""Every printed verdict re-decided from the decimals printed beside it, or
from the integers of the command's argv, with Python ints, built powers, >
and >=.  This module imports no chardeg module, so a fault in the kernel,
the registry or the renderer cannot hide behind the same fault here.  Each
function raises AssertionError on a mismatch.

Beyond each verdict, every printed degree must divide the printed order, as
a character degree divides the group order: the verdicts hold by margins of
many digits, so without that a changed digit would still replay.
"""

import csv
import io
import json
import math

# The subcommands whose golden output query() replays; integer_query
# replays the last five from their argv.
INTEGER_COMMANDS = ("thmB", "prop23", "out-bound", "maroti", "prop32")
COMMANDS = ("sweep", "thm21", "lemma61", "sporadic-check", "prop42", *INTEGER_COMMANDS)


def _flag(value) -> bool:
    # A JSON boolean, or the text of a CSV cell.
    return value if isinstance(value, bool) else {"True": True, "False": False}[value]


def _degrees_divide(order: int, *degrees: int) -> None:
    for d in degrees:
        assert d >= 1 and order % d == 0, f"degree {d} does not divide the order {order}"


def _status(verdict: bool) -> str:
    return "pass" if verdict else "fail"


def lie_entry(rec: dict) -> bool:
    """One sweep entry, from JSON or a CSV row; True when it was checked."""
    if rec["status"] == "excluded":
        assert rec["reason"], rec
        return False
    assert rec["status"] == "ok", rec
    order, alpha, beta, ratio_alpha, ratio_beta = (
        int(rec[key]) for key in ("order", "alpha", "beta", "ratio_alpha", "ratio_beta")
    )
    _degrees_divide(order, alpha, beta, ratio_alpha, ratio_beta)
    assert _flag(rec["passed_pow14"]) == (alpha ** 14 > beta ** 14 * order), rec
    assert _flag(rec["passed_ratio165"]) == (5 * ratio_alpha >= 16 * ratio_beta), rec
    return True


def sweep(out: str, form: str) -> None:
    """The stdout of a sweep, form "json", "jsonl" or "csv"."""
    if form == "csv":
        entries = list(csv.DictReader(io.StringIO(out)))
    elif form == "jsonl":
        entries = [json.loads(line) for line in out.splitlines()]
    else:
        doc = json.loads(out)
        entries = doc["entries"]
    checked = [e for e in entries if lie_entry(e)]
    if form == "json":
        all_passed = all(
            _flag(e["passed_pow14"]) and _flag(e["passed_ratio165"]) for e in checked
        )
        assert (doc["points"], doc["checked"], doc["excluded"]) == (
            len(entries), len(checked), len(entries) - len(checked)
        )
        assert (doc["all_passed"], doc["status"]) == (all_passed, _status(all_passed))


def gap_query(command: str, doc: dict) -> None:
    """thm21: alpha**14 > beta**14 * order; lemma61: 5 * alpha >= 16 * beta."""
    order, alpha, beta = int(doc["order"]), int(doc["alpha"]), int(doc["beta"])
    _degrees_divide(order, alpha, beta)
    assert doc["ratio"] == f"{alpha}/{beta}"
    verdict = alpha ** 14 > beta ** 14 * order if command == "thm21" else 5 * alpha >= 16 * beta
    assert (doc["passed"], doc["status"]) == (verdict, _status(verdict)), doc


def sporadic_check(doc: dict) -> None:
    """Each checked table: alpha**14 > beta**14 * order."""
    failures = []
    checked = [r for r in doc["records"] if r["status"] == "checked"]
    for rec in checked:
        order, alpha, beta = int(rec["order"]), int(rec["alpha"]), int(rec["beta"])
        _degrees_divide(order, alpha, beta)
        assert rec["passed"] == (alpha ** 14 > beta ** 14 * order), rec
        if not rec["passed"]:
            failures.append(rec["name"])
    assert (doc["tables"], doc["checked"]) == (len(doc["records"]), len(checked))
    assert (doc["failures"], doc["status"]) == (failures, _status(not failures))


def hook_product(parts: list[int]) -> int:
    """The product of the hook lengths arm + leg + 1 over the Young grid."""
    columns = [sum(1 for row in parts if row > j) for j in range(parts[0])]
    product = 1
    for i, row in enumerate(parts):
        for j in range(row):
            product *= (row - j - 1) + (columns[j] - i - 1) + 1
    return product


def witness_record(rec: dict) -> None:
    """(n!)**13 > (H * (n - 1))**14, with H from the printed partition."""
    n, parts = rec["n"], [int(p) for p in rec["witness"].split(",")]
    assert sum(parts) == n and parts == sorted(parts, reverse=True), rec
    h = hook_product(parts)
    assert int(rec["hook_product"]) == h, rec
    lhs, rhs = math.factorial(n) ** 13, (h * (n - 1)) ** 14
    assert rec["passed"] == (lhs > rhs), rec
    assert (rec["margin"]["lhs_bits"], rec["margin"]["rhs_bits"]) == (
        lhs.bit_length(), rhs.bit_length()
    ), rec


def prop42(doc: dict) -> None:
    records = doc["records"]
    for rec in records:
        witness_record(rec)
    assert [r["n"] for r in records] == list(range(doc["from"], doc["to"] + 1))
    all_passed = all(r["passed"] for r in records)
    assert (doc["all_passed"], doc["status"]) == (all_passed, _status(all_passed))


def _ratio(text: str) -> tuple[int, int]:
    # "a" or "a/b"; a ratio's inequality holds or fails alike in any terms.
    a, _, b = text.partition("/")
    return int(a), int(b or 1)


def integer_query(argv: list[str], doc: dict) -> None:
    """A command whose inputs are the integers of its argv, re-decided from them.

    thmB: a**21 >= b**21 * index; prop23: a**14 * d**14 >= c**14 * b**14 * N;
    out-bound: x**den <= y**num; maroti: B**(d-1) <= (d!)**(n-1) < (B+1)**(d-1);
    prop32: X**100 <= N**143 < (X+1)**100.
    """
    command, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if command in ("maroti", "prop32"):
        bound = int(doc["bound"])
        if command == "maroti":
            n, d = int(flags["--n"]), int(flags["--d"])
            k, target = d - 1, math.factorial(d) ** (n - 1)
        else:
            k, target = 100, int(flags["--order"]) ** 143
        assert bound ** k <= target < (bound + 1) ** k, doc
        assert doc["status"] == "pass", doc
        return
    if command == "thmB":
        (a, b), index = _ratio(flags["--rat"]), int(flags["--index"])
        verdict = a ** 21 >= b ** 21 * index
    elif command == "prop23":
        (a, b), (c, d) = _ratio(flags["--rat-g"]), _ratio(flags["--rat-gn"])
        verdict = a ** 14 * d ** 14 >= c ** 14 * b ** 14 * int(flags["--order-n"])
    else:
        x, y, num, den = (int(flags[f]) for f in ("--x", "--y", "--num", "--den"))
        assert (doc["x"], doc["y"], doc["num"], doc["den"]) == (str(x), str(y), num, den), doc
        verdict = x ** den <= y ** num
    assert (doc["holds"], doc["status"]) == (verdict, _status(verdict)), doc


def query(argv: list[str], out: str) -> None:
    """The stdout of one command whose name is in COMMANDS."""
    command = argv[0]
    if command == "sweep":
        sweep(out, "csv" if "--csv" in argv else "jsonl" if "--jsonl" in argv else "json")
    elif command in ("thm21", "lemma61"):
        gap_query(command, json.loads(out))
    elif command == "sporadic-check":
        sporadic_check(json.loads(out))
    elif command == "prop42":
        prop42(json.loads(out))
    elif command in INTEGER_COMMANDS:
        integer_query(argv, json.loads(out))
    else:
        raise KeyError(f"no replay for {command}")
