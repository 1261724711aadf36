"""Command-line front end.

Every verifier and calculator is one row of the subcommand table in
build_parser, with JSON output on stdout (JSON-lines for streamed sweeps with
--jsonl, CSV with --csv).  Big integers are serialized as decimal strings.
Exit codes: 0 pass, 1 fail, 2 error (conflicting flags included),
3 inconclusive.  --digits (default 50) sets the starting interval precision
for the checks involving e and pi.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import alternating, degree_data, lie_type, structure_bounds
from .exact_arith import cyclotomic
from .lie_type import Exclusion, Family
from .partitions import degree as partition_degree, enumerate_gamma, hooks, parse_partition

EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "inconclusive": 3}


@dataclass
class CommandResult:
    status: str
    payload: dict
    lines: list[str] | None = None  # pre-rendered output (jsonl / csv)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def _precision(args) -> int:
    if args.digits < 1:
        raise ValueError(f"--digits must be a positive integer, got {args.digits}")
    return args.digits


def _verdict_status(verdict: bool | None) -> str:
    if verdict is None:
        return "inconclusive"
    return "pass" if verdict else "fail"


def _spec_from_args(args) -> lie_type.GroupSpec:
    fam = Family(args.family)
    rank = getattr(args, "rank", None)
    return lie_type.make_spec(fam, args.q, rank)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_hook(args) -> CommandResult:
    lam = parse_partition(args.partition)
    data = hooks(lam)
    return CommandResult(
        "pass",
        {
            "partition": str(lam),
            "hooks": [list(row) for row in data.rows],
            "H": str(data.product),
            "degree": str(partition_degree(lam)),
        },
    )


def _cmd_degree(args) -> CommandResult:
    lam = parse_partition(args.partition)
    return CommandResult("pass", {"partition": str(lam), "degree": str(partition_degree(lam))})


def _cmd_conjugate(args) -> CommandResult:
    lam = parse_partition(args.partition)
    return CommandResult("pass", {"partition": str(lam), "conjugate": str(lam.conjugate())})


def _cmd_gamma(args) -> CommandResult:
    members = list(enumerate_gamma(args.m, size=args.size))
    return CommandResult(
        "pass",
        {"m": args.m, "count": len(members), "partitions": [str(p) for p in members]},
    )


def _cmd_prop42(args) -> CommandResult:
    if args.n is not None:
        if args.start is not None or args.end is not None:
            raise ValueError("prop42 takes --n or --from/--to, not both")
        lo = hi = args.n
    else:
        if args.start is None or args.end is None:
            raise ValueError("prop42 requires --n or both --from and --to")
        lo, hi = args.start, args.end
        if lo > hi:
            # An empty range would certify nothing yet report "pass".
            raise ValueError(f"prop42 requires --from <= --to, got {lo} > {hi}")
    records = [alternating.check_witness(n, best=args.best) for n in range(lo, hi + 1)]
    all_passed = all(r.passed for r in records)
    dicts = [r.to_json_dict() for r in records]
    lines = [json.dumps(d) for d in dicts] if args.jsonl else None
    return CommandResult(
        _verdict_status(all_passed),
        {"from": lo, "to": hi, "all_passed": all_passed, "records": dicts},
        lines=lines,
    )


def _cmd_lemma43(args) -> CommandResult:
    digits = _precision(args)
    if args.constant:
        verdict = alternating.check_constant(digits)
        return CommandResult(
            _verdict_status(verdict), {"constant_holds": verdict, "digits": digits}
        )
    if args.n is None:
        raise ValueError("lemma43 requires --n (or --constant)")
    verdict = alternating.check_factorial_lower(args.n, digits)
    return CommandResult(
        _verdict_status(verdict), {"n": args.n, "holds": verdict, "digits": digits}
    )


def _cmd_lemma45(args) -> CommandResult:
    verdict = alternating.check_hook_upper(args.m)
    return CommandResult(_verdict_status(verdict), {"m": args.m, "holds": verdict})


def _cmd_lemma46(args) -> CommandResult:
    digits = _precision(args)
    verdict = alternating.check_growth(args.n, digits)
    return CommandResult(
        _verdict_status(verdict), {"n": args.n, "holds": verdict, "digits": digits}
    )


def _cmd_cyclotomic(args) -> CommandResult:
    poly = cyclotomic(args.k)
    payload = {
        "k": args.k,
        "degree": poly.degree,
        "coefficients": list(poly.coeffs),
        "text": str(poly),
    }
    if args.q is not None:
        payload["value"] = str(poly(args.q))
    return CommandResult("pass", payload)


def _cmd_order(args) -> CommandResult:
    spec = _spec_from_args(args)
    return CommandResult("pass", {"order": str(lie_type.order(spec))})


def _cmd_steinberg(args) -> CommandResult:
    spec = _spec_from_args(args)
    return CommandResult("pass", {"steinberg": str(lie_type.steinberg_degree(spec))})


def _cmd_beta(args) -> CommandResult:
    spec = _spec_from_args(args)
    pair = lie_type.beta_degree(spec)
    return CommandResult(
        "pass",
        {
            "alpha": str(pair.alpha_degree),
            "beta": str(pair.beta_degree),
            "beta_label": pair.beta_label,
        },
    )


def _gap_payload(record: lie_type.SweepRecord, pair: lie_type.CharPair, passed: bool) -> dict:
    spec = record.spec
    return {
        "family": spec.family.value,
        "rank": spec.rank,
        "q": spec.q,
        "alpha": str(pair.alpha_degree),
        "beta": str(pair.beta_degree),
        "beta_label": pair.beta_label,
        "ratio": f"{pair.alpha_degree}/{pair.beta_degree}",
        "order": str(record.order),
        "passed": passed,
    }


def _cmd_thm21(args) -> CommandResult:
    r = lie_type.check_point(_spec_from_args(args))
    return CommandResult(
        _verdict_status(r.passed_pow14), _gap_payload(r, r.gap_pair, r.passed_pow14)
    )


def _cmd_lemma61(args) -> CommandResult:
    r = lie_type.check_point(_spec_from_args(args))
    return CommandResult(
        _verdict_status(r.passed_ratio165), _gap_payload(r, r.ratio_pair, r.passed_ratio165)
    )


def _parse_families(text: str) -> list[Family]:
    if text == "all":
        return list(Family)
    if text == "classical":
        return [f for f in Family if f in lie_type.CLASSICAL_FAMILIES]
    if text == "exceptional":
        return [f for f in Family if f in lie_type.EXCEPTIONAL_FAMILIES]
    return [Family(part.strip()) for part in text.split(",") if part.strip()]


def _sweep_entry_dict(entry) -> dict:
    if isinstance(entry, Exclusion):
        return {
            "family": entry.family.value,
            "rank": entry.rank,
            "q": entry.q,
            "status": "excluded",
            "reason": entry.reason,
        }
    spec = entry.spec
    return {
        "family": spec.family.value,
        "rank": spec.rank,
        "q": spec.q,
        "status": "ok",
        "order": str(entry.order),
        "alpha": str(entry.gap_pair.alpha_degree),
        "beta": str(entry.gap_pair.beta_degree),
        "beta_label": entry.gap_pair.beta_label,
        "passed_pow14": entry.passed_pow14,
        "ratio_alpha": str(entry.ratio_pair.alpha_degree),
        "ratio_beta": str(entry.ratio_pair.beta_degree),
        "passed_ratio165": entry.passed_ratio165,
    }


_CSV_FIELDS = (
    "family",
    "rank",
    "q",
    "status",
    "order",
    "alpha",
    "beta",
    "passed_pow14",
    "ratio_alpha",
    "ratio_beta",
    "passed_ratio165",
    "reason",
)


def _cmd_sweep(args) -> CommandResult:
    families = _parse_families(args.families)
    entries = lie_type.sweep(families, rank_max=args.rank_max, q_max=args.q_max)
    dicts = [_sweep_entry_dict(e) for e in entries]
    oks = [d for d in dicts if d["status"] == "ok"]
    if not oks:
        # Nothing checked would certify nothing yet report "pass".
        raise ValueError(f"sweep checked no parameter point ({len(dicts)} excluded)")
    all_passed = all(d["passed_pow14"] and d["passed_ratio165"] for d in oks)
    lines = None
    if args.csv:
        lines = [",".join(_CSV_FIELDS)]
        for d in dicts:
            lines.append(
                ",".join(
                    "" if d.get(f) is None else str(d.get(f, "")) for f in _CSV_FIELDS
                )
            )
    elif args.jsonl:
        lines = [json.dumps(d) for d in dicts]
    payload = {
        "points": len(dicts),
        "checked": len(oks),
        "excluded": len(dicts) - len(oks),
        "all_passed": all_passed,
        "entries": dicts,
    }
    return CommandResult(_verdict_status(all_passed), payload, lines=lines)


def _cmd_rat(args) -> CommandResult:
    degrees = tuple(int(d) for d in args.degrees.split(","))
    table = degree_data.DegreeTable(name="cli", degrees=degrees)
    value = degree_data.rat(table)
    nonlinear = [d for d in degrees if d > 1]
    return CommandResult(
        "pass",
        {
            "rat": f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator),
            "b": str(max(degrees)),
            "c": str(min(nonlinear)) if nonlinear else "1",
        },
    )


def _cmd_sporadic_check(args) -> CommandResult:
    tables = degree_data.load_dir(args.data)
    checks = [degree_data.check_extendible_pair(t) for t in tables]
    checked = [c for c in checks if c.status == "checked"]
    failures = [c.name for c in checked if not c.passed]
    return CommandResult(
        _verdict_status(bool(checked) and not failures),
        {
            "tables": len(tables),
            "checked": len(checked),
            "unchecked": [c.name for c in checks if c.status == "unchecked"],
            "failures": failures,
            "records": [c.to_json_dict() for c in checks],
        },
    )


def _cmd_out_bound(args) -> CommandResult:
    holds = degree_data.check_exponent_bound(args.x, args.y, args.num, args.den)
    return CommandResult(
        _verdict_status(holds),
        {"x": str(args.x), "y": str(args.y), "num": args.num, "den": args.den, "holds": holds},
    )


def _read_series(args) -> structure_bounds.ChiefSeries:
    if args.json:
        text = args.json
    elif args.file:
        with open(args.file) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return structure_bounds.series_from_json(text)


def _cmd_chiefseries_bound(args) -> CommandResult:
    series = _read_series(args)
    bound = structure_bounds.rat14_lower_bound(series)
    return CommandResult(
        "pass", {"factors": len(series.factors), "rat14_lower_bound": str(bound)}
    )


def _cmd_prop23(args) -> CommandResult:
    holds = structure_bounds.quotient_power_check(
        Fraction(args.rat_g), Fraction(args.rat_gn), args.order_n
    )
    return CommandResult(_verdict_status(holds), {"holds": holds})


def _cmd_maroti(args) -> CommandResult:
    return CommandResult(
        "pass", {"bound": str(structure_bounds.maroti_bound(args.n, args.d))}
    )


def _cmd_prop32(args) -> CommandResult:
    return CommandResult(
        "pass", {"bound": str(structure_bounds.solvable_index_bound(args.order))}
    )


def _cmd_thmb(args) -> CommandResult:
    holds = structure_bounds.radical_index_check(Fraction(args.rat), args.index)
    return CommandResult(_verdict_status(holds), {"holds": holds})


def _table_payload(table: degree_data.DegreeTable) -> dict:
    value = degree_data.rat(table)
    return {
        "name": table.name,
        "degrees": [str(d) for d in table.degrees],
        "order": None if table.order is None else str(table.order),
        "fitting_index": None if table.fitting_index is None else str(table.fitting_index),
        "rat": f"{value.numerator}/{value.denominator}",
    }


def _cmd_example_frobenius(args) -> CommandResult:
    table = structure_bounds.frobenius_example(args.p, args.m)
    return CommandResult("pass", _table_payload(table))


def _cmd_example_extraspecial(args) -> CommandResult:
    table = structure_bounds.extraspecial_example(args.p, args.i)
    return CommandResult("pass", _table_payload(table))


def _cmd_validate_data(args) -> CommandResult:
    tables = degree_data.load_dir(args.data)
    return CommandResult(
        "pass",
        {"tables": len(tables), "with_pair": sum(1 for t in tables if t.extendible_pair)},
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_REQ_INT = {"type": int, "required": True}
_OPT_INT = {"type": int}
_REQ_STR = {"required": True}
_FLAG = {"action": "store_true"}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row (name, handler, help, arguments, mutually
    exclusive groups) of the command table.  The table is built here, not at
    import, so each row takes the module-level _cmd_* handler bound now."""
    partition = [("--partition", _REQ_STR)]
    lie = [("--family", _REQ_STR), ("--rank", _OPT_INT), ("--q", _REQ_INT)]
    data = [("--data", {"default": "data"})]
    digits = ("--digits", {"type": int, "default": alternating.DEFAULT_DIGITS})
    jsonl = ("--jsonl", _FLAG)
    commands = [
        ("hook", _cmd_hook, "hook lengths, hook product and degree of a partition", partition, ()),
        ("degree", _cmd_degree, "exact degree n!/H of a partition", partition, ()),
        ("conjugate", _cmd_conjugate, "conjugate partition", partition, ()),
        ("gamma", _cmd_gamma, "window family: m parts, each in [m, m+2]",
         [("--m", _REQ_INT), ("--size", _OPT_INT)], ()),
        ("prop42", _cmd_prop42, "witness search for the degree-gap inequality",
         [("--n", _OPT_INT), ("--from", {**_OPT_INT, "dest": "start"}),
          ("--to", {**_OPT_INT, "dest": "end"}),
          ("--best", {**_FLAG, "help": "report the minimal-H witness"}), jsonl], ()),
        ("lemma43", _cmd_lemma43, "interval check of the factorial lower bound", [digits],
         [[("--n", _OPT_INT),
           ("--constant", {**_FLAG, "help": "check ((2pi)^13/e^15)^(1/28) > 1.35"})]]),
        ("lemma45", _cmd_lemma45, "exact hook-product upper bound over a window family",
         [("--m", _REQ_INT)], ()),
        ("lemma46", _cmd_lemma46, "interval check of the growth bound",
         [("--n", _REQ_INT), digits], ()),
        ("cyclotomic", _cmd_cyclotomic, "k-th cyclotomic polynomial (optionally evaluated)",
         [("--k", _REQ_INT), ("--q", _OPT_INT)], ()),
        ("order", _cmd_order, "exact group order", lie, ()),
        ("steinberg", _cmd_steinberg, "Steinberg degree (the p-part of the order)", lie, ()),
        ("beta", _cmd_beta, "companion unipotent degree", lie, ()),
        ("thm21", _cmd_thm21, "exact check alpha^14 > beta^14 * |S|", lie, ()),
        ("lemma61", _cmd_lemma61, "exact check 5*alpha >= 16*beta", lie, ()),
        ("sweep", _cmd_sweep, "run both ratio checks over a parameter grid",
         [("--families",
           {"default": "all", "help": "all, classical, exceptional, or a comma list"}),
          ("--rank-max", {"type": int, "default": 20}), ("--q-max", {"type": int, "default": 32})],
         [[jsonl, ("--csv", _FLAG)]]),
        ("rat", _cmd_rat, "b/c from an explicit degree list", [("--degrees", _REQ_STR)], ()),
        ("sporadic-check", _cmd_sporadic_check, "pair inequality over a data directory", data, ()),
        ("out-bound", _cmd_out_bound, "exact check x <= y^(num/den)",
         [(f, _REQ_INT) for f in ("--x", "--y", "--num", "--den")], ()),
        ("chiefseries-bound", _cmd_chiefseries_bound, "product bound from a chief series (JSON)",
         [], [[("--json", {}), ("--file", {})]]),
        ("prop23", _cmd_prop23, "exact check rat_g^14 >= rat_gn^14 * |N|",
         [("--rat-g", _REQ_STR), ("--rat-gn", _REQ_STR), ("--order-n", _REQ_INT)], ()),
        ("maroti", _cmd_maroti, "floor of d!^((n-1)/(d-1))",
         [("--n", _REQ_INT), ("--d", _REQ_INT)], ()),
        ("prop32", _cmd_prop32, "floor of |N|^1.43", [("--order", _REQ_INT)], ()),
        ("thmB", _cmd_thmb, "exact check index <= rat^21",
         [("--rat", _REQ_STR), ("--index", _REQ_INT)], ()),
        ("example-frobenius", _cmd_example_frobenius, "two-degree family with rat = 1",
         [("--p", _REQ_INT), ("--m", _REQ_INT)], ()),
        ("example-extraspecial", _cmd_example_extraspecial, "three-degree family with rat -> 1",
         [("--p", _REQ_INT), ("--i", _REQ_INT)], ()),
        ("validate-data", _cmd_validate_data, "parse and validate a data directory", data, ()),
    ]
    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="Exact character-degree computations and inequality certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments, exclusive in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        for group in exclusive:
            g = p.add_mutually_exclusive_group()
            for flag, kw in group:
                g.add_argument(flag, **kw)
    return parser


def run(argv: list[str] | None = None) -> CommandResult:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        return CommandResult("error", {"error": str(exc)})


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    if result.lines is not None:
        for line in result.lines:
            print(line)
    else:
        print(json.dumps({"status": result.status, **result.payload}))
    if result.lines is not None and result.status != "pass":
        # Status is not part of streamed output; surface it on stderr.
        print(f"status: {result.status}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
