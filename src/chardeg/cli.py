"""Command-line front end.

Every verifier and calculator is one row of command_table, with JSON output
on stdout (JSON-lines with --jsonl on prop42 and sweep, CSV with sweep
--csv).  This module alone renders output, and main writes it to stdout in
one write.  A status other than "pass" of pre-rendered output (--jsonl,
--csv, or the sweep or prop42 document) also goes to stderr as "status:
<s>", since JSON lines and CSV rows do not hold it.  Big integers are
decimal strings.  JSON lines and the prop42 document are f-strings, and
every other document is written by _json, each byte for byte as json.dumps
writes it.  Exit codes: 0 pass, 1 fail, 2 error (usage errors such as
conflicting flags included, with the same JSON error document, and a stdout
closed by its reader), 3 inconclusive.  --digits (1 to 400, default 50) sets
the starting interval precision for the checks involving e and pi.

parse_args reads argv against the command table as argparse would, with
argparse's usage errors, and imports nothing; a command imports the layer
module its handler runs, inside that handler, so it pays for neither the
other layers nor argparse, nor, unless it reads a JSON document, json.  A
ratio is a pair of ints (a, b), reduced with one gcd.
"""

import gc
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

# exact_arith, imported here, lifts the int-to-str digit limit before
# parse_args converts a long integer argument.
from .exact_arith import check_power_bits, cyclotomic, eval_poly

EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "inconclusive": 3}


class CommandResult(NamedTuple):
    status: str
    payload: dict
    # Output pre-rendered in place of the JSON of status and payload: the
    # --jsonl lines, the --csv rows, or sweep's document with its entries.
    text: str | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def _precision(args) -> int:
    from . import alternating

    if args.digits is None:
        return alternating.DEFAULT_DIGITS
    if not 1 <= args.digits <= alternating.MAX_DIGITS:
        raise ValueError(f"--digits must be in 1..{alternating.MAX_DIGITS}, got {args.digits}")
    return args.digits


def _verdict_status(verdict: bool | None) -> str:
    if verdict is None:
        return "inconclusive"
    return "pass" if verdict else "fail"


def _decimal(x: int | None) -> str | None:
    return None if x is None else str(x)


def _lowest(a: int, b: int) -> tuple[int, int]:
    g = math.gcd(a, b)
    return a // g, b // g


def _point(args) -> "lie_type.SweepRecord":
    # Every Lie-type handler prints fields of this one record.
    from . import lie_type

    return lie_type.check_point(lie_type.make_spec(args.family, args.q, args.rank))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_hook(args) -> CommandResult:
    from . import partitions

    lam = partitions.parse_partition(args.partition)
    data = partitions.hooks(lam)
    return CommandResult(
        "pass",
        {
            "partition": str(lam),
            "hooks": [list(row) for row in data.rows],
            "H": str(data.product),
            "degree": str(partitions.degree(lam)),
        },
    )


def _cmd_degree(args) -> CommandResult:
    from . import partitions

    lam = partitions.parse_partition(args.partition)
    return CommandResult("pass", {"partition": str(lam), "degree": str(partitions.degree(lam))})


def _cmd_conjugate(args) -> CommandResult:
    from . import partitions

    lam = partitions.parse_partition(args.partition)
    return CommandResult("pass", {"partition": str(lam), "conjugate": str(lam.conjugate())})


def _cmd_gamma(args) -> CommandResult:
    from . import partitions

    members = list(partitions.enumerate_gamma(args.m, size=args.size))
    return CommandResult(
        "pass",
        {"m": args.m, "count": len(members), "partitions": [str(p) for p in members]},
    )


def _witness_json(r: "alternating.WitnessReport") -> str:
    # The record's JSON text, as json.dumps writes the object of keys n,
    # witness, hook_product, passed and margin (lhs_bits, rhs_bits, lhs_sha256,
    # rhs_sha256): a witness is digits and commas, and a digest is hex.
    m = r.margin
    return (
        f'{{"n": {r.n}, "witness": "{r.witness}", "hook_product": "{r.hook_product}", '
        f'"passed": {"true" if r.passed else "false"}, '
        f'"margin": {{"lhs_bits": {m.lhs_bits}, "rhs_bits": {m.rhs_bits}, '
        f'"lhs_sha256": "{m.lhs_sha256}", "rhs_sha256": "{m.rhs_sha256}"}}}}'
    )


def _cmd_prop42(args) -> CommandResult:
    from . import alternating

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
    records = list(alternating.witness_range(lo, hi, best=args.best))
    all_passed = all(r.passed for r in records)
    status, payload = _verdict_status(all_passed), {"from": lo, "to": hi, "all_passed": all_passed}
    lines = map(_witness_json, records)
    if args.jsonl:
        return CommandResult(status, payload, "\n".join(lines))
    head = (f'"status": "{status}", "from": {lo}, "to": {hi}, '
            f'"all_passed": {str(all_passed).lower()}')
    return CommandResult(status, payload, f'{{{head}, "records": [{", ".join(lines)}]}}')


def _cmd_lemma43(args) -> CommandResult:
    from . import alternating

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
    from . import alternating

    verdict = alternating.check_hook_upper(args.m)
    return CommandResult(_verdict_status(verdict), {"m": args.m, "holds": verdict})


def _cmd_lemma46(args) -> CommandResult:
    from . import alternating

    digits = _precision(args)
    verdict = alternating.check_growth(args.n, digits)
    return CommandResult(
        _verdict_status(verdict), {"n": args.n, "holds": verdict, "digits": digits}
    )


def _poly_text(coeffs: tuple[int, ...]) -> str:
    # Highest term first, e.g. "x^4 - x^2 + 1"; the lead coefficient is nonzero.
    text = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c, var = coeffs[i], "" if i == 0 else "x" if i == 1 else f"x^{i}"
        if c:
            text += (" - " if c < 0 else " + ") + (var if abs(c) == 1 and var else f"{abs(c)}{var}")
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _cmd_cyclotomic(args) -> CommandResult:
    coeffs = cyclotomic(args.k)
    degree = len(coeffs) - 1
    payload = {
        "k": args.k,
        "degree": degree,
        "coefficients": list(coeffs),
        "text": _poly_text(coeffs),
    }
    if args.q is not None:
        check_power_bits("cyclotomic", degree * abs(args.q).bit_length())
        payload["value"] = str(eval_poly(coeffs, args.q))
    return CommandResult("pass", payload)


def _cmd_order(args) -> CommandResult:
    return CommandResult("pass", {"order": str(_point(args).order)})


def _cmd_steinberg(args) -> CommandResult:
    return CommandResult("pass", {"steinberg": str(_point(args).gap_pair.alpha_degree)})


def _cmd_beta(args) -> CommandResult:
    pair = _point(args).gap_pair
    return CommandResult(
        "pass",
        {
            "alpha": str(pair.alpha_degree),
            "beta": str(pair.beta_degree),
            "beta_label": pair.beta_label,
        },
    )


def _gap_result(
    record: "lie_type.SweepRecord", pair: "lie_type.CharPair", passed: bool
) -> CommandResult:
    spec = record.spec
    return CommandResult(_verdict_status(passed), {
        "family": spec.family.value,
        "rank": spec.rank,
        "q": spec.q,
        "alpha": str(pair.alpha_degree),
        "beta": str(pair.beta_degree),
        "beta_label": pair.beta_label,
        "ratio": f"{pair.alpha_degree}/{pair.beta_degree}",
        "order": str(record.order),
        "passed": passed,
    })


def _cmd_thm21(args) -> CommandResult:
    r = _point(args)
    return _gap_result(r, r.gap_pair, r.passed_pow14)


def _cmd_lemma61(args) -> CommandResult:
    r = _point(args)
    return _gap_result(r, r.ratio_pair, r.passed_ratio165)


def _parse_families(text: str) -> "list[lie_type.Family]":
    from . import lie_type

    if text == "all":
        return list(lie_type.Family)
    if text == "classical":
        return [f for f in lie_type.Family if f in lie_type.CLASSICAL_FAMILIES]
    if text == "exceptional":
        return [f for f in lie_type.Family if f in lie_type.EXCEPTIONAL_FAMILIES]
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError(f"--families {text!r} names no family")
    values = [f.value for f in lie_type.Family]
    if not set(names) <= set(values):
        raise ValueError(
            f"--families {text!r} is not all, classical, exceptional or a comma-separated "
            f"list of families from {', '.join(values)}"
        )
    return [lie_type.Family(name) for name in names]


def _sweep_json(entries: list) -> list[str]:
    # Each entry's JSON text, as json.dumps writes the entry's object: keys
    # family, rank, q, status, then reason for an Exclusion, or order, alpha,
    # beta, beta_label, passed_pow14, ratio_alpha, ratio_beta and
    # passed_ratio165 for a SweepRecord.  Each integer goes to decimal once
    # (ratio_alpha and ratio_beta reuse alpha and beta unless the ratio pair
    # is an override).  Family values, labels and reasons are written between
    # quotes as they are: none holds a character JSON escapes, which
    # test_sweep_strings_need_no_json_escape checks over the family table.
    from . import lie_type

    texts = []
    for e in entries:
        if isinstance(e, lie_type.Exclusion):
            rank = "null" if e.rank is None else e.rank
            texts.append(
                f'{{"family": "{e.family.value}", "rank": {rank}, "q": {e.q}, '
                f'"status": "excluded", "reason": "{e.reason}"}}'
            )
            continue
        spec, pair, ratio = e.spec, e.gap_pair, e.ratio_pair
        rank = "null" if spec.rank is None else spec.rank
        alpha, beta = str(pair.alpha_degree), str(pair.beta_degree)
        ratio_alpha, ratio_beta = (
            (alpha, beta) if ratio is pair else (str(ratio.alpha_degree), str(ratio.beta_degree))
        )
        texts.append(
            f'{{"family": "{spec.family.value}", "rank": {rank}, "q": {spec.q}, '
            f'"status": "ok", "order": "{e.order}", "alpha": "{alpha}", "beta": "{beta}", '
            f'"beta_label": "{pair.beta_label}", '
            f'"passed_pow14": {"true" if e.passed_pow14 else "false"}, '
            f'"ratio_alpha": "{ratio_alpha}", "ratio_beta": "{ratio_beta}", '
            f'"passed_ratio165": {"true" if e.passed_ratio165 else "false"}}}'
        )
    return texts


def _csv_field(text: str) -> str:
    # RFC 4180: a field with a comma, quote or line break is quoted.
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _sweep_csv(entries: list) -> list[str]:
    # One row per entry under the header; a field an entry does not have,
    # and a rank of None, is empty.  Only a reason can need quoting.
    from . import lie_type

    lines = ["family,rank,q,status,order,alpha,beta,passed_pow14,ratio_alpha,ratio_beta,"
             "passed_ratio165,reason"]
    for e in entries:
        if isinstance(e, lie_type.Exclusion):
            rank = "" if e.rank is None else e.rank
            lines.append(f"{e.family.value},{rank},{e.q},excluded,,,,,,,,{_csv_field(e.reason)}")
            continue
        spec, pair, ratio = e.spec, e.gap_pair, e.ratio_pair
        rank = "" if spec.rank is None else spec.rank
        alpha, beta = str(pair.alpha_degree), str(pair.beta_degree)
        ratio_alpha, ratio_beta = (
            (alpha, beta) if ratio is pair else (str(ratio.alpha_degree), str(ratio.beta_degree))
        )
        lines.append(
            f"{spec.family.value},{rank},{spec.q},ok,{e.order},{alpha},{beta},{e.passed_pow14},"
            f"{ratio_alpha},{ratio_beta},{e.passed_ratio165},"
        )
    return lines


def _cmd_sweep(args) -> CommandResult:
    from . import lie_type

    families = _parse_families(args.families)
    entries = lie_type.sweep(families, rank_max=args.rank_max, q_max=args.q_max)
    checked = [e for e in entries if not isinstance(e, lie_type.Exclusion)]
    if not checked:
        # Nothing checked would certify nothing yet report "pass".
        raise ValueError(f"sweep checked no parameter point ({len(entries)} excluded)")
    all_passed = all(r.passed_pow14 and r.passed_ratio165 for r in checked)
    status = _verdict_status(all_passed)
    payload = {
        "points": len(entries),
        "checked": len(checked),
        "excluded": len(entries) - len(checked),
        "all_passed": all_passed,
    }
    if args.csv:
        return CommandResult(status, payload, "\n".join(_sweep_csv(entries)))
    texts = _sweep_json(entries)
    if args.jsonl:
        return CommandResult(status, payload, "\n".join(texts))
    head = _json({"status": status, **payload})
    return CommandResult(status, payload, f'{head[:-1]}, "entries": [{", ".join(texts)}]}}')


def _cmd_rat(args) -> CommandResult:
    from . import degree_data

    if not re.fullmatch(r"[0-9]+(,[0-9]+)*", args.degrees):
        raise ValueError(f"--degrees {args.degrees!r} must be a comma list of integers")
    degrees = tuple(int(d) for d in args.degrees.split(","))
    b, c = degree_data.rat(degree_data.DegreeTable(name="--degrees", degrees=degrees))
    num, den = _lowest(b, c)
    rat_text = str(num) if den == 1 else f"{num}/{den}"  # "n" when d is 1
    return CommandResult("pass", {"rat": rat_text, "b": str(b), "c": str(c)})


def _cmd_sporadic_check(args) -> CommandResult:
    from . import degree_data

    tables = degree_data.load_dir(args.data)
    checks = [degree_data.check_extendible_pair(t) for t in tables]
    checked = [c for c in checks if c.status == "checked"]
    if not checked:
        # Nothing checked would certify nothing yet report a verdict.
        raise ValueError(
            f"sporadic-check checked 0 of {len(tables)} tables: none has both an order and a pair"
        )
    failures = [c.name for c in checked if not c.passed]
    return CommandResult(
        _verdict_status(not failures),
        {
            "tables": len(tables),
            "checked": len(checked),
            "unchecked": [c.name for c in checks if c.status == "unchecked"],
            "failures": failures,
            "records": [{"name": c.name, "status": c.status, "passed": c.passed,
                         "alpha": _decimal(c.alpha), "beta": _decimal(c.beta),
                         "order": _decimal(c.order), "extendibility": "asserted by data"}
                        for c in checks],
        },
    )


def _cmd_out_bound(args) -> CommandResult:
    from . import degree_data

    holds = degree_data.check_exponent_bound(args.x, args.y, args.num, args.den)
    return CommandResult(
        _verdict_status(holds),
        {"x": str(args.x), "y": str(args.y), "num": args.num, "den": args.den, "holds": holds},
    )


def _cmd_chiefseries_bound(args) -> CommandResult:
    import json

    from . import structure_bounds

    if args.json is not None:
        source, text = "--json", args.json
    elif args.file is not None:
        with open(args.file) as fh:
            source, text = f"--file {args.file!r}", fh.read()
    else:
        raise ValueError("chiefseries-bound requires --json or --file")
    try:
        series = structure_bounds.series_from_json(text)
    except json.JSONDecodeError as exc:
        expected = 'expected a JSON {"factors": [...]} document'
        raise ValueError(f"{source}: {expected}: {exc}") from None
    bound = structure_bounds.rat14_lower_bound(series)
    return CommandResult("pass", {"factors": len(series), "rat14_lower_bound": str(bound)})


def _ratio(flag: str, text: str) -> tuple[int, int]:
    # (a, b) in lowest terms; int() sees only ASCII digits, never an exponent.
    if not re.fullmatch(r"[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"{flag} {text!r} must be an integer a or a ratio a/b")
    a, _, b = text.partition("/")
    a, b = int(a), int(b or 1)
    if b == 0:
        raise ValueError(f"{flag} {text!r} has a zero denominator")
    return _lowest(a, b)


def _cmd_prop23(args) -> CommandResult:
    from . import structure_bounds

    holds = structure_bounds.quotient_power_check(
        _ratio("--rat-g", args.rat_g), _ratio("--rat-gn", args.rat_gn), args.order_n
    )
    return CommandResult(_verdict_status(holds), {"holds": holds})


def _cmd_maroti(args) -> CommandResult:
    from . import structure_bounds

    return CommandResult(
        "pass", {"bound": str(structure_bounds.maroti_bound(args.n, args.d))}
    )


def _cmd_prop32(args) -> CommandResult:
    from . import structure_bounds

    return CommandResult(
        "pass", {"bound": str(structure_bounds.solvable_index_bound(args.order))}
    )


def _cmd_thmb(args) -> CommandResult:
    from . import structure_bounds

    holds = structure_bounds.radical_index_check(_ratio("--rat", args.rat), args.index)
    return CommandResult(_verdict_status(holds), {"holds": holds})


def _table_payload(table: "degree_data.DegreeTable") -> dict:
    from . import degree_data

    num, den = _lowest(*degree_data.rat(table))
    return {
        "name": table.name,
        "degrees": [str(d) for d in table.degrees],
        "order": _decimal(table.order),
        "fitting_index": _decimal(table.fitting_index),
        "rat": f"{num}/{den}",
    }


def _cmd_example_frobenius(args) -> CommandResult:
    from . import structure_bounds

    table = structure_bounds.frobenius_example(args.p, args.m)
    return CommandResult("pass", _table_payload(table))


def _cmd_example_extraspecial(args) -> CommandResult:
    from . import structure_bounds

    table = structure_bounds.extraspecial_example(args.p, args.i)
    return CommandResult("pass", _table_payload(table))


def _cmd_validate_data(args) -> CommandResult:
    from . import degree_data

    tables = degree_data.load_dir(args.data)
    if not tables:
        raise ValueError(f"validate-data read 0 tables from {args.data}")
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
# -h and --help, on every row and at the top.
_HELP = {"-h": None, "--help": None}


def command_table() -> list[tuple]:
    """One row (name, handler, help, arguments, mutually exclusive groups)
    per subcommand, each argument a (flag, spec) pair that parse_args reads:
    spec keys type, required, action ("store_true"), default, dest and help.
    The table is built here, not at import, so each row takes the
    module-level _cmd_* handler bound now."""
    partition = [("--partition", _REQ_STR)]
    lie = [("--family", _REQ_STR), ("--rank", _OPT_INT), ("--q", _REQ_INT)]
    data = [("--data", {"default": "data"})]
    # None stands for alternating.DEFAULT_DIGITS, which _precision reads.
    digits = ("--digits", {"type": int})
    jsonl = ("--jsonl", _FLAG)
    return [
        ("hook", _cmd_hook, "hook lengths, hook product and degree of a partition", partition, ()),
        ("degree", _cmd_degree, "exact degree n!/H of a partition", partition, ()),
        ("conjugate", _cmd_conjugate, "conjugate partition", partition, ()),
        ("gamma", _cmd_gamma, "window family: m parts, each in [m, m+2]",
         [("--m", _REQ_INT), ("--size", _OPT_INT)], ()),
        ("prop42", _cmd_prop42, "witness search for the degree-gap inequality",
         [("--n", _OPT_INT), ("--from", {**_OPT_INT, "dest": "start"}),
          ("--to", {**_OPT_INT, "dest": "end"}),
          ("--best", {**_FLAG, "help": "report the least-H passer among the candidates: every "
                      "non-self-conjugate partition of n up to 48; above 48, the window "
                      "family of index floor(sqrt(n))"}), jsonl], ()),
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


def _dest(flag: str, spec: dict) -> str:
    return spec.get("dest", flag[2:].replace("-", "_"))


def _shown(flag: str, spec: dict) -> str:
    # A flag as usage and help write it: "--flag" or "--flag DEST".
    return flag if "action" in spec else f"{flag} {_dest(flag, spec).upper()}"


def _help(usage: str, description: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"  {left:<{width}}{text}".rstrip() for left, text in rows]
    return "\n".join([usage, "", description, "", *lines])


def _usage_error(usage: str, prog: str, message: str) -> NoReturn:
    # run reports it as the same JSON error document (exit 2) as a handler
    # error; the usage line goes to stderr.
    print(usage, file=sys.stderr)
    raise ValueError(f"{prog}: {message}")


def _match(token: str, flags: dict, error) -> tuple[str | None, str | None] | None:
    """How argparse reads token against flags: None for a value, (flag, text
    after "=" or None) for a flag or the unique prefix of one, and (None,
    None) for an unknown flag.  A negative number is a value."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    if token == "--":
        return None, None
    name, eq, text = token.partition("=")
    if eq and name in flags:
        return name, text
    if token[1] == "-":
        found = [(flag, text if eq else None) for flag in flags if flag.startswith(name)]
    else:
        found = [(flag, token[2:]) for flag in flags if flag == token[:2]]
    if len(found) > 1:
        error(f"ambiguous option: {token} could match {', '.join(flag for flag, _ in found)}")
    if found:
        return found[0]
    if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:
        return None
    return None, None


def _read(tokens: list[str], specs: dict, groups: list, error, help_text, extras: list,
          stop: bool = False) -> tuple[dict, list[str], int]:
    """Reads tokens as argparse does: the values by dest, the flags seen and
    the index of the first value no flag takes (with stop) or len(tokens).
    Unknown flags, and values no flag takes without stop, go to extras; -h
    or --help prints help_text() and exits 0."""
    flags = {**_HELP, **specs}
    # Every token is read before any is taken, so an ambiguous prefix is
    # the first error wherever it stands.
    found = [_match(token, flags, error) for token in tokens]
    values, seen, i = {}, [], 0
    while i < len(tokens):
        if stop and (found[i] is None or tokens[i] == "--"):
            # argparse takes "--" itself as the command
            return values, seen, i
        i += 1
        if found[i - 1] is None or found[i - 1][0] is None:
            extras.append(tokens[i - 1])
            continue
        flag, text = found[i - 1]
        spec = flags[flag]
        if spec is None or "action" in spec:
            if text is not None:
                name = "-h/--help" if spec is None else flag
                error(f"argument {name}: ignored explicit argument {text!r}")
            if spec is None:
                print(help_text())
                raise SystemExit(0)
            value = True
        else:
            if text is None:
                if i == len(tokens) or found[i] is not None:
                    error(f"argument {flag}: expected one argument")
                text, i = tokens[i], i + 1
            convert = spec.get("type", str)
            try:
                value = convert(text)
            except ValueError:
                error(f"argument {flag}: invalid {convert.__name__} value: {text!r}")
        for group in groups:
            if flag in group:
                for other in group:
                    if other != flag and other in seen:
                        error(f"argument {flag}: not allowed with argument {other}")
        seen.append(flag)
        values[_dest(flag, spec)] = value
    return values, seen, i


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read as argparse reads it against command_table(): flags as
    --flag VALUE or --flag=VALUE, a unique prefix for a flag, the last of a
    repeated flag, a negative number as a value.  The namespace holds
    command, handler and each of the command's flags by dest.  A usage error
    raises ValueError with argparse's message; -h or --help, at the top or
    after a command, prints help to stdout and raises SystemExit(0)."""
    table = command_table()
    names = [row[0] for row in table]
    usage = f"usage: chardeg [-h] {{{','.join(names)}}} ..."

    def error(message: str) -> NoReturn:
        _usage_error(usage, "chardeg", message)

    def top_help() -> str:
        rows = [("-h, --help", "show this help message and exit")]
        return _help(usage, "Exact character-degree computations and inequality certification.",
                     rows + [(row[0], row[2]) for row in table])

    extras = []
    _, _, i = _read(argv, {}, [], error, top_help, extras, stop=True)
    if i == len(argv):
        error("the following arguments are required: command")
    if argv[i] not in names:
        choices = ", ".join(map(repr, names))
        error(f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
    name, handler, description, arguments, exclusive = table[names.index(argv[i])]
    specs = dict([*arguments, *(a for group in exclusive for a in group)])
    groups = [[flag for flag, _ in group] for group in exclusive]
    parts = [_shown(f, s) if s.get("required") else f"[{_shown(f, s)}]" for f, s in arguments]
    parts += [f"[{' | '.join(_shown(f, s) for f, s in group)}]" for group in exclusive]
    row_usage = " ".join([f"usage: chardeg {name} [-h]", *parts])

    def row_error(message: str) -> NoReturn:
        _usage_error(row_usage, f"chardeg {name}", message)

    def row_help() -> str:
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(_shown(f, s), s.get("help", "")) for f, s in specs.items()]
        return _help(row_usage, description, rows)

    values, seen, _ = _read(argv[i + 1:], specs, groups, row_error, row_help, extras)
    missing = [f for f, s in specs.items() if s.get("required") and f not in seen]
    if missing:
        row_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        error(f"unrecognized arguments: {' '.join(extras)}")
    defaults = {_dest(f, s): s.get("default", False if "action" in s else None)
                for f, s in specs.items()}
    return SimpleNamespace(command=name, handler=handler, **{**defaults, **values})


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}


def _escape(match: "re.Match") -> str:
    c = match.group()
    if c in _ESCAPES:
        return _ESCAPES[c]
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # a surrogate pair, as json writes a character outside the BMP
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _json(value) -> str:
    """value as json.dumps(value) writes it (ASCII only, ", " and ": "
    separators), for a dict with str keys, list, tuple, str, int, bool or
    None; any other type raises TypeError."""
    if type(value) is str:
        return '"' + re.sub(r'[\\"]|[^ -~]', _escape, value) + '"'
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    if type(value) is int:
        return str(value)
    if type(value) in (list, tuple):
        return f"[{', '.join(map(_json, value))}]"
    if type(value) is dict and all(type(key) is str for key in value):
        return f"{{{', '.join(f'{_json(k)}: {_json(v)}' for k, v in value.items())}}}"
    raise TypeError(f"{type(value).__name__} is not written as JSON")


def run(argv: list[str] | None = None) -> CommandResult:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        return CommandResult("error", {"error": str(exc)})
    except MemoryError:
        return CommandResult("error", {"error": "out of memory"})


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    text = result.text
    if text is None:
        text = _json({"status": result.status, **result.payload})
    try:
        # Flushed here, so that a closed stdout raises inside this try.
        print(text, flush=True)
    except BrokenPipeError:
        # The output did not reach its reader: an error, not a verdict.  fd 1
        # goes to devnull so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CODES["error"]
    if result.text is not None and result.status != "pass":
        # JSON lines and CSV rows do not hold the status; surface it on stderr.
        print(f"status: {result.status}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    # Frozen objects are skipped by the collections the interpreter runs at
    # teardown; the output is flushed and atexit handlers run as before.
    # main itself does not freeze, since tests call it in-process.
    try:
        sys.exit(main())
    finally:
        gc.freeze()
