"""The four benchmark workloads and the checks on their outputs.

A workload turns (seed, pass index) into one pass: a list of commands for
the chardeg CLI, each with its expected exit code and a check on its stdout.
Every pass of a workload has the same shape (the same templates, the same
amount of work up to the seed's small jitter), so pass totals can be
compared by their median and the latency percentiles of a run always fall
on the same part of the command mix, whatever the seed.

Why each workload exists:

* ``witness``: the certified witness range, which exercises partitions.hooks,
  exact_arith.cmp_power on operands of about 110k bits and the margin
  evidence of alternating; the path ROADMAP item 2 rewrites.
* ``lie-sweep``: the classical and exceptional ratio sweeps, which exercise
  lie_type validate/order/beta_degree, is_prime and the Fraction path of
  cmp_power and never call partitions; a witness-path change must not move it.
* ``interval``: the analytic lemmas, which exercise the rational-interval
  checks through both their per-step cost (Fraction powers like e.lo**(25n))
  and their precision ladder.
* ``queries``: a mix of short commands from every subcommand, including the
  inputs that must be rejected; the only workload that reaches degree_data
  and structure_bounds, and the one where start-up cost shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# A check gets a command's stdout and returns None, or the reason it is wrong.
Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect_rc: int
    check: Check
    limit_s: float = 60.0  # the child is killed and the command failed after this


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def digest_check(expected: str) -> Check:
    def check(out: bytes) -> str | None:
        got = sha256(out)
        return None if got == expected else f"stdout sha256 {got} != golden {expected}"

    return check


def golden_command(golden: dict, argv: tuple[str, ...], limit_s: float = 60.0) -> Command:
    """A command whose exit code and stdout digest are recorded in golden.json."""
    entry = golden["commands"][" ".join(argv)]
    return Command(argv, entry["rc"], digest_check(entry["sha256"]), limit_s)


def _frac(x: float) -> float:
    return x - math.floor(x)


# Pass k of a run takes point frac(phase + k * GOLDEN_STEP) of a low-discrepancy
# sequence, so the draws of any run cover their range evenly and no seed gets
# a luckier mix than another.
GOLDEN_STEP = (math.sqrt(5) - 1) / 2


def _rng(workload: str, seed: int, k: int | None = None) -> random.Random:
    return random.Random(f"{workload}:{seed}" if k is None else f"{workload}:{seed}:{k}")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def frt_hook_product(parts: list[int]) -> int:
    """Hook product from the first-column hook lengths l_i = lam_i + k - i:
    H = prod(l_i!) / prod_{i<j}(l_i - l_j) (Frame, Robinson, Thrall 1954)."""
    k = len(parts)
    firsts = [p + k - 1 - i for i, p in enumerate(parts)]
    num = 1
    for l in firsts:
        num *= math.factorial(l)
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            den *= firsts[i] - firsts[j]
    h, r = divmod(num, den)
    if r:
        raise ArithmeticError("Vandermonde product does not divide the factorials")
    return h


def _int_sha256(x: int) -> str:
    return sha256(x.to_bytes((x.bit_length() + 7) // 8 or 1, "big"))


def _parse_parts(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

WITNESS_FROM = 7
WITNESS_TO = 1000
WITNESS_CHUNKS = 8
WITNESS_JITTER = 0.15  # cut points move by up to this share of a chunk's work
WITNESS_SAMPLE = 16  # records per pass re-decided with plain ints


def _witness_cuts(rng: random.Random) -> list[tuple[int, int]]:
    # Cut points sit near equal shares of a fixed n**2.4 cost model, measured
    # when this benchmark was written, so every chunk is about the same work.
    ns = range(WITNESS_FROM, WITNESS_TO + 1)
    cum, acc = [], 0.0
    for n in ns:
        acc += n ** 2.4
        cum.append(acc)
    bounds = [WITNESS_FROM]
    for c in range(1, WITNESS_CHUNKS):
        target = (c + rng.uniform(-WITNESS_JITTER, WITNESS_JITTER)) / WITNESS_CHUNKS * acc
        i = next(i for i, v in enumerate(cum) if v >= target)
        bounds.append(ns[i])
    bounds.append(WITNESS_TO + 1)
    return [(bounds[i], bounds[i + 1] - 1) for i in range(WITNESS_CHUNKS)]


def _witness_record_check(lo: int, hi: int, sample: set[int]) -> Check:
    def check(out: bytes) -> str | None:
        lines = out.decode().splitlines()
        if len(lines) != hi - lo + 1:
            return f"{len(lines)} records for n = {lo}..{hi}"
        for n, line in zip(range(lo, hi + 1), lines):
            rec = json.loads(line)
            if rec["n"] != n or rec["passed"] is not True:
                return f"record for n = {n} is {rec['n']} / passed={rec['passed']}"
            parts = _parse_parts(rec["witness"])
            if sum(parts) != n or any(a < b for a, b in zip(parts, parts[1:])) or parts[-1] < 1:
                return f"n = {n}: {rec['witness']} is not a partition of n"
            conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]
            if conj == parts:
                return f"n = {n}: witness {rec['witness']} is self-conjugate"
            if n not in sample:
                continue
            h = frt_hook_product(parts)
            if str(h) != rec["hook_product"]:
                return f"n = {n}: hook product differs from the FRT formula"
            lhs = math.factorial(n) ** 13
            rhs = (h * (n - 1)) ** 14
            if not lhs > rhs:
                return f"n = {n}: (n!)^13 > (H(n-1))^14 does not hold"
            margin = rec["margin"]
            if (margin["lhs_bits"], margin["rhs_bits"]) != (lhs.bit_length(), rhs.bit_length()):
                return f"n = {n}: margin bit lengths differ"
            if (margin["lhs_sha256"], margin["rhs_sha256"]) != (_int_sha256(lhs), _int_sha256(rhs)):
                return f"n = {n}: margin digests differ"
        return None

    return check


def witness_pass(golden: dict, seed: int, k: int) -> tuple[list[Command], Check]:
    rng = _rng("witness", seed, k)
    sample = set(rng.sample(range(WITNESS_FROM, WITNESS_TO + 1), WITNESS_SAMPLE))
    commands = [
        Command(
            ("prop42", "--from", str(lo), "--to", str(hi), "--jsonl"),
            0,
            _witness_record_check(lo, hi, sample),
        )
        for lo, hi in _witness_cuts(rng)
    ]
    # The chunks' stdout, joined in order, is the stdout of the whole range.
    return commands, digest_check(golden["witness_range_sha256"])


# ---------------------------------------------------------------------------
# lie-sweep
# ---------------------------------------------------------------------------

CLASSICAL_RANK_MIN = {
    "linear": 3,
    "unitary": 3,
    "symplectic": 2,
    "orth_odd": 2,
    "orth_plus": 4,
    "orth_minus": 4,
}
EXCEPTIONAL = ("2B2", "3D4", "G2", "2G2", "F4", "2F4", "E6", "2E6", "E7", "E8")
CLASSICAL_RANK_MAX = 20
CLASSICAL_Q_MAX = 32
EXCEPTIONAL_Q_MAX = 8192
SWEEP_SAMPLE = 8  # entries per command whose verdicts are recomputed


def _prime_powers(limit: int) -> list[int]:
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    out = []
    for p in primes:
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def sweep_argv(family: str) -> tuple[str, ...]:
    if family in CLASSICAL_RANK_MIN:
        grid = ("--rank-max", str(CLASSICAL_RANK_MAX), "--q-max", str(CLASSICAL_Q_MAX))
    else:
        grid = ("--q-max", str(EXCEPTIONAL_Q_MAX))
    return ("sweep", "--families", family, *grid, "--jsonl")


def _sweep_grid(family: str) -> list[tuple[int | None, int]]:
    if family in CLASSICAL_RANK_MIN:
        qs = _prime_powers(CLASSICAL_Q_MAX)
        return [
            (rank, q)
            for rank in range(CLASSICAL_RANK_MIN[family], CLASSICAL_RANK_MAX + 1)
            for q in qs
        ]
    return [(None, q) for q in _prime_powers(EXCEPTIONAL_Q_MAX)]


def _sweep_check(family: str, grid: list, expect: dict, sha: str, rng: random.Random) -> Check:
    def check(out: bytes) -> str | None:
        got = sha256(out)
        if got != sha:
            return f"stdout sha256 {got} != golden {sha}"
        entries = [json.loads(line) for line in out.decode().splitlines()]
        if [(e["rank"], e["q"]) for e in entries] != grid:
            return f"{family}: points differ from the {len(grid)}-point grid"
        oks = [e for e in entries if e["status"] == "ok"]
        counts = {"points": len(entries), "checked": len(oks), "excluded": len(entries) - len(oks)}
        if counts != expect:
            return f"{family}: counts {counts} != {expect}"
        if any(e["status"] not in ("ok", "excluded") for e in entries):
            return f"{family}: unknown entry status"
        if not all(e["passed_pow14"] is True and e["passed_ratio165"] is True for e in oks):
            return f"{family}: a passed_* flag is not true"
        for e in rng.sample(oks, min(SWEEP_SAMPLE, len(oks))):
            alpha, beta, order = int(e["alpha"]), int(e["beta"]), int(e["order"])
            if not alpha ** 14 > beta ** 14 * order:
                return f"{family} q={e['q']}: alpha^14 > beta^14 |S| does not hold"
            if not 5 * int(e["ratio_alpha"]) >= 16 * int(e["ratio_beta"]):
                return f"{family} q={e['q']}: 5 alpha >= 16 beta does not hold"
        return None

    return check


def lie_sweep_pass(golden: dict, seed: int, k: int) -> tuple[list[Command], None]:
    rng = _rng("lie-sweep", seed, k)
    families = list(CLASSICAL_RANK_MIN) + list(EXCEPTIONAL)
    rng.shuffle(families)
    commands = []
    for fam in families:
        argv = sweep_argv(fam)
        entry = golden["commands"][" ".join(argv)]
        check = _sweep_check(fam, _sweep_grid(fam), entry["counts"], entry["sha256"], rng)
        commands.append(Command(argv, 0, check))
    return commands, None


# ---------------------------------------------------------------------------
# interval
# ---------------------------------------------------------------------------

# lemma43 costs about n**2 (measured when this benchmark was written).  Each
# pass asks for one pair (n1, n2) with n1**2 + n2**2 = 1000**2 + 350**2, n1 and
# n2 in 350..1000, so every pass holds about the same work, and for three n
# drawn within +-10 of LEMMA43_MID.  Sorted by cost, a pass is the four fixed
# commands, the three mid-size lemma43 runs and the pair, so both the median
# and the tail percentile (p72) fall inside the mid-size group, on a dozen
# samples a run, for every seed.
LEMMA43_PAIR = (350, 1000)
LEMMA43_MID = 250
LEMMA43_MID_JITTER = 10
INTERVAL_FIXED = (
    ("lemma46", "--n", "54", "--digits", "1"),
    ("lemma46", "--n", "55", "--digits", "1"),  # climbs 1 -> 2 -> 4 digits
    ("lemma46", "--n", "56", "--digits", "1"),
    ("lemma43", "--constant"),
)


def _lemma43_check(n: int) -> Check:
    expected = (json.dumps({"status": "pass", "n": n, "holds": True, "digits": 50}) + "\n").encode()

    def check(out: bytes) -> str | None:
        if out != expected:
            return f"lemma43 --n {n}: stdout {out[:80]!r} != {expected!r}"
        # Logarithms of both sides of (n!)^(13/14)/(n-1) > 1.35 (n/e)^(25n/28);
        # the margin is at least 0.09 on 15..1000, far above float error.
        lhs = 13 / 14 * math.lgamma(n + 1) - math.log(n - 1)
        rhs = math.log(1.35) + 25 * n / 28 * (math.log(n) - 1)
        if not lhs - rhs > 1e-6:
            return f"lemma43 --n {n}: the float oracle does not confirm the bound"
        return None

    return check


def interval_pass(golden: dict, seed: int, k: int) -> tuple[list[Command], None]:
    phase = _rng("interval", seed).random()
    u = _frac(phase + k * GOLDEN_STEP)
    lo, hi = LEMMA43_PAIR
    norm = lo * lo + hi * hi
    n1 = lo + int(u * (math.isqrt(norm // 2) - lo + 1))
    n2 = math.isqrt(norm - n1 * n1)
    mids = [
        LEMMA43_MID - LEMMA43_MID_JITTER + int(_frac(u + j / 3) * (2 * LEMMA43_MID_JITTER + 1))
        for j in range(3)
    ]
    commands = [
        Command(("lemma43", "--n", str(n)), 0, _lemma43_check(n)) for n in (n1, n2, *mids)
    ]
    commands += [golden_command(golden, argv) for argv in INTERVAL_FIXED]
    _rng("interval", seed, k).shuffle(commands)
    return commands, None


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_SERIES = json.dumps(
    {
        "factors": [
            {"label": "A8", "order": "20160", "multiplicity": 2},
            {"label": "C2", "order": "2", "abelian": True},
            {"label": "PSL2(7)", "order": "168", "psl2": True},
            {"label": "M11", "order": "7920"},
        ]
    }
)

LIE_POINTS = (
    ("linear", "4", "2"),
    ("unitary", "4", "3"),
    ("symplectic", "3", "5"),
    ("orth_odd", "3", "3"),
    ("orth_plus", "4", "2"),
    ("orth_minus", "5", "3"),
    ("E8", None, "2"),
    ("G2", None, "3"),
    ("2B2", None, "8"),
    ("2G2", None, "27"),
    ("3D4", None, "2"),
    ("F4", None, "2"),
    ("2F4", None, "8"),
    ("E6", None, "2"),
    ("2E6", None, "3"),
    ("E7", None, "2"),
)


def _lie_variants(cmd: str) -> list[tuple[str, ...]]:
    out = []
    for fam, rank, q in LIE_POINTS:
        argv = (cmd, "--family", fam) + (("--rank", rank) if rank else ()) + ("--q", q)
        out.append(argv)
    return out


def _split(*texts: str) -> list[tuple[str, ...]]:
    return [tuple(t.split()) for t in texts]


# One entry per template; every pass runs each template once, with the
# variant drawn by the seed.  Every variant is in golden.json.
QUERY_TEMPLATES: dict[str, list[tuple[str, ...]]] = {
    "hook": _split(
        "hook --partition 3,2,2",
        "hook --partition 5,4,4,4,3,3,1",
        "hook --partition 6^3,2",
        "hook --partition 10,7,3,1",
        "hook --partition 8,8,5,2,1",
    ),
    "degree": _split(
        "degree --partition 7^7",
        "degree --partition 9,6,3",
        "degree --partition 12,5,5,1",
        "degree --partition 20,10,5",
    ),
    "conjugate": _split(
        "conjugate --partition 5,3,1",
        "conjugate --partition 6,6,2,2",
        "conjugate --partition 9,1^4",
    ),
    "gamma": _split("gamma --m 3", "gamma --m 5", "gamma --m 6 --size 40"),
    "prop42": _split("prop42 --n 7", "prop42 --n 40", "prop42 --n 60 --best", "prop42 --n 100"),
    "lemma43": _split("lemma43 --n 15", "lemma43 --n 30", "lemma43 --constant"),
    "lemma45": _split("lemma45 --m 4", "lemma45 --m 6", "lemma45 --m 8"),
    "lemma46": _split("lemma46 --n 55", "lemma46 --n 100", "lemma46 --n 56 --digits 1"),
    "cyclotomic": _split(
        "cyclotomic --k 12 --q 2", "cyclotomic --k 105 --q 3", "cyclotomic --k 210"
    ),
    "order": _lie_variants("order"),
    "steinberg": _lie_variants("steinberg"),
    "beta": _lie_variants("beta"),
    "thm21": _lie_variants("thm21"),
    "lemma61": _lie_variants("lemma61"),
    "sweep": _split(
        "sweep --families linear --rank-max 5 --q-max 9",
        "sweep --families G2,3D4 --q-max 64 --csv",
        "sweep --families classical --rank-max 4 --q-max 8 --jsonl",
    ),
    "rat": _split(
        "rat --degrees 1,20,35,45,63,64",
        "rat --degrees 1,3,3,4,5",
        "rat --degrees 1,1,2,3",
    ),
    "sporadic-check": _split("sporadic-check --data data"),
    "validate-data": _split("validate-data --data data"),
    "out-bound": _split(
        "out-bound --x 2 --y 60 --num 259 --den 1000",
        "out-bound --x 5 --y 7920 --num 1 --den 5",
    ),
    "chiefseries-bound": [("chiefseries-bound", "--json", _SERIES)],
    "prop23": _split(
        "prop23 --rat-g 2 --rat-gn 1 --order-n 16384",
        "prop23 --rat-g 16/5 --rat-gn 1 --order-n 20160",
    ),
    "maroti": _split("maroti --n 5 --d 4", "maroti --n 12 --d 5", "maroti --n 30 --d 8"),
    "prop32": _split("prop32 --order 60", "prop32 --order 20160", "prop32 --order 1000000007"),
    "thmB": _split("thmB --rat 16/5 --index 20000000000", "thmB --rat 3 --index 12345"),
    "example-frobenius": _split(
        "example-frobenius --p 7 --m 3", "example-frobenius --p 1009 --m 4"
    ),
    "example-extraspecial": _split(
        "example-extraspecial --p 2 --i 10", "example-extraspecial --p 3 --i 6"
    ),
    # Inputs that must be rejected with exit code 2.
    "reject-q": _split(
        "thm21 --family linear --rank 4 --q 6",
        "order --family unitary --rank 3 --q 10",
        "beta --family E6 --q 12",
    ),
    "reject-rank": _split(
        "thm21 --family linear --rank 1 --q 4",
        "order --family orth_plus --rank 3 --q 2",
    ),
    "reject-n": _split("prop42 --n 5"),
    # A large prime q: make_spec factors it before the family rejects it.
    "reject-large-q": _split("thm21 --family 2B2 --q 1000000000039"),
}

REJECTION_LIMIT_S = 5.0


def all_query_variants() -> list[tuple[str, ...]]:
    return [argv for variants in QUERY_TEMPLATES.values() for argv in variants]


def _degree_check(argv: tuple[str, ...], inner: Check) -> Check:
    """Recompute hook/degree answers from the FRT formula on top of the digest."""
    parts = []
    for term in argv[argv.index("--partition") + 1].split(","):
        val, _, count = term.partition("^")
        parts += [int(val)] * int(count or 1)

    def check(out: bytes) -> str | None:
        problem = inner(out)
        if problem:
            return problem
        doc = json.loads(out)
        h = frt_hook_product(parts)
        if doc["degree"] != str(math.factorial(sum(parts)) // h):
            return f"{' '.join(argv)}: degree differs from n!/H by FRT"
        if "H" in doc and doc["H"] != str(h):
            return f"{' '.join(argv)}: H differs from FRT"
        return None

    return check


def _rat_check(argv: tuple[str, ...], inner: Check) -> Check:
    degrees = [int(d) for d in argv[-1].split(",")]
    nonlinear = [d for d in degrees if d > 1]
    value = Fraction(max(nonlinear), min(nonlinear)) if nonlinear else Fraction(1)

    def check(out: bytes) -> str | None:
        problem = inner(out)
        if problem:
            return problem
        if Fraction(json.loads(out)["rat"]) != value:
            return f"{' '.join(argv)}: rat differs from max/min nonlinear degree"
        return None

    return check


def queries_pass(golden: dict, seed: int, k: int) -> tuple[list[Command], None]:
    rng = _rng("queries", seed, k)
    commands = []
    for name, variants in QUERY_TEMPLATES.items():
        argv = variants[rng.randrange(len(variants))]
        limit = REJECTION_LIMIT_S if name.startswith("reject") else 60.0
        cmd = golden_command(golden, argv, limit)
        if name in ("hook", "degree"):
            cmd = Command(argv, cmd.expect_rc, _degree_check(argv, cmd.check), limit)
        elif name == "rat":
            cmd = Command(argv, cmd.expect_rc, _rat_check(argv, cmd.check), limit)
        commands.append(cmd)
    rng.shuffle(commands)
    return commands, None


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[dict, int, int], tuple[list[Command], "Check | None"]]
    # A run makes at least this many passes, so that the fixed tail percentile
    # has at least ten samples beyond it.
    min_passes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("witness", witness_pass, 5),
        Workload("lie-sweep", lie_sweep_pass, 3),
        Workload("interval", interval_pass, 4),
        Workload("queries", queries_pass, 4),
    )
}
