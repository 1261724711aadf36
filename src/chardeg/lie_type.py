"""Simple groups of Lie type: exact orders, Steinberg degrees, and one
companion unipotent degree per family, with exact verification of the two
degree-ratio inequalities

    alpha**14 > beta**14 * |S|        (power-gap check)
    5 * alpha >= 16 * beta            (minimum-ratio check)

where alpha is the Steinberg degree q**N (the p-part of |S|) and beta the
companion degree.  Each family is one row of the formula table _FAMILIES
(Carter, Finite Groups of Lie Type, 1985), and every order and degree in it
has one shape, a quotient of binomials q**d - eps:

    q**a * isqrt(q // p)**h * prod(q**d - eps for d, eps in num)
      / (c * prod(q**d - eps for d, eps in den) * gcd(k, q**j - eps'))

The gcd is the centre of the order (k = 1 where there is none and for every
companion degree), h is nonzero only for 2B2 and 2G2, and alpha is q**a of
the order.  Every division is asserted exact, so a transcription error
cannot pass silently.  PSU_n and 2E6 are the rows of PSL_n and E6 at
eps = -1, not a second transcription: by Ennola duality (GU_n(q) is
GL_n(-q); Ennola 1963, Carter 13.8) they replace q by -q.

The row also holds the exclusions validate reads (the PSL_2 rank, the
(rank, q) points left out, and for Suzuki and Ree the p of q = p**(2f+1))
and the pair the minimum-ratio check reads where the Steinberg pair's ratio
is below 16/5 (PSL_3(3): 39 and 12).  make_spec and sweep read the q-degree
of the order row: before q is factored or a point checked, they refuse a
point or grid whose order could exceed POWER_MAX_BITS bits, and a grid whose
orders could total more than SWEEP_MAX_BITS bits.

check_point is the one per-point API: its SweepRecord holds the order, the
Steinberg pair and both verdicts.  It and sweep share one kernel, which takes
the point's family row as its caller read it, builds alpha = q**a once, as
the Steinberg degree and as the leading factor of the order, and decides
both checks.  A sweep reads each (family, rank) row once and evaluates each
point of its grid once, through that kernel; a point GroupSpec refuses
becomes an Exclusion with the reason of its InvalidSpec.

GroupSpec, CharPair, Exclusion and SweepRecord are immutable NamedTuples
compared by value; GroupSpec validates its point in __new__, the one gate
every point passes, make_spec's and sweep's alike.
"""

from enum import Enum
from functools import partial
from math import gcd, isqrt
from typing import Callable, Iterable, Mapping, NamedTuple

from .exact_arith import check_power_bits, cmp_power, is_prime, prime_power, primes

__all__ = [
    "Family",
    "CLASSICAL_FAMILIES",
    "EXCEPTIONAL_FAMILIES",
    "GroupSpec",
    "InvalidSpec",
    "CharPair",
    "SweepRecord",
    "Exclusion",
    "make_spec",
    "validate",
    "check_point",
    "sweep",
    "prime_powers",
    "MAX_RANK",
    "SWEEP_MAX_Q",
    "SWEEP_MAX_BITS",
]

# Refused rather than run for minutes: an order has about rank**2 * log2(q)
# bits, and a sweep sieves every q up to its q_max.  A grid's orders total at
# most the sum over its points of q-degree times bitlen(q) bits, and a sweep
# peaks at about 2 bytes of memory per such bit.
MAX_RANK = 100
SWEEP_MAX_Q = 2 ** 16
SWEEP_MAX_BITS = 2 ** 28


class Family(str, Enum):
    LINEAR = "linear"            # PSL_n(q), n >= 3
    UNITARY = "unitary"          # PSU_n(q), n >= 3
    SYMPLECTIC = "symplectic"    # PSp_{2n}(q), n >= 2
    ORTH_ODD = "orth_odd"        # Omega_{2n+1}(q), n >= 2
    ORTH_PLUS = "orth_plus"      # POmega+_{2n}(q), n >= 4
    ORTH_MINUS = "orth_minus"    # POmega-_{2n}(q), n >= 4
    SUZUKI_2B2 = "2B2"
    TRIALITY_3D4 = "3D4"
    G2 = "G2"
    REE_2G2 = "2G2"
    F4 = "F4"
    REE_2F4 = "2F4"
    E6 = "E6"
    TWISTED_E6 = "2E6"
    E7 = "E7"
    E8 = "E8"


class InvalidSpec(ValueError):
    """A parameter point outside the registry; reason is the text validate
    returned for it."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"invalid group spec ({reason})")


class _GroupSpecFields(NamedTuple):
    family: Family
    rank: int | None
    q: int
    p: int
    e: int


class GroupSpec(_GroupSpecFields):
    """One parameter point: family, rank parameter (None for the fixed-rank
    exceptional families), and q = p**e.  Construction validates the point
    and raises InvalidSpec when it is not covered, so every GroupSpec names
    a simple group of the registry."""

    __slots__ = ()

    def __new__(cls, family: Family, rank: int | None, q: int, p: int, e: int):
        reason = validate(family, rank, q, p, e)
        if reason is not None:
            raise InvalidSpec(reason)
        return super().__new__(cls, family, rank, q, p, e)


class CharPair(NamedTuple):
    """A Steinberg degree together with the companion degree and its label."""

    alpha_degree: int
    beta_degree: int
    beta_label: str


class Exclusion(NamedTuple):
    family: Family
    rank: int | None
    q: int
    reason: str


# ---------------------------------------------------------------------------
# The formula table
# ---------------------------------------------------------------------------

_Binomials = tuple[tuple[int, int], ...]  # (d, eps) is the factor q**d - eps


class _Value(NamedTuple):
    """An order or a degree in the row shape of the module docstring; centre
    is (k, j, eps') for the factor gcd(k, q**j - eps') of the denominator."""

    a: int
    num: _Binomials
    den: _Binomials = ()
    c: int = 1
    centre: tuple[int, int, int] = (1, 1, 1)
    h: int = 0


def _evaluate(v: _Value, q: int, p: int, top: int) -> int:
    # top is q**v.a, built by the caller.  The centre gcd is taken modulo k,
    # so q**j is not built.
    if v.h:
        top *= isqrt(q // p) ** v.h
    for d, e in v.num:
        top *= q ** d - e
    bottom = v.c
    for d, e in v.den:
        bottom *= q ** d - e
    k, j, eps = v.centre
    if k != 1:
        bottom *= gcd(k, pow(q, j, k) - eps)
    if bottom == 1:
        return top
    quo, rem = divmod(top, bottom)
    if rem:
        raise ArithmeticError(f"inexact division {top} / {bottom}")
    return quo


class _Family(NamedTuple):
    rank_min: int | None  # None for the exceptional families
    beta_label: str
    # (order, beta): a function of the rank n, or for the exceptional
    # families the constant pair itself
    rows: Callable[[int], tuple[_Value, _Value]] | tuple[_Value, _Value]
    psl2_rank: int | None = None  # the rank at which the family is PSL_2
    not_simple: Mapping[tuple[int | None, int], str] = {}  # (rank, q) -> reason
    ratio_overrides: Mapping[tuple[int | None, int], CharPair] = {}  # (rank, q) -> ratio pair
    twisted_p: int | None = None  # q must be twisted_p**(2f+1), f >= 1


# At eps = -1, q -> -q: each q**d - e becomes q**d - eps**d * e up to sign,
# and the centre gcd(k, q - 1) becomes gcd(k, q + 1).
def _linear(eps: int, n: int) -> tuple[_Value, _Value]:
    return (
        _Value(
            n * (n - 1) // 2, tuple((i, eps ** i) for i in range(2, n + 1)), centre=(n, 1, eps)
        ),
        _Value(1, ((n - 1, eps ** (n - 1)),), ((1, eps),)),
    )


def _e6(eps: int) -> tuple[_Value, _Value]:
    return (
        _Value(36, ((12, 1), (9, eps), (8, 1), (6, 1), (5, eps), (2, 1)), centre=(3, 1, eps)),
        _Value(1, ((4, -1), (9, eps)), ((3, eps),)),
    )


def _symplectic(n: int) -> tuple[_Value, _Value]:
    return (
        _Value(n * n, tuple((2 * i, 1) for i in range(1, n + 1)), centre=(2, 1, 1)),
        _Value(1, ((n, 1), (n - 1, 1)), ((1, -1),), c=2),
    )


# The even-orthogonal companion degrees carry q**(n-2) + eps as their second
# factor: the products are divisible by q**2 - 1 for every n and match the
# rank-3 singular-point permutation character decompositions exactly;
# q**(n-1) + eps in its place is not an integer at every other n (odd n for
# the plus type, even n for the minus type).
def _even_orthogonal(eps: int, n: int) -> tuple[_Value, _Value]:
    return (
        _Value(
            n * (n - 1),
            ((n, eps),) + tuple((2 * i, 1) for i in range(1, n)),
            centre=(4, n, eps),
        ),
        _Value(1, ((n, eps), (n - 2, -eps)), ((2, 1),)),
    )


# For the Suzuki and Ree families q = p**(2f+1), so h = 1 contributes
# isqrt(q // p) = p**f exactly.  f = 0 is excluded: 2B2(2) is solvable,
# 2G2(3) is PSL_2(8):3 and 2F4(2) is the Tits group extended by 2.
_FAMILIES: dict[Family, _Family] = {
    Family.LINEAR: _Family(3, "(n-1,1)", partial(_linear, 1), 2, {
        # PSL_3(2) is simple; it is left out because it is PSL_2(7), and the
        # theorems leave out PSL_2.  The golden sweep digests pin this text.
        (3, 2): "not simple at this point (isomorphic to PSL_2(7))"},
        ratio_overrides={(3, 3): CharPair(39, 12, "degrees 39 and 12")}),
    Family.UNITARY: _Family(3, "(n-1,1)", partial(_linear, -1), 2, {(3, 2): "not simple"}),
    Family.SYMPLECTIC: _Family(2, "(0,1,n;-)", _symplectic, 1, {(2, 2): "not simple"}),
    Family.ORTH_ODD: _Family(2, "(0,1,n;-)", _symplectic, 1, {
        (2, 2): "not simple (isomorphic to the symplectic point n=2, q=2)"}),
    Family.ORTH_PLUS: _Family(4, "(n-1;1)", partial(_even_orthogonal, 1)),
    Family.ORTH_MINUS: _Family(4, "(1,n-1;-)", partial(_even_orthogonal, -1)),
    Family.SUZUKI_2B2: _Family(None, "2B2[a]", (
        _Value(2, ((2, -1), (1, 1))),
        _Value(0, ((1, 1),), h=1)), twisted_p=2),
    # q**8 + q**4 + 1 = (q**12 - 1) / (q**4 - 1)
    Family.TRIALITY_3D4: _Family(None, "phi'_{1,3}", (
        _Value(12, ((12, 1), (6, 1), (2, 1)), ((4, 1),)),
        _Value(1, ((6, -1),), ((2, -1),)))),
    Family.G2: _Family(None, "phi_{2,1}", (
        _Value(6, ((6, 1), (2, 1))),
        _Value(1, ((1, -1), (1, -1), (3, 1)), ((1, 1),), c=6)), not_simple={
        (None, 2): "not simple (the derived subgroup is proper)"}),
    Family.REE_2G2: _Family(None, "cuspidal", (
        _Value(3, ((3, -1), (1, 1))),
        _Value(0, ((2, 1),), h=1)), twisted_p=3),
    Family.F4: _Family(None, "phi_{4,1}", (
        _Value(24, ((12, 1), (8, 1), (6, 1), (2, 1))),
        _Value(1, ((3, -1), (3, -1), (4, -1)), c=2))),
    Family.REE_2F4: _Family(None, "epsilon'", (
        _Value(12, ((6, -1), (4, 1), (3, -1), (1, 1))),
        _Value(1, ((3, -1), (6, -1)), ((1, -1), (2, -1)))), twisted_p=2),
    Family.E6: _Family(None, "phi_{6,1}", _e6(1)),
    Family.TWISTED_E6: _Family(None, "phi'_{2,4}", _e6(-1)),
    Family.E7: _Family(None, "phi_{7,1}", (
        _Value(63, ((18, 1), (14, 1), (12, 1), (10, 1), (8, 1), (6, 1), (2, 1)), centre=(2, 1, 1)),
        _Value(1, ((14, 1), (6, -1)), ((4, 1),)))),
    Family.E8: _Family(None, "phi_{8,1}", (
        _Value(120, ((30, 1), (24, 1), (20, 1), (18, 1), (14, 1), (12, 1), (8, 1), (2, 1))),
        _Value(1, ((6, -1), (10, -1), (12, -1))))),
}

CLASSICAL_FAMILIES = frozenset(f for f, row in _FAMILIES.items() if row.rank_min is not None)
EXCEPTIONAL_FAMILIES = frozenset(Family) - CLASSICAL_FAMILIES


def _rows(family: Family, rank: int | None) -> tuple[_Value, _Value]:
    f = _FAMILIES[family]
    return f.rows if f.rank_min is None else f.rows(rank)


# ---------------------------------------------------------------------------
# Parameter points
# ---------------------------------------------------------------------------


def _degree(v: _Value) -> int:
    # The q-degree of a row: its value has at most that times bitlen(q) bits.
    return v.a + v.h + sum(d for d, _ in v.num) - sum(d for d, _ in v.den)


def _check_order_bits(family: Family, rank: int | None, q: int) -> None:
    # A rank below the minimum is read there; validate then gives the reason.
    rank_min = _FAMILIES[family].rank_min
    v = _rows(family, rank if rank_min is None else max(rank, rank_min))[0]
    check_power_bits(f"the order of {family.value}", _degree(v) * q.bit_length())


def make_spec(family: Family, q: int, rank: int | None = None) -> GroupSpec:
    """The validated point; raises ValueError before any arithmetic on q when
    the rank is missing or above MAX_RANK, or when the order, of q-degree
    a + h + sum(num d) - sum(den d) in its row, could exceed POWER_MAX_BITS."""
    family = Family(family)
    if family in CLASSICAL_FAMILIES:
        if rank is None:
            raise ValueError(f"family {family.value} requires a rank parameter")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} is above the maximum {MAX_RANK}")
    _check_order_bits(family, rank, q)
    if q < 2:
        raise ValueError("q must be at least 2")
    if (pe := prime_power(q)) is None:
        raise ValueError(f"q = {q} is not a prime power")
    return GroupSpec(family, rank, q, *pe)


def validate(fam: Family, n: int | None, q: int, p: int, e: int) -> str | None:
    """None when the point names a simple group this registry covers,
    otherwise the exclusion reason of the family's row that fired.
    GroupSpec calls this once, when it is built."""
    if p ** e != q or not is_prime(p):
        return "q is not a prime power"
    row = _FAMILIES[fam]
    if row.rank_min is None:
        if n is not None:
            return f"{fam.value} takes no rank parameter"
    elif n is None:
        return "missing rank"
    elif n == row.psl2_rank:
        return "PSL_2"
    elif n < row.rank_min:
        return f"rank below minimum {row.rank_min} for {fam.value}"
    t = row.twisted_p
    if t is not None and (p != t or e % 2 == 0 or e < 3):
        return f"q must be {t}**(2f+1) with f >= 1"
    return row.not_simple.get((n, q))


# ---------------------------------------------------------------------------
# The order, the degrees and the two checks
# ---------------------------------------------------------------------------


class SweepRecord(NamedTuple):
    """Both checks at one parameter point, as check_point decides them.
    gap_pair is always the Steinberg pair; ratio_pair may be the per-point
    override."""

    spec: GroupSpec
    order: int
    gap_pair: CharPair
    passed_pow14: bool
    ratio_pair: CharPair
    passed_ratio165: bool


def check_point(spec: GroupSpec) -> SweepRecord:
    """Exact verdicts on alpha**14 > beta**14 * |S| for the standard pair and
    on 5*alpha >= 16*beta for the ratio pair (the per-point override where
    one is registered), from one order and one companion degree."""
    return _check(spec, _FAMILIES[spec.family], _rows(spec.family, spec.rank))


def _check(spec: GroupSpec, row: _Family, rows: tuple[_Value, _Value]) -> SweepRecord:
    # The kernel check_point and sweep share: row and its rows at the point's
    # rank are read once by the caller, and alpha = q**a is built once, as
    # the Steinberg degree and as the leading factor of the order.
    q, p = spec.q, spec.p
    order_row, beta_row = rows
    alpha = q ** order_row.a
    o = _evaluate(order_row, q, p, alpha)
    pair = CharPair(alpha, _evaluate(beta_row, q, p, q ** beta_row.a), row.beta_label)
    ratio_pair = row.ratio_overrides.get((spec.rank, q), pair)
    pow14 = cmp_power(((alpha, 14),), ((pair.beta_degree, 14), (o, 1))) > 0
    ratio165 = 5 * ratio_pair.alpha_degree >= 16 * ratio_pair.beta_degree
    return SweepRecord(spec, o, pair, pow14, ratio_pair, ratio165)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """All (q, p, e) with q = p**e <= limit, ascending in q, from the primes
    exact_arith.primes sieves."""
    out = []
    for p in primes(limit):
        q, e = p, 1
        while q <= limit:
            out.append((q, p, e))
            q *= p
            e += 1
    out.sort()
    return out


def sweep(
    families: Iterable[Family] | None = None,
    rank_max: int = 20,
    q_max: int = 32,
) -> list[SweepRecord | Exclusion]:
    """Evaluate both ratio checks on every parameter point of the requested
    families with rank <= rank_max and prime-power q <= q_max.

    Excluded points are reported as Exclusion entries with the reason their
    validation gave.  The output order is deterministic: family declaration
    order, then rank, then q.  rank_max is at most MAX_RANK and q_max at
    most SWEEP_MAX_Q, and the grid is refused before any point is checked
    when the order at its largest rank and q_max could exceed POWER_MAX_BITS,
    or the orders of all its points together SWEEP_MAX_BITS.
    """
    if rank_max > MAX_RANK:
        raise ValueError(f"rank_max {rank_max} is above the maximum {MAX_RANK}")
    if q_max > SWEEP_MAX_Q:
        raise ValueError(f"q_max {q_max} is above the maximum {SWEEP_MAX_Q}")
    fams = set(Family) if families is None else {Family(f) for f in families}
    grid = []
    for fam in Family:
        if fam not in fams:
            continue
        rank_min = _FAMILIES[fam].rank_min
        ranks = (None,) if rank_min is None else range(rank_min, rank_max + 1)
        if ranks:
            _check_order_bits(fam, ranks[-1], q_max)
        grid += ((fam, rank, _rows(fam, rank)) for rank in ranks)
    pps = prime_powers(q_max)
    bits = sum(_degree(rows[0]) for _, _, rows in grid) * sum(q.bit_length() for q, _, _ in pps)
    if bits > SWEEP_MAX_BITS:
        raise ValueError(f"the grid's orders total up to {bits} bits, more than {SWEEP_MAX_BITS}")
    out = []
    for fam, rank, rows in grid:
        row = _FAMILIES[fam]
        for q, p, e in pps:
            try:
                spec = GroupSpec(fam, rank, q, p, e)
            except InvalidSpec as exc:
                out.append(Exclusion(fam, rank, q, exc.reason))
            else:
                out.append(_check(spec, row, rows))
    return out
