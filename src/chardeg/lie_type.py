"""Simple groups of Lie type: exact orders, Steinberg degrees, and one
companion unipotent degree per family, with exact verification of the two
degree-ratio inequalities

    alpha**14 > beta**14 * |S|        (power-gap check)
    5 * alpha >= 16 * beta            (minimum-ratio check)

where alpha is the Steinberg degree q**N (the p-part of |S|) and beta the
companion degree.  Each family is one row of the formula table _FAMILIES
(Carter, Finite Groups of Lie Type, 1985).  All divisions in the degree and
order formulas are asserted exact, so a transcription error cannot pass
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, isqrt, prod
from typing import Callable, Iterable

from .exact_arith import Ordering, cmp_power, cyclotomic, is_prime, nth_root_floor

__all__ = [
    "Family",
    "CLASSICAL_FAMILIES",
    "EXCEPTIONAL_FAMILIES",
    "GroupSpec",
    "InvalidSpec",
    "CharPair",
    "GapReport",
    "SweepRecord",
    "Exclusion",
    "make_spec",
    "validate",
    "order",
    "steinberg_degree",
    "beta_degree",
    "check_steinberg_gap",
    "check_min_ratio",
    "sweep",
    "prime_powers",
]


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


CLASSICAL_FAMILIES = frozenset(
    {
        Family.LINEAR,
        Family.UNITARY,
        Family.SYMPLECTIC,
        Family.ORTH_ODD,
        Family.ORTH_PLUS,
        Family.ORTH_MINUS,
    }
)
EXCEPTIONAL_FAMILIES = frozenset(Family) - CLASSICAL_FAMILIES


class InvalidSpec(ValueError):
    """A parameter point outside the registry; reason is the text validate
    returned for it."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"invalid group spec ({reason})")


@dataclass(frozen=True)
class GroupSpec:
    """One parameter point: family, rank parameter (None for the fixed-rank
    exceptional families), and q = p**e.  Construction validates the point
    and raises InvalidSpec when it is not covered, so every GroupSpec names
    a simple group of the registry."""

    family: Family
    rank: int | None
    q: int
    p: int
    e: int

    def __post_init__(self) -> None:
        reason = validate(self.family, self.rank, self.q, self.p, self.e)
        if reason is not None:
            raise InvalidSpec(reason)


@dataclass(frozen=True)
class CharPair:
    """A Steinberg degree together with the companion degree and its label."""

    alpha_degree: int
    beta_degree: int
    beta_label: str


@dataclass(frozen=True)
class GapReport:
    spec: GroupSpec
    pair: CharPair
    order: int
    passed_pow14: bool
    passed_ratio165: bool


@dataclass(frozen=True)
class Exclusion:
    family: Family
    rank: int | None
    q: int
    reason: str


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division {a} / {b}")
    return q


# ---------------------------------------------------------------------------
# The formula table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Formulas:
    """One family's formulas, as functions of the rank n (None for the
    fixed-rank families) and q:

        |S|   = q**N(n) * prod(q**d - eps for d, eps in factors(n)) / divisor(n, q)
        beta  = numerator / denominator, with (numerator, denominator) = beta(n, q)
    """

    rank_min: int | None  # None for the exceptional families
    steinberg_exp: Callable[[int | None], int]
    factors: Callable[[int | None], Iterable[tuple[int, int]]]
    divisor: Callable[[int | None, int], int]  # the centre gcd, and q**4 - 1 for 3D4
    beta: Callable[[int | None, int], tuple[int, int]]
    beta_label: str


def _exceptional(N, factors, beta, label, divisor=lambda n, q: 1) -> _Formulas:
    return _Formulas(None, lambda n: N, lambda n: factors, divisor, beta, label)


def _q_phis(*ks: int, den: int = 1):
    """The companion degree q * prod(Phi_k(q) for k in ks) / den."""
    return lambda n, q: (q * prod(cyclotomic(k)(q) for k in ks), den)


_SYMPLECTIC = _Formulas(
    2,
    lambda n: n * n,
    lambda n: [(2 * i, 1) for i in range(1, n + 1)],
    lambda n, q: gcd(2, q - 1),
    lambda n, q: ((q ** n - 1) * (q ** n - q), 2 * (q + 1)),
    "(0,1,n;-)",
)

# The even-orthogonal companion degrees use q**(n-1) in their second factor:
# those products are divisible by q**2 - 1 for every n and match the rank-3
# singular-point permutation character decompositions exactly; the q**n
# variants fail integrality for every other parity of n.  For the Suzuki and
# small Ree families q = r**(2f+1), so isqrt(q // r) = r**f exactly.
_FAMILIES: dict[Family, _Formulas] = {
    Family.LINEAR: _Formulas(
        3,
        lambda n: n * (n - 1) // 2,
        lambda n: [(i, 1) for i in range(2, n + 1)],
        lambda n, q: gcd(n, q - 1),
        lambda n, q: (q ** n - q, q - 1),
        "(n-1,1)",
    ),
    Family.UNITARY: _Formulas(
        3,
        lambda n: n * (n - 1) // 2,
        lambda n: [(i, (-1) ** i) for i in range(2, n + 1)],
        lambda n, q: gcd(n, q + 1),
        lambda n, q: (q ** n + q * (-1) ** n, q + 1),
        "(n-1,1)",
    ),
    Family.SYMPLECTIC: _SYMPLECTIC,
    Family.ORTH_ODD: _SYMPLECTIC,
    Family.ORTH_PLUS: _Formulas(
        4,
        lambda n: n * (n - 1),
        lambda n: [(n, 1)] + [(2 * i, 1) for i in range(1, n)],
        lambda n, q: gcd(4, q ** n - 1),
        lambda n, q: ((q ** n - 1) * (q ** (n - 1) + q), q ** 2 - 1),
        "(n-1;1)",
    ),
    Family.ORTH_MINUS: _Formulas(
        4,
        lambda n: n * (n - 1),
        lambda n: [(n, -1)] + [(2 * i, 1) for i in range(1, n)],
        lambda n, q: gcd(4, q ** n + 1),
        lambda n, q: ((q ** n + 1) * (q ** (n - 1) - q), q ** 2 - 1),
        "(1,n-1;-)",
    ),
    Family.SUZUKI_2B2: _exceptional(
        2, ((2, -1), (1, 1)), lambda n, q: ((q - 1) * isqrt(q // 2), 1), "2B2[a]"
    ),
    # q**8 + q**4 + 1 = (q**12 - 1) / (q**4 - 1); the centre is trivial.
    Family.TRIALITY_3D4: _exceptional(
        12, ((12, 1), (6, 1), (2, 1)), _q_phis(12), "phi'_{1,3}", lambda n, q: q ** 4 - 1
    ),
    Family.G2: _exceptional(6, ((6, 1), (2, 1)), _q_phis(2, 2, 3, den=6), "phi_{2,1}"),
    Family.REE_2G2: _exceptional(
        3, ((3, -1), (1, 1)), lambda n, q: ((q * q - 1) * isqrt(q // 3), 1), "cuspidal"
    ),
    Family.F4: _exceptional(
        24, ((12, 1), (8, 1), (6, 1), (2, 1)), _q_phis(2, 2, 6, 6, 8, den=2), "phi_{4,1}"
    ),
    Family.REE_2F4: _exceptional(
        12, ((6, -1), (4, 1), (3, -1), (1, 1)), _q_phis(6, 12), "epsilon'"
    ),
    Family.E6: _exceptional(
        36,
        ((12, 1), (9, 1), (8, 1), (6, 1), (5, 1), (2, 1)),
        _q_phis(8, 9),
        "phi_{6,1}",
        lambda n, q: gcd(3, q - 1),
    ),
    Family.TWISTED_E6: _exceptional(
        36,
        ((12, 1), (9, -1), (8, 1), (6, 1), (5, -1), (2, 1)),
        _q_phis(8, 18),
        "phi'_{2,4}",
        lambda n, q: gcd(3, q + 1),
    ),
    Family.E7: _exceptional(
        63,
        ((18, 1), (14, 1), (12, 1), (10, 1), (8, 1), (6, 1), (2, 1)),
        _q_phis(7, 12, 14),
        "phi_{7,1}",
        lambda n, q: gcd(2, q - 1),
    ),
    Family.E8: _exceptional(
        120,
        ((30, 1), (24, 1), (20, 1), (18, 1), (14, 1), (12, 1), (8, 1), (2, 1)),
        _q_phis(4, 4, 8, 12, 20, 24),
        "phi_{8,1}",
    ),
}


# ---------------------------------------------------------------------------
# Parameter points
# ---------------------------------------------------------------------------


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p**e and p prime, from exact integer e-th roots."""
    if q < 2:
        raise ValueError("q must be at least 2")
    for e in range(q.bit_length(), 0, -1):
        p = nth_root_floor(q, e)
        if p ** e == q and is_prime(p):
            return p, e
    raise ValueError(f"q = {q} is not a prime power")


def make_spec(family: Family, q: int, rank: int | None = None) -> GroupSpec:
    family = Family(family)
    p, e = _factor_prime_power(q)
    if family in CLASSICAL_FAMILIES and rank is None:
        raise ValueError(f"family {family.value} requires a rank parameter")
    if family in EXCEPTIONAL_FAMILIES:
        rank = None
    return GroupSpec(family, rank, q, p, e)


def validate(fam: Family, n: int | None, q: int, p: int, e: int) -> str | None:
    """None when the point names a simple group this registry covers,
    otherwise the exclusion reason that fired.  GroupSpec calls this once,
    when it is built."""
    if p ** e != q or not is_prime(p):
        return "q is not a prime power"
    if fam in CLASSICAL_FAMILIES:
        if n is None:
            return "missing rank"
        if fam in (Family.LINEAR, Family.UNITARY) and n == 2:
            return "PSL_2"
        if fam in (Family.SYMPLECTIC, Family.ORTH_ODD) and n == 1:
            return "PSL_2"
        rank_min = _FAMILIES[fam].rank_min
        if n < rank_min:
            return f"rank below minimum {rank_min} for {fam.value}"
        if fam is Family.LINEAR and n == 3 and q == 2:
            return "not simple at this point (isomorphic to PSL_2(7))"
        if fam is Family.UNITARY and n == 3 and q == 2:
            return "not simple"
        if fam is Family.SYMPLECTIC and n == 2 and q == 2:
            return "not simple"
        if fam is Family.ORTH_ODD and n == 2 and q == 2:
            return "not simple (isomorphic to the symplectic point n=2, q=2)"
        return None
    if fam is Family.G2 and q == 2:
        return "not simple (the derived subgroup is proper)"
    if fam in (Family.SUZUKI_2B2, Family.REE_2F4):
        if p != 2 or e % 2 == 0 or e < 3:
            return "q must be 2**(2f+1) with f >= 1"
        return None
    if fam is Family.REE_2G2:
        if p != 3 or e % 2 == 0 or e < 3:
            return "q must be 3**(2f+1) with f >= 1"
        return None
    return None


# ---------------------------------------------------------------------------
# Orders, degrees and the two checks
# ---------------------------------------------------------------------------


def order(spec: GroupSpec) -> int:
    """Exact group order from the family's product formula, including the
    centre gcd factor for the projective families."""
    f, n, q = _FAMILIES[spec.family], spec.rank, spec.q
    raw = q ** f.steinberg_exp(n) * prod(q ** d - eps for d, eps in f.factors(n))
    return _exact_div(raw, f.divisor(n, q))


def steinberg_degree(spec: GroupSpec) -> int:
    """The p-part q**N of the group order: N = n(n-1)/2 for linear/unitary,
    n*n for symplectic/odd-orthogonal, n(n-1) for even orthogonal, and the
    fixed exponents of the exceptional families."""
    return spec.q ** _FAMILIES[spec.family].steinberg_exp(spec.rank)


def beta_degree(spec: GroupSpec) -> CharPair:
    """The companion unipotent degree used opposite the Steinberg degree.

    Classical families:
      linear     (q**n - q) / (q - 1)                label (n-1,1)
      unitary    (q**n + q*(-1)**n) / (q + 1)        label (n-1,1)
      symplectic/odd orthogonal
                 (q**n - 1)(q**n - q) / (2(q + 1))   label (0,1,n;-)
      plus  orthogonal  (q**n - 1)(q**(n-1) + q) / (q**2 - 1)  label (n-1;1)
      minus orthogonal  (q**n + 1)(q**(n-1) - q) / (q**2 - 1)  label (1,n-1;-)

    Exceptional families evaluate cyclotomic products; every division is
    checked.
    """
    f = _FAMILIES[spec.family]
    num, den = f.beta(spec.rank, spec.q)
    return CharPair(steinberg_degree(spec), _exact_div(num, den), f.beta_label)


# For the linear group of rank 3 over GF(3) the standard pair has ratio
# 27/12 < 16/5; the minimum-ratio check uses the degrees 39 and 12 instead.
_RATIO_OVERRIDES = {(Family.LINEAR, 3, 3): CharPair(39, 12, "degrees 39 and 12")}


def _passes_pow14(pair: CharPair, o: int) -> bool:
    lhs = ((pair.alpha_degree, 14),)
    return cmp_power(lhs, ((pair.beta_degree, 14), (o, 1))) is Ordering.GREATER


def _passes_ratio165(pair: CharPair) -> bool:
    return 5 * pair.alpha_degree >= 16 * pair.beta_degree


def _report(spec: GroupSpec, pair: CharPair) -> GapReport:
    o = order(spec)
    return GapReport(spec, pair, o, _passes_pow14(pair, o), _passes_ratio165(pair))


def check_steinberg_gap(spec: GroupSpec) -> GapReport:
    """Exact verdict on alpha**14 > beta**14 * |S| for the standard pair."""
    return _report(spec, beta_degree(spec))


def check_min_ratio(spec: GroupSpec) -> GapReport:
    """Exact verdict on 5*alpha >= 16*beta, with the per-point override
    pair where one is registered."""
    override = _RATIO_OVERRIDES.get((spec.family, spec.rank, spec.q))
    return _report(spec, override or beta_degree(spec))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """All (q, p, e) with q = p**e <= limit, ascending in q; sieve-based."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            q, e = p, 1
            while q <= limit:
                out.append((q, p, e))
                q *= p
                e += 1
    out.sort()
    return out


@dataclass(frozen=True)
class SweepRecord:
    """Both checks at one parameter point.  gap_pair is always the Steinberg
    pair; ratio_pair may be the per-point override."""

    spec: GroupSpec
    order: int
    gap_pair: CharPair
    passed_pow14: bool
    ratio_pair: CharPair
    passed_ratio165: bool


def _sweep_point(
    fam: Family, rank: int | None, q: int, p: int, e: int
) -> SweepRecord | Exclusion:
    try:
        spec = GroupSpec(fam, rank, q, p, e)
    except InvalidSpec as exc:
        return Exclusion(fam, rank, q, exc.reason)
    o = order(spec)
    pair = beta_degree(spec)
    ratio_pair = _RATIO_OVERRIDES.get((fam, rank, q), pair)
    return SweepRecord(
        spec, o, pair, _passes_pow14(pair, o), ratio_pair, _passes_ratio165(ratio_pair)
    )


def sweep(
    families: Iterable[Family] | None = None,
    rank_max: int = 20,
    q_max: int = 32,
) -> list[SweepRecord | Exclusion]:
    """Evaluate both ratio checks on every parameter point of the requested
    families with rank <= rank_max and prime-power q <= q_max.

    Excluded points are reported as Exclusion entries with the reason their
    validation gave.  The output order is deterministic: family declaration
    order, then rank, then q.
    """
    fams = set(Family) if families is None else {Family(f) for f in families}
    pps = prime_powers(q_max)
    out = []
    for fam in Family:
        if fam not in fams:
            continue
        rank_min = _FAMILIES[fam].rank_min
        ranks = (None,) if rank_min is None else range(rank_min, rank_max + 1)
        for rank in ranks:
            out.extend(_sweep_point(fam, rank, q, p, e) for q, p, e in pps)
    return out
