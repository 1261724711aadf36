"""Witness search for the symmetric/alternating degree-gap inequality.

For every n >= 7 there is a non-self-conjugate partition lam of n with

    (n!)**13 > (H_lam * (n-1))**14,

equivalently chi_lam(1) > (n!)**(1/14) * (n-1).  The search is exact: each
candidate is decided by one cmp_power of (n!)**13 against the factor
(H*(n-1), 14), not a built 14th power.  witness_range searches a range
of n and builds the margin evidence of each reported witness: it raises
(lo-1)! to the 13th power once and multiplies in n**13 for each n, and it
raises the reported x = H*(n-1) to the 14th power only at n = lo, then
builds each next report's x**14 from the previous x_prev**14 with
g = gcd(x, x_prev), one exact division by (x_prev/g)**14 and one
multiplication by (x/g)**14.  check_witness is the range of one n.  The
supporting analytic bounds (which involve e and pi) are decided by cmp_power
on integer enclosures lo <= c * 2**b <= hi of the constants and are
advisory; they can return None (inconclusive) without affecting any witness
certificate.  Their one precision rule is the digit ladder d, 2d, 4d, ... up
to MAX_DIGITS, starting at the requested digits: one enclosure per rung, at
b = ceil(3.322 * d) + 2 bits, so that it is narrower than 10**-d.
"""

import math
from typing import Iterator, NamedTuple

from .exact_arith import cmp_power, const_interval
from .partitions import Partition, enumerate_gamma, hook_product, partitions_of

__all__ = [
    "WitnessReport",
    "MarginEvidence",
    "square_fix",
    "check_witness",
    "witness_range",
    "check_factorial_lower",
    "check_hook_upper",
    "check_growth",
    "check_constant",
    "DEFAULT_DIGITS",
    "MAX_DIGITS",
    "MAX_N",
]

DEFAULT_DIGITS = 50
MAX_DIGITS = 400
# check_witness and check_factorial_lower refuse a larger n: at n = 2000 they
# take 0.01 s and 0.3 ms in-process (2-CPU x86-64 box; cmp_power decides the
# latter from leading bits, without building its 0.8 Mbit products), and
# prop42 over 7..2000 took 0.52-0.61 s as a command (wall time of six fresh
# processes on the same box, shared).
MAX_N = 2000

# Below this n the witness search is exhaustive over all partitions of n;
# for larger n the three-parts-window family around the square (m**2 <= n)
# is searched instead.  The two named witnesses for n = 7 and 8 are tried
# first so they are the ones reported.
EXHAUSTIVE_MAX = 48
PREFERRED_WITNESSES = {
    7: Partition((3, 2, 2)),
    8: Partition((4, 2, 2)),
}


class MarginEvidence(NamedTuple):
    """Fingerprint of the two compared integers (n!)**13 and (H*(n-1))**14."""

    lhs_bits: int
    rhs_bits: int
    lhs_sha256: str
    rhs_sha256: str


class WitnessReport(NamedTuple):
    n: int
    witness: Partition
    hook_product: int
    passed: bool
    margin: MarginEvidence
    candidates_tried: int


def square_fix(m: int) -> Partition:
    """(m+1, m**(m-2), m-1): the non-self-conjugate stand-in of size m*m used
    in place of the self-conjugate square (m**m)."""
    if m < 2:
        raise ValueError("square_fix requires m >= 2")
    return Partition((m + 1,) + (m,) * (m - 2) + (m - 1,))


def _gamma_candidates(n: int) -> Iterator[Partition]:
    m = math.isqrt(n)  # the window index: m*m <= n <= m*m + 2m
    for lam in enumerate_gamma(m, size=n):
        # A self-conjugate member has as many parts, m, as its largest part,
        # so it is (m**m), the only member of size n = m*m; substitute the
        # fixed square witness.
        yield square_fix(m) if n == m * m else lam


def _exhaustive_candidates(n: int) -> Iterator[Partition]:
    preferred = PREFERRED_WITNESSES.get(n)
    if preferred is not None:
        yield preferred
    for lam in partitions_of(n):
        if lam == preferred or lam.is_self_conjugate():
            continue
        yield lam


def _sha256_int(x: int) -> str:
    import hashlib  # only the witness path hashes; at the top every command pays for it

    return hashlib.sha256(x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")).hexdigest()


def _evidence(lhs: int, rhs: int) -> MarginEvidence:
    return MarginEvidence(
        lhs_bits=lhs.bit_length(),
        rhs_bits=rhs.bit_length(),
        lhs_sha256=_sha256_int(lhs),
        rhs_sha256=_sha256_int(rhs),
    )


def _carry(x: int, x_prev: int, rhs_prev: int) -> int:
    # x**14 from rhs_prev = x_prev**14: with g = gcd(x, x_prev), divide out
    # (x_prev/g)**14 and multiply in (x/g)**14.  Consecutive reports differ
    # by one box, so both quotients are small and no 14th power of x is built.
    g = math.gcd(x, x_prev)
    q, r = divmod(rhs_prev, (x_prev // g) ** 14)
    if r:
        raise ArithmeticError(f"{x_prev}**14 is not the carried power")
    return q * (x // g) ** 14


def _search(n: int, lhs: int, best: bool) -> tuple[bool, Partition, int, int]:
    # (passed, lam, H, tried) of the reported candidate: each candidate is
    # decided by cmp_power of lhs = (n!)**13 against the factor (H*(n-1), 14)
    # and ranked by (passed, -H); witness_range builds the reported power.
    cands = _exhaustive_candidates(n) if n <= EXHAUSTIVE_MAX else _gamma_candidates(n)
    found = None  # (passed, lam, H)
    tried = 0
    for lam in cands:
        tried += 1
        h = hook_product(lam)
        passed = cmp_power(((lhs, 1),), ((h * (n - 1), 14),)) > 0
        if found is None or (passed, -h) > (found[0], -found[2]):
            found = (passed, lam, h)
        if passed and not best:
            break
    return (*found, tried)


def witness_range(lo: int, hi: int, best: bool = False) -> Iterator[WitnessReport]:
    """The report of each n in lo..hi, in order.

    The candidates are every non-self-conjugate partition of n up to 48
    (the named small witnesses first); above 48, the window family of index
    floor(sqrt(n)) only.  The first passer is reported, or with best=True
    the candidate passer of least hook product (above 48 not always the
    least over all partitions of n); with no passer, the failing candidate
    of least hook product.  Of equal candidates the first is kept.  The
    range is refused before its first n if it reaches below 7 or above MAX_N.
    """
    if lo < 7:
        raise ValueError("check_witness requires n >= 7")
    if hi > MAX_N:
        raise ValueError(f"check_witness requires n <= {MAX_N}, got {hi}")
    lhs = math.factorial(lo - 1) ** 13
    x = rhs = None
    for n in range(lo, hi + 1):
        lhs *= n**13
        passed, lam, h, tried = _search(n, lhs, best)
        x, x_prev = h * (n - 1), x
        rhs = x**14 if rhs is None else _carry(x, x_prev, rhs)
        yield WitnessReport(n, lam, h, passed, _evidence(lhs, rhs), tried)


def check_witness(n: int, best: bool = False) -> WitnessReport:
    """The witness_range report of the single n."""
    return next(witness_range(n, n, best))


# ---------------------------------------------------------------------------
# Interval-certified analytic bounds
# ---------------------------------------------------------------------------


def _digit_ladder(digits: int) -> Iterator[int]:
    d = digits
    while True:
        yield d
        if d >= MAX_DIGITS:
            return
        d = min(2 * d, MAX_DIGITS)


def _enclosures(digits: int, *names: str) -> Iterator[tuple]:
    """(b, (lo, hi), ...) per rung d of the digit ladder, at
    b = ceil(3.322 * d) + 2, with lo <= c * 2**b <= hi for each named
    constant c; a rung is built only when the one before leaves the check
    undecided.  The enclosure is at most 3 * 2**-b < 10**-d wide.  Digits
    outside 1..MAX_DIGITS are refused: the requested rung is always built.
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"interval checks require 1 <= digits <= {MAX_DIGITS}, got {digits}")
    for d in _digit_ladder(digits):
        b = (3322 * d + 999) // 1000 + 2
        yield (b, *(const_interval(name, b) for name in names))


def check_factorial_lower(n: int, digits: int = DEFAULT_DIGITS) -> bool | None:
    """Decide  (n!)**(13/14) / (n-1)  >  1.35 * (n/e)**(25n/28)  for n >= 15.

    Exponents are cleared by raising both sides to the 28th power, leaving
    (n!)**26 * e**(25n) * 20**28  >  27**28 * n**(25n) * (n-1)**28.  The left
    side increases with e, so it holds when it holds with lo/2**b for e and
    fails when it fails with hi/2**b; 2**(25n*b) moves to the right as a
    factor.  Returns None if still undecided at the maximum precision.
    """
    if n < 15:
        raise ValueError("check_factorial_lower requires n >= 15")
    if n > MAX_N:
        raise ValueError(f"check_factorial_lower requires n <= {MAX_N}, got {n}")
    fact = math.factorial(n)
    rhs = ((27, 28), (n, 25 * n), (n - 1, 28))
    for b, (lo, hi) in _enclosures(digits, "e"):
        scaled = (*rhs, (2, 25 * n * b))
        if cmp_power(((fact, 26), (lo, 25 * n), (20, 28)), scaled) > 0:
            return True
        if cmp_power(((fact, 26), (hi, 25 * n), (20, 28)), scaled) <= 0:
            return False
    return None


def check_hook_upper(m: int) -> bool:
    """True iff every member of the window family of index m has hook
    product strictly below (m+1)**((m+1)**2); exact."""
    if m < 1:
        raise ValueError("check_hook_upper requires m >= 1")
    bound = ((m + 1, (m + 1) ** 2),)
    return all(
        cmp_power(((hook_product(lam), 1),), bound) < 0
        for lam in enumerate_gamma(m)
    )


def check_growth(n: int, digits: int = DEFAULT_DIGITS) -> bool | None:
    """Decide  (81n/64)**(81n/128) <= (n/e)**(25n/28).

    Taking n-th roots and raising to 896 = lcm(128, 28) reduces this to
    e**800 * 81**567 <= 64**567 * n**233, decided with hi/2**b and lo/2**b
    for e, since the left side increases with e, and 2**(800b) on the right.
    """
    if n < 1:
        raise ValueError("check_growth requires n >= 1")
    for b, (lo, hi) in _enclosures(digits, "e"):
        rhs = ((64, 567), (n, 233), (2, 800 * b))
        if cmp_power(((hi, 800), (81, 567)), rhs) <= 0:
            return True
        if cmp_power(((lo, 800), (81, 567)), rhs) > 0:
            return False
    return None


def check_constant(digits: int = DEFAULT_DIGITS) -> bool | None:
    """Decide  ((2*pi)**13 / e**15)**(1/28) > 1.35, i.e.
    (2*pi)**13 * 20**28 > 27**28 * e**15.  The left side increases with pi
    and the right with e, so each rung puts the opposite ends of the two
    enclosures against each other, both sides times 2**(28b)."""
    for b, (tp_lo, tp_hi), (e_lo, e_hi) in _enclosures(digits, "two_pi", "e"):
        left, right = ((20, 28), (2, 15 * b)), ((27, 28), (2, 13 * b))
        if cmp_power(((tp_lo, 13), *left), ((e_hi, 15), *right)) > 0:
            return True
        if cmp_power(((tp_hi, 13), *left), ((e_lo, 15), *right)) <= 0:
            return False
    return None
