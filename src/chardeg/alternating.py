"""Witness search for the symmetric/alternating degree-gap inequality.

For every n >= 7 there is a non-self-conjugate partition lam of n with

    (n!)**13 > (H_lam * (n-1))**14,

equivalently H_lam < (n!)**(13/14) / (n-1): a candidate passes exactly when
its hook product H is below one bound, so the candidate of least H passes
when any does, and is then the passer of least H.  The reported candidate
is the first that passes or, with best=True or when none passes, the one of
least H (the first of equals).  The search is exact: each decision is one
cmp_power of (n!)**13 against the factor (H*(n-1), 14), not a built 14th
power.  witness_range searches a range of n, and each report carries the
margin evidence of its witness as four fields of the one flat record: the
bit lengths and SHA-256 digests of (n!)**13 and (H*(n-1))**14.  It raises
(lo-1)! to the 13th power once and multiplies in n**13 for each n, and it
builds each report's x**14, for the reported x = H*(n-1), from the previous
x_prev**14 (from 1**14 at n = lo) with g = gcd(x, x_prev), one exact
division by (x_prev/g)**14 and one multiplication by (x/g)**14.
check_witness is the range of one n.  The supporting analytic bounds
(which involve e and pi) are decided by cmp_power on integer enclosures
lo <= c * 2**b <= hi of the constants and are advisory; they can return
None (inconclusive) without affecting any witness certificate.  Their one
precision rule is the digit ladder d, 2d, 4d, ... up to MAX_DIGITS,
starting at the requested digits: one enclosure per rung, at
b = ceil(3.322 * d) + 2 bits, narrower than 10**-d.
"""

import math
from typing import Iterator, NamedTuple

from .exact_arith import cmp_power, const_interval
from .partitions import Partition, enumerate_gamma, hook_product, partitions_of

__all__ = [
    "WitnessReport",
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

# Up to this n the witness candidates are all partitions of n; above it, the
# three-parts-window family around the square (m**2 <= n).  The named
# witnesses for n = 7 and 8 come first, so they are the ones reported.
EXHAUSTIVE_MAX = 48
PREFERRED_WITNESSES = {
    7: Partition((3, 2, 2)),
    8: Partition((4, 2, 2)),
}


class WitnessReport(NamedTuple):
    n: int
    witness: Partition
    hook_product: int
    passed: bool
    # Fingerprint of the two compared integers (n!)**13 and (H*(n-1))**14.
    lhs_bits: int
    rhs_bits: int
    lhs_sha256: str
    rhs_sha256: str


def square_fix(m: int) -> Partition:
    """(m+1, m**(m-2), m-1): the non-self-conjugate stand-in of size m*m used
    in place of the self-conjugate square (m**m)."""
    if m < 2:
        raise ValueError("square_fix requires m >= 2")
    return Partition((m + 1,) + (m,) * (m - 2) + (m - 1,))


def _candidates(n: int) -> Iterator[Partition]:
    if n <= EXHAUSTIVE_MAX:
        preferred = PREFERRED_WITNESSES.get(n)
        if preferred is not None:
            yield preferred
        yield from (lam for lam in partitions_of(n)
                    if lam != preferred and not lam.is_self_conjugate())
        return
    m = math.isqrt(n)  # the window index: m*m <= n <= m*m + 2m
    # A self-conjugate member has m parts and largest part m, so it is (m**m),
    # the only member of size n = m*m; the fixed square stands in for it.
    yield from [square_fix(m)] if n == m * m else enumerate_gamma(m, size=n)


def _sha256_int(x: int) -> str:
    import hashlib  # only the witness path hashes; at the top every command pays for it

    return hashlib.sha256(x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")).hexdigest()


def _evidence(lhs: int, rhs: int) -> tuple[int, int, str, str]:
    # The report's lhs_bits, rhs_bits, lhs_sha256 and rhs_sha256.
    return lhs.bit_length(), rhs.bit_length(), _sha256_int(lhs), _sha256_int(rhs)


def _carry(x: int, x_prev: int, rhs_prev: int) -> int:
    # x**14 from rhs_prev = x_prev**14 (x_prev = 1 at a range's first n):
    # with g = gcd(x, x_prev), divide out (x_prev/g)**14 and multiply in
    # (x/g)**14, both small when consecutive reports differ by one box.
    g = math.gcd(x, x_prev)
    q, r = divmod(rhs_prev, (x_prev // g) ** 14)
    if r:
        raise ArithmeticError(f"{x_prev}**14 is not the carried power")
    return q * (x // g) ** 14


def _search(n: int, lhs: int, best: bool) -> tuple[bool, Partition, int]:
    # (passed, lam, H) of the reported candidate; witness_range builds the
    # reported power.
    def passes(h: int) -> bool:
        return cmp_power(((lhs, 1),), ((h * (n - 1), 14),)) > 0

    if not best:
        for lam in _candidates(n):
            h = hook_product(lam)
            if passes(h):
                return True, lam, h
    lam = min(_candidates(n), key=hook_product)
    h = hook_product(lam)
    return passes(h), lam, h


def witness_range(lo: int, hi: int, best: bool = False) -> Iterator[WitnessReport]:
    """The report of each n in lo..hi, in order, by the module's rule.

    The candidates are every non-self-conjugate partition of n up to
    EXHAUSTIVE_MAX = 48 (the named small witnesses first); above 48, the
    window family of index floor(sqrt(n)) only, so there the least H is
    not always the least over all partitions of n.  The range is refused
    before its first n if it reaches below 7 or above MAX_N.
    """
    if lo < 7:
        raise ValueError("check_witness requires n >= 7")
    if hi > MAX_N:
        raise ValueError(f"check_witness requires n <= {MAX_N}, got {hi}")
    lhs = math.factorial(lo - 1) ** 13
    x = rhs = 1  # 1**14, so that the first _carry builds x**14 itself
    for n in range(lo, hi + 1):
        lhs *= n**13
        passed, lam, h = _search(n, lhs, best)
        x, x_prev = h * (n - 1), x
        rhs = _carry(x, x_prev, rhs)
        yield WitnessReport(n, lam, h, passed, *_evidence(lhs, rhs))


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
    largest = max(map(hook_product, enumerate_gamma(m)))
    return cmp_power(((largest, 1),), ((m + 1, (m + 1) ** 2),)) < 0


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
