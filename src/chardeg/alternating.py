"""Witness search for the symmetric/alternating degree-gap inequality.

For every n >= 7 there is a non-self-conjugate partition lam of n with

    (n!)**13 > (H_lam * (n-1))**14,

equivalently chi_lam(1) > (n!)**(1/14) * (n-1).  The search is exact: the
verdict for a candidate is a single big-integer comparison, and the margin
evidence fingerprints the same two integers.  The left side (n!)**13 is
carried from one call to the next: a call for n right after one for n-1
multiplies the carried power by n**13 instead of raising n! afresh.  Every
path yields the same integer, so a report does not depend on the order of
calls.  The supporting analytic bounds (which involve e and pi) are decided by
cmp_power on the endpoints of outward-rounded rational intervals and are
advisory; they can return None (inconclusive) without affecting any witness
certificate.  Each rung of their precision ladder is tried first on the
outward dyadic rounding of its enclosure, whose endpoints are short, and
only then on the exact endpoints.  Every check is monotone in each constant
and the rounding contains the exact enclosure, so a verdict the rounding
reaches is the one the exact rung reaches: only the cost changes.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .exact_arith import RationalInterval, cmp_power, const_interval, factorial
from .partitions import Partition, enumerate_gamma, hooks, partitions_of

__all__ = [
    "WitnessReport",
    "MarginEvidence",
    "gamma_index",
    "square_fix",
    "check_witness",
    "check_factorial_lower",
    "check_hook_upper",
    "check_growth",
    "check_constant",
    "DEFAULT_DIGITS",
    "MAX_DIGITS",
]

DEFAULT_DIGITS = 50
MAX_DIGITS = 400

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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "witness": str(self.witness),
            "hook_product": str(self.hook_product),
            "passed": self.passed,
            "margin": {
                "lhs_bits": self.margin.lhs_bits,
                "rhs_bits": self.margin.rhs_bits,
                "lhs_sha256": self.margin.lhs_sha256,
                "rhs_sha256": self.margin.rhs_sha256,
            },
        }


def gamma_index(n: int) -> int:
    """The unique m with m*m <= n <= m*m + 2m, i.e. floor(sqrt(n))."""
    if n < 1:
        raise ValueError("gamma_index requires n >= 1")
    return math.isqrt(n)


def square_fix(m: int) -> Partition:
    """(m+1, m**(m-2), m-1): the non-self-conjugate stand-in of size m*m used
    in place of the self-conjugate square (m**m)."""
    if m < 2:
        raise ValueError("square_fix requires m >= 2")
    return Partition((m + 1,) + (m,) * (m - 2) + (m - 1,))


def _gamma_candidates(n: int) -> Iterator[Partition]:
    m = gamma_index(n)
    for lam in enumerate_gamma(m, size=n):
        # Only (m**m) at n = m*m is self-conjugate; substitute the fixed
        # square witness.
        yield square_fix(m) if lam.is_self_conjugate() else lam


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


# (n, (n!)**13) of the last witness search, read and written as one tuple so
# that an n is never paired with another n's power.
_lhs_carry: tuple[int, int] = (0, 1)


def _factorial_pow13(n: int) -> int:
    """(n!)**13, from the carry when the previous call was for n or n-1."""
    global _lhs_carry
    k, power = _lhs_carry
    if k == n:
        return power
    power = power * n**13 if k == n - 1 else factorial(n) ** 13
    _lhs_carry = (n, power)
    return power


def check_witness(n: int, best: bool = False) -> WitnessReport:
    """Search for a passing witness of size n.

    For n <= 48 the search is exhaustive over non-self-conjugate partitions
    (the named small witnesses first); for larger n it walks the window
    family of index floor(sqrt(n)) and falls back to the exhaustive scan if
    that ever failed.  With best=True the passer with the smallest hook
    product is reported instead of the first one found.

    (n!)**13 comes from a one-entry carry, so consecutive n cost one small
    multiplication each; the value is exact whatever the call order, and so
    is the report.
    """
    if n < 7:
        raise ValueError("check_witness requires n >= 7")
    # The verdict (n!)**13 > (H*(n-1))**14 and its margin evidence are both
    # taken from these integers: lhs once per n, rhs once per candidate.
    lhs = _factorial_pow13(n)

    def scan(cands: Iterator[Partition]):
        # Each found entry is (lam, H, rhs).
        best_found = None
        smallest_fail = None
        count = 0
        for lam in cands:
            count += 1
            h = hooks(lam).product
            rhs = (h * (n - 1)) ** 14
            if lhs > rhs:
                if not best:
                    return (lam, h, rhs), count, None
                if best_found is None or h < best_found[1]:
                    best_found = (lam, h, rhs)
            elif smallest_fail is None or h < smallest_fail[1]:
                smallest_fail = (lam, h, rhs)
        return best_found, count, smallest_fail

    if n <= EXHAUSTIVE_MAX:
        found, tried, fail = scan(_exhaustive_candidates(n))
    else:
        found, tried, fail = scan(_gamma_candidates(n))
        if found is None:
            found, tried2, fail = scan(_exhaustive_candidates(n))
            tried += tried2

    if found is not None:
        lam, h, rhs = found
        return WitnessReport(n, lam, h, True, _evidence(lhs, rhs), tried)
    # No passer anywhere: report the best (smallest-H) failing candidate.
    lam, h, rhs = fail
    return WitnessReport(n, lam, h, False, _evidence(lhs, rhs), tried)


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


def _enclosures(
    digits: int, *constants: tuple[str, int]
) -> Iterator[tuple[RationalInterval, ...]]:
    """Enclosures of the named constants, two per rung of the ladder: first
    each rounded outward to 2**-b, b = E.bit_length() + 8 for the largest
    exponent E the check puts on it, then the exact ones.

    The rounding moves log(c**E) by at most E * 2**-b / c < 1/256 / c, so
    it decides whenever the exact rung decides with a wider log margin, on
    endpoints of about b + 2 bits instead of the rung's full length.
    """
    for d in _digit_ladder(digits):
        exact = tuple(const_interval(name, d) for name, _ in constants)
        yield tuple(iv.dyadic(exp.bit_length() + 8) for iv, (_, exp) in zip(exact, constants))
        yield exact


def check_factorial_lower(n: int, digits: int = DEFAULT_DIGITS) -> bool | None:
    """Decide  (n!)**(13/14) / (n-1)  >  1.35 * (n/e)**(25n/28)  for n >= 15.

    Exponents are cleared by raising both sides to the 28th power, leaving
    (n!)**26 * e**(25n) * 20**28  >  27**28 * n**(25n) * (n-1)**28, which is
    decided with an outward interval for e, at each rung first on its dyadic
    rounding; the left side increases with e, so the rounding cannot change
    a verdict.  Returns None if still undecided at the maximum precision.
    """
    if n < 15:
        raise ValueError("check_factorial_lower requires n >= 15")
    fact = factorial(n)
    rhs = ((27, 28), (n, 25 * n), (n - 1, 28))
    for (e,) in _enclosures(digits, ("e", 25 * n)):
        if cmp_power(((fact, 26), (e.lo, 25 * n), (20, 28)), rhs) > 0:
            return True
        if cmp_power(((fact, 26), (e.hi, 25 * n), (20, 28)), rhs) <= 0:
            return False
    return None


def check_hook_upper(m: int) -> bool:
    """True iff every member of the window family of index m has hook
    product strictly below (m+1)**((m+1)**2); exact."""
    if m < 1:
        raise ValueError("check_hook_upper requires m >= 1")
    bound = ((m + 1, (m + 1) ** 2),)
    return all(
        cmp_power(((hooks(lam).product, 1),), bound) < 0
        for lam in enumerate_gamma(m)
    )


def check_growth(n: int, digits: int = DEFAULT_DIGITS) -> bool | None:
    """Decide  (81n/64)**(81n/128) <= (n/e)**(25n/28).

    Taking n-th roots and raising to 896 = lcm(128, 28) reduces this to
    e**800 * 81**567 <= 64**567 * n**233, decided with an interval for e, at
    each rung first on its dyadic rounding; the left side increases with e,
    so the rounding cannot change a verdict.
    """
    if n < 1:
        raise ValueError("check_growth requires n >= 1")
    rhs = ((64, 567), (n, 233))
    for (e,) in _enclosures(digits, ("e", 800)):
        if cmp_power(((e.hi, 800), (81, 567)), rhs) <= 0:
            return True
        if cmp_power(((e.lo, 800), (81, 567)), rhs) > 0:
            return False
    return None


def check_constant(digits: int = DEFAULT_DIGITS) -> bool | None:
    """Decide  ((2*pi)**13 / e**15)**(1/28) > 1.35, i.e.
    (2*pi)**13 * 20**28 > 27**28 * e**15, with intervals for both constants,
    at each rung first on their dyadic roundings; the left side increases
    with pi and the right with e, so the roundings cannot change a verdict."""
    for tp, e in _enclosures(digits, ("two_pi", 13), ("e", 15)):
        if cmp_power(((tp.lo, 13), (20, 28)), ((27, 28), (e.hi, 15))) > 0:
            return True
        if cmp_power(((tp.hi, 13), (20, 28)), ((27, 28), (e.lo, 15))) <= 0:
            return False
    return None
