"""Exact arithmetic kernel.

One comparison primitive, cmp_power, which orders two products of rational
powers and returns the sign -1, 0 or 1: it decides from the bit lengths of
the bases when their bounds on the two products do not overlap, and by a
single integer cross-multiplication otherwise; integer k-th roots by Newton
from a half-precision root; is_prime, Miller-Rabin with the first k prime
bases, k read off the table of psi_k; cyclotomic, the coefficient tuple of
a cyclotomic polynomial by its Moebius product, and eval_poly, Horner
evaluation of such a tuple; rational intervals, endpoint pairs with outward
rounding for the constants e and pi; and POWER_MAX_BITS with
check_power_bits, the size cap callers apply before building a large power
from their inputs.  RationalInterval is an immutable NamedTuple compared by
value that checks its endpoints in __new__.  Only the interval code builds a
Fraction, so fractions is imported there and not when this module loads.

Every verdict produced by this module reduces to a comparison of Python
integers; floats never participate.  Magnitudes like 2000!**14 are routine.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from typing import NamedTuple, Sequence

# Decimal serialization of values like 2000!**14 is part of the interface;
# lift the interpreter's int-to-str conversion guard accordingly.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

__all__ = [
    "cmp_power",
    "nth_root_floor",
    "factorial",
    "is_prime",
    "POWER_MAX_BITS",
    "check_power_bits",
    "cyclotomic",
    "eval_poly",
    "CYCLOTOMIC_MAX_K",
    "RationalInterval",
    "const_interval",
]

factorial = math.factorial

RationalLike = "Fraction | int"

# Callers refuse, before building it, a power that could exceed this many
# bits: at the cap maroti_bound, or one Lie-type order, takes about 0.1 s.
POWER_MAX_BITS = 2 ** 17


def check_power_bits(caller: str, bits: int) -> None:
    """Raise ValueError when bits, a bound on the size of an integer the
    caller is about to build, is above POWER_MAX_BITS."""
    if bits > POWER_MAX_BITS:
        raise ValueError(
            f"{caller} would build an integer of up to {bits} bits, more than {POWER_MAX_BITS}"
        )


def _bit_bounds(factors: Sequence[tuple[RationalLike, int]]) -> tuple[int, int, int, int] | None:
    # Validates the factors and bounds the numerator N and the denominator D
    # of their product without raising anything to a power: an integer x >= 1
    # of bit length L lies in [2**(L-1), 2**L) and is 2**(L-1) when it is a
    # power of two, so (lo_n, hi_n, lo_d, hi_d) give 2**lo_n <= N <= 2**hi_n
    # and 2**lo_d <= D <= 2**hi_d.  None when a zero base has a nonzero
    # exponent.
    lo_n = hi_n = lo_d = hi_d = 0
    zero = False
    for base, exp in factors:
        if base < 0:
            raise ValueError("cmp_power requires nonnegative bases")
        if exp < 0:
            raise ValueError("cmp_power requires nonnegative exponents")
        num, den = base.numerator, base.denominator
        zero = zero or (num == 0 and exp > 0)
        lo_n += (num.bit_length() - 1) * exp
        hi_n += (num.bit_length() - (num & (num - 1) == 0)) * exp
        lo_d += (den.bit_length() - 1) * exp
        hi_d += (den.bit_length() - (den & (den - 1) == 0)) * exp
    return None if zero else (lo_n, hi_n, lo_d, hi_d)


def _side(factors: Sequence[tuple[RationalLike, int]]) -> tuple[int, int]:
    # Numerator and denominator of prod(a**p for a, p in factors).  ints and
    # Fractions both carry numerator/denominator, so no Fraction is built.
    num = den = 1
    for base, exp in factors:
        num *= base.numerator ** exp
        den *= base.denominator ** exp
    return num, den


def cmp_power(
    lhs: Sequence[tuple[RationalLike, int]], rhs: Sequence[tuple[RationalLike, int]]
) -> int:
    """The sign -1, 0 or 1 of prod(a**p for a, p in lhs) minus
    prod(b**s for b, s in rhs); callers compare it with 0.

    Bases are nonnegative ints or Fractions, exponents nonnegative ints, not
    all zero; an empty side is the empty product 1.  Each side is one
    numerator and one denominator, and the sign is that of ln * rd - rn * ld,
    so no division ever happens.  The bit lengths of the bases bound both
    cross products first, and when the lower bound of one is above the upper
    bound of the other the sign is returned without building a power.
    Otherwise, and whenever a zero base has a nonzero exponent, the two
    cross products are built and compared exactly.
    """
    if not any(exp for _, exp in lhs) and not any(exp for _, exp in rhs):
        raise ValueError("cmp_power: the exponents must not all be zero")
    lb, rb = _bit_bounds(lhs), _bit_bounds(rhs)
    if lb is not None and rb is not None:
        lo_ln, hi_ln, lo_ld, hi_ld = lb
        lo_rn, hi_rn, lo_rd, hi_rd = rb
        if lo_ln + lo_rd > hi_rn + hi_ld:
            return 1
        if lo_rn + lo_ld > hi_ln + hi_rd:
            return -1
    ln, ld = _side(lhs)
    rn, rd = _side(rhs)
    left, right = ln * rd, rn * ld
    return (left > right) - (left < right)


def nth_root_floor(x: int, k: int) -> int:
    """The unique r >= 0 with r**k <= x < (r+1)**k, for x >= 0 and k >= 1."""
    if k < 1:
        raise ValueError("nth_root_floor requires k >= 1")
    if x < 0:
        raise ValueError("nth_root_floor requires x >= 0")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    return _root(x, k)


def _root(x: int, k: int) -> int:
    # The root is below 2**bits.  With s half of those bits, the root r0 of
    # x >> (k*s) gives the overestimate (r0 + 1) << s with relative error at
    # most 1/r0, so Newton needs a few steps, where from a power of two it
    # needed up to about k.  From any overestimate integer Newton decreases
    # strictly and stops exactly at the floor of the root.
    bits = -(-x.bit_length() // k)
    if bits == 1:
        return 1
    s = bits // 2
    r = (_root(x >> (k * s), k) + 1) << s
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


# Miller-Rabin with the first k primes as bases has no false positive below
# psi_k (Jaeschke, Math. Comp. 1993; Sorenson and Webster, Math. Comp. 2017),
# and psi_k is the least composite that passes all k; psi_13 is _MR_LIMIT.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_LIMIT = _MR_PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below psi_13 ~ 3.3e24,
    and a ValueError at or above it rather than an unproven answer.  After
    trial division by the 13 bases, n uses the first k of them, k the least
    with n < psi_k."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# cyclotomic(k) takes about k * 2**omega(k) steps and the CLI prints its phi(k) + 1
# coefficients twice, in a list and as text; the cap keeps both small (k = 1000: 0.1 ms).
CYCLOTOMIC_MAX_K = 1000


def cyclotomic(k: int) -> tuple[int, ...]:
    """Coefficients of the k-th cyclotomic polynomial, constant term first;
    1 <= k <= CYCLOTOMIC_MAX_K.

    Phi_k = prod over d | k of (1 - x**d)**mu(k/d), negated for k = 1 (for
    k > 1 the exponents sum to 0, so the signs of x**d - 1 cancel).  Each
    factor acts on one list of phi(k) + 1 power-series coefficients: times
    1 - x**d in place from the top, divided by it with running sums from the
    bottom.  Truncation is exact because Phi_k has degree phi(k).
    """
    if not 1 <= k <= CYCLOTOMIC_MAX_K:
        raise ValueError(f"cyclotomic requires 1 <= k <= {CYCLOTOMIC_MAX_K}, got {k}")
    terms, phi, m = [(k, 1)], k, k  # (d, mu(k/d)) for every squarefree k/d
    for p in range(2, k + 1):
        if m % p == 0:  # p is the least prime factor of k left in m
            terms += [(d // p, -mu) for d, mu in terms]
            phi -= phi // p
            while m % p == 0:
                m //= p
    coeffs = [-1 if k == 1 else 1] + [0] * phi
    for d, mu in terms:
        if mu > 0:
            for i in range(phi, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
        else:
            for i in range(d, phi + 1):
                coeffs[i] += coeffs[i - d]
    return tuple(coeffs)


def eval_poly(coeffs: Sequence[int], x: int) -> int:
    """The value at x of the polynomial with these coefficients, constant
    term first, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Rational intervals
# ---------------------------------------------------------------------------


class _RationalIntervalFields(NamedTuple):
    lo: Fraction
    hi: Fraction


class RationalInterval(_RationalIntervalFields):
    """Closed interval with Fraction endpoints: an enclosure of e or pi.

    Endpoints are exact, so the difference and scaling that build the pi
    enclosure never round.  Checks pass lo and hi to cmp_power, first those
    of the outward dyadic rounding dyadic(bits), which contains the interval
    and has short endpoints, then the exact ones; there is no interval
    arithmetic beyond that.
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        return super().__new__(cls, lo, hi)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        from fractions import Fraction

        return self.lo <= Fraction(x) <= self.hi

    def dyadic(self, bits: int) -> "RationalInterval":
        """[floor(lo*2**bits), ceil(hi*2**bits)] / 2**bits: contains this
        interval, is at most 2**(1-bits) wider, and every denominator is a
        power of two."""
        from fractions import Fraction

        if bits < 0:
            raise ValueError("dyadic requires bits >= 0")
        lo = (self.lo.numerator << bits) // self.lo.denominator
        hi = -((-self.hi.numerator << bits) // self.hi.denominator)
        return RationalInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, c: RationalLike) -> "RationalInterval":
        from fractions import Fraction

        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)


def _e_interval(digits: int) -> RationalInterval:
    # Partial sums of sum 1/k!; the tail beyond K is < 2/(K+1)!.
    from fractions import Fraction

    target = 4 * 10 ** digits
    k, fact = 1, 1
    while fact <= target:
        k += 1
        fact *= k
    K = k - 1  # (K+1)! = fact > target
    num, c = 1, 1
    for j in range(K, 0, -1):
        c *= j
        num += c
    lo = Fraction(num, c)  # c == K!
    hi = lo + Fraction(2, fact)
    return RationalInterval(lo, hi)


def _arctan_inv_interval(m: int, tail_bound: Fraction) -> RationalInterval:
    # arctan(1/m) as an alternating series; adjacent partial sums bracket the
    # limit, so the interval width is the first omitted term.
    from fractions import Fraction

    acc = Fraction(0)
    i = 0
    while True:
        term = Fraction(1, (2 * i + 1) * m ** (2 * i + 1))
        if term < tail_bound:
            break
        acc += term if i % 2 == 0 else -term
        i += 1
    if i % 2 == 1:  # last added term positive: acc overestimates
        return RationalInterval(acc - term, acc)
    return RationalInterval(acc, acc + term)


def _pi_interval(digits: int) -> RationalInterval:
    # Machin: pi = 16*arctan(1/5) - 4*arctan(1/239).
    from fractions import Fraction

    budget = Fraction(1, 10 ** (digits + 1))
    a5 = _arctan_inv_interval(5, budget / 32)
    a239 = _arctan_inv_interval(239, budget / 8)
    return a5.scale(16) - a239.scale(4)


def const_interval(name: str, digits: int) -> RationalInterval:
    """Rational interval of width < 10**-digits guaranteed to contain the
    named constant.  Supported names: "e", "pi", "two_pi"."""
    if digits < 1:
        raise ValueError("const_interval requires digits >= 1")
    if name == "e":
        return _e_interval(digits)
    if name == "pi":
        return _pi_interval(digits)
    if name == "two_pi":
        return _pi_interval(digits + 1).scale(2)
    raise ValueError(f"unknown constant {name!r}")
