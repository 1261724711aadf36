"""Exact arithmetic kernel.

One comparison primitive, cmp_power, which orders two products of integer
powers and returns the sign -1, 0 or 1 in up to three stages: the bit
lengths of the bases, when their bounds on the two products do not overlap;
then the leading 64 bits of the bases, raised and multiplied with directed
rounding into integer bounds a * 2**x <= P <= b * 2**y, when those separate
the two products; and otherwise the two products, built and compared
exactly.  Integer k-th roots by Newton from a half-precision root, or by
bisection when short; primes, the package's one sieve; is_prime, trial
division by the primes below 256 and then Miller-Rabin with the first 13
primes as bases, exact below psi_13; prime_power, (p, e) for q = p**e, by
one gcd and one modular power when q has a prime factor below 256 and
otherwise by residue tests, exact roots and is_prime; cyclotomic, the
coefficient tuple of a cyclotomic polynomial by its Moebius product, and
eval_poly, Horner evaluation of such a tuple; const_interval,
integer bounds lo <= c * 2**b <= hi for the constants e and 2*pi, at most 3
apart, from exact series sums rounded outward; and POWER_MAX_BITS with
check_power_bits, the size cap callers apply before building a large power
from their inputs, with POWER_MAX_DIGITS, the cap on decimal text they apply
before int() converts it.  Factorials and integer square roots are
math.factorial and math.isqrt, which callers take from math directly.
Nothing in this module handles a rational: a caller that compares rationals
splits each ratio, its numerator on one side of cmp_power and its
denominator on the other, and fractions is never imported.

Every verdict produced by this module reduces to a comparison of Python
integers; floats never participate.  Magnitudes like 2000!**14 are routine.
"""

import math
import sys
from itertools import compress
from typing import Sequence

# Lift the interpreter's 4300-digit int/str guard: the CLI's int() reads
# integer flags longer than that, and the CLI prints integers (orders,
# bounds, hook products) as decimal strings that can be longer.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

__all__ = [
    "cmp_power",
    "nth_root_floor",
    "primes",
    "is_prime",
    "prime_power",
    "POWER_MAX_BITS",
    "POWER_MAX_DIGITS",
    "check_power_bits",
    "cyclotomic",
    "eval_poly",
    "CYCLOTOMIC_MAX_K",
    "const_interval",
]

# Callers refuse, before building it, a power that could exceed this many
# bits: at the cap maroti_bound, or one Lie-type order, takes about 0.1 s.
POWER_MAX_BITS = 2 ** 17

# The digit count of 2**POWER_MAX_BITS.  Decimal text with more digits is
# refused before int() converts it, since CPython's str-to-int conversion
# takes time quadratic in the length.
POWER_MAX_DIGITS = 39_457


def check_power_bits(caller: str, bits: int) -> None:
    """Raise ValueError when bits, a bound on the size of an integer the
    caller is about to build, is above POWER_MAX_BITS."""
    if bits > POWER_MAX_BITS:
        shown = bits if bits < 2 ** 64 else f"2**{bits.bit_length()}"  # no long decimal
        raise ValueError(
            f"{caller} would build an integer of up to {shown} bits, more than {POWER_MAX_BITS}"
        )


def _bit_bounds(factors: Sequence[tuple[int, int]]) -> tuple[int | None, int, bool]:
    # One pass over the factors: validates them, and bounds their product P
    # from bit lengths alone.  An integer x >= 1 of bit length L lies in
    # [2**(L-1), 2**L), so (lo, hi) give 2**lo <= P <= 2**hi; lo is None when
    # a zero base has a nonzero exponent.  The flag: any exponent is nonzero.
    lo = hi = 0
    zero = used = False
    for base, exp in factors:
        if not isinstance(base, int):
            raise TypeError(f"cmp_power requires integer bases, got {type(base).__name__}")
        if not isinstance(exp, int):
            raise TypeError(f"cmp_power requires integer exponents, got {type(exp).__name__}")
        if base < 0:
            raise ValueError("cmp_power requires nonnegative bases")
        if exp < 0:
            raise ValueError("cmp_power requires nonnegative exponents")
        if exp:
            used = True
            if base:
                bits = base.bit_length()
                lo += (bits - 1) * exp
                hi += bits * exp
            else:
                zero = True
    return (None if zero else lo), hi, used


# The leading-bits stage of cmp_power carries each bound as a mantissa below
# 2**_MANTISSA_BITS times a power of two, rounded in one direction throughout
# (directed rounding; Brent and Zimmermann, Modern Computer Arithmetic, 2010,
# ch. 3).
_MANTISSA_BITS = 64


def _round(m: int, e: int, up: bool) -> tuple[int, int]:
    # (r, f) with r * 2**f <= m * 2**e, or >= when up, and r below
    # 2**_MANTISSA_BITS: the top bits of m, plus one when rounding up drops a
    # nonzero bit.
    shift = m.bit_length() - _MANTISSA_BITS
    if shift <= 0:
        return m, e
    r = m >> shift
    if up and r << shift != m:
        r += 1
        if r >> _MANTISSA_BITS:  # r is 2**_MANTISSA_BITS, halved exactly
            r >>= 1
            shift += 1
    return r, e + shift


def _leading_bound(factors: Sequence[tuple[int, int]], up: bool) -> tuple[int, int]:
    # (m, e) with m * 2**e <= P, or >= P when up, for the product P of the
    # factors, none of them with a zero base: each base cut to its top bits,
    # raised by square-and-multiply and multiplied into the rest, every
    # intermediate mantissa rounded the same way.
    m, e = 1, 0
    for base, exp in factors:
        if not exp:
            continue
        b, f = _round(base, 0, up)
        while True:
            if exp & 1:
                m, e = _round(m * b, e + f, up)
            exp >>= 1
            if not exp:
                break
            b, f = _round(b * b, 2 * f, up)
    return m, e


def _above(a: int, x: int, b: int, y: int) -> bool:
    # a * 2**x > b * 2**y, for a, b >= 1: by the bit lengths of the two
    # numbers, and when those are equal the exponents differ by less than 64.
    la, lb = a.bit_length() + x, b.bit_length() + y
    if la != lb:
        return la > lb
    return a << (x - y) > b if x >= y else a > b << (y - x)


def _product(factors: Sequence[tuple[int, int]]) -> int:
    return math.prod(base ** exp for base, exp in factors)


def cmp_power(lhs: Sequence[tuple[int, int]], rhs: Sequence[tuple[int, int]]) -> int:
    """The sign -1, 0 or 1 of prod(a**p for a, p in lhs) minus
    prod(b**s for b, s in rhs); callers compare it with 0.

    Bases and exponents are nonnegative ints, the exponents not all zero; an
    empty side is the empty product 1.  A caller comparing rationals puts
    each ratio's numerator on its own side and its denominator on the other.
    Three stages, the first that separates the two sides deciding:

    1. bit lengths: a base of bit length L lies in [2**(L-1), 2**L), which
       bounds both products in the same pass over each side that validates it;
    2. leading bits: each base is cut to its top 64 bits, rounded down for a
       lower bound and up for an upper bound, and raised and multiplied by
       square-and-multiply with every intermediate mantissa rounded the same
       way, so that a * 2**x <= P <= b * 2**y with a, b below 2**64;
    3. built products: both products are built and compared exactly.

    Each of the first two returns the sign when the lower bound of one side
    is above the upper bound of the other; all three are integer
    comparisons.  A zero base with a nonzero exponent goes straight from the
    first stage to the third.
    """
    llo, lhi, lused = _bit_bounds(lhs)
    rlo, rhi, rused = _bit_bounds(rhs)
    if not (lused or rused):
        raise ValueError("cmp_power: the exponents must not all be zero")
    if llo is not None and rlo is not None:
        if llo > rhi:
            return 1
        if rlo > lhi:
            return -1
        if _above(*_leading_bound(lhs, False), *_leading_bound(rhs, True)):
            return 1
        if _above(*_leading_bound(rhs, False), *_leading_bound(lhs, True)):
            return -1
    left, right = _product(lhs), _product(rhs)
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
    # The root is below 2**bits.  With s at most half of those bits and
    # r0 >= 2k for r0 the root of x >> (k*s), Newton from the overestimate
    # (r0 + 1) << s needs a few steps, decreases strictly and stops exactly
    # at the floor of the root (from an error above 1/k it falls by about
    # r/k a step).  A shorter root is bisected, by cmp_power's leading bits.
    bits = -(-x.bit_length() // k)
    s = min(bits // 2, bits - k.bit_length() - 2)
    if s < 1:
        lo, hi = 1 << (bits - 1), 1 << bits
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if cmp_power(((mid, k),), ((x, 1),)) <= 0 else (lo, mid)
        return lo
    r = (_root(x >> (k * s), k) + 1) << s
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def _sieve(limit: int) -> bytearray:
    # sieve[i] is 1 exactly when i is a prime, for 0 <= i <= limit (>= 1).
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return sieve


def primes(limit: int) -> list[int]:
    """The primes p <= limit, ascending, by the sieve of Eratosthenes."""
    return list(compress(range(limit + 1), _sieve(limit))) if limit > 1 else []


# The primes below 256.  Trial division by all of them is one gcd with their
# product, and it decides every n below 257**2 without a Miller-Rabin round.
_SMALL_PRIMES = tuple(primes(255))
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)

# Miller-Rabin with the first 13 primes as bases has no false positive below
# psi_13 = 3317044064679887385961981, the least composite that passes all 13
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact, or a ValueError rather than an unproven answer.  Trial division
    by the primes below 256 decides an n of any size with such a factor, and
    every n below 257**2; any other n below psi_13 ~ 3.3e24 gets deterministic
    Miller-Rabin with the first 13 primes as bases.  Only an n at or above
    psi_13 with no prime factor below 256 raises."""
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMES_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < 257 * 257:
        return True
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}")
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p**e and p prime, or None, for any q < 2 too; raises
    ValueError where is_prime cannot decide the root.  A q with a factor p
    below 256 is a power of p when p is its gcd with their product and q
    divides p**bitlen(q), and e is bisected by cmp_power.  Any other q is
    p**e with p above 256, so each prime ell below an eighth of its bit
    length is tried, ascending.  An ell-th power q has q**((m-1)/ell) = 0 or
    1 (mod m) for each prime m = 1 (mod ell), where another q fails with
    odds about 1 - 1/ell; q is reduced once modulo the first such m of every
    ell, and a second m is tried only after the first passes.  An exact
    ell-th root then makes q a prime power exactly when the root is one."""
    if q < 2:
        return None
    p = math.gcd(q, _SMALL_PRIMES_PRODUCT)
    if p > 1:
        if p not in _SMALL_PRIMES or pow(p, q.bit_length(), q):
            return None
        lo, hi = 1, q.bit_length()
        while lo < hi:  # the least e with p**e >= q
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if cmp_power(((p, mid),), ((q, 1),)) < 0 else (lo, mid)
        return p, lo
    ells = primes((q.bit_length() - 1) // 8)  # 8 * ell below the bit length
    # The least prime m = 1 (mod 2*ell) is below 80*ell for every ell below
    # 2**14: the sieve holds most of them, and is_prime decides the rest.
    sieve = _sieve(32 * ells[-1]) if ells else b""

    def after(m: int, ell: int) -> int:  # the least prime above m that is 1 (mod 2*ell)
        m += 2 * ell
        while not (sieve[m] if m < len(sieve) else is_prime(m)):
            m += 2 * ell
        return m

    moduli = [after(1, ell) for ell in ells]
    # q mod each m: one long division by the product of each run of 64.
    runs = [moduli[i : i + 64] for i in range(0, len(moduli), 64)]
    residues = [x % m for run in runs for x in [q % math.prod(run)] for m in run]
    for ell, m, x in zip(ells, moduli, residues):
        if pow(x, (m - 1) // ell, m) > 1:
            continue
        m = after(m, ell)
        if pow(q, (m - 1) // ell, m) <= 1 and (root := nth_root_floor(q, ell)) ** ell == q:
            pe = prime_power(root)  # q is a prime power exactly when its root is
            return None if pe is None else (pe[0], pe[1] * ell)
    return (q, 1) if is_prime(q) else None


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
# Dyadic enclosures of e and 2*pi
# ---------------------------------------------------------------------------


def _e_scaled(bits: int) -> tuple[int, int]:
    # sum(1/j! for j < k) = num/(k-1)!, and the tail beyond it is below
    # 2/k! < 2**-bits, so e * 2**bits lies in [x, x + 2) for x the floor of
    # the partial sum scaled.
    k, fact = 1, 1
    while fact <= 2 << bits:  # until k! > 2**(bits+1)
        k += 1
        fact *= k
    num, c = 1, 1
    for j in range(k - 1, 0, -1):
        c *= j
        num += c
    x = (num << bits) // c  # c == (k-1)!
    return x, x + 2


def _arctan_inv_scaled(m: int, bits: int) -> tuple[int, int]:
    # atan(1/m) = sum((-1)**j / ((2j+1) * m**(2j+1))); the partial sums
    # alternate around the limit, so the sum of the t terms before the first
    # one below 2**-bits is within that term of it, above when t is odd.  The
    # sum is an exact integer over lcm(1, 3, ..., 2t-1) * m**(2t+1).
    t = 0
    while (2 * t + 1) * m ** (2 * t + 1) <= 1 << bits:
        t += 1
    odd = math.lcm(*range(1, 2 * t, 2))
    num = sum((-1) ** j * (odd // (2 * j + 1)) * m ** (2 * (t - j)) for j in range(t))
    x = (num << bits) // (odd * m ** (2 * t + 1))
    return (x - 1, x + 1) if t % 2 else (x, x + 2)


def const_interval(name: str, bits: int) -> tuple[int, int]:
    """Integers lo <= c * 2**bits <= hi, hi - lo <= 3, for the constant c
    named "e" or "two_pi"; bits >= 1.

    e comes from its factorial series, 2*pi from Machin's formula
    32*atan(1/5) - 8*atan(1/239), the two arctangents bracketed at bits + 6
    and bits + 4 and their halved difference rounded outward.
    """
    if bits < 1:
        raise ValueError("const_interval requires bits >= 1")
    if name == "e":
        return _e_scaled(bits)
    if name == "two_pi":
        lo5, hi5 = _arctan_inv_scaled(5, bits + 6)
        lo239, hi239 = _arctan_inv_scaled(239, bits + 4)
        return (lo5 - hi239) // 2, -((lo239 - hi5) // 2)
    raise ValueError(f"unknown constant {name!r}")
