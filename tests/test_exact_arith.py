import ast
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chardeg import exact_arith
from chardeg.exact_arith import (
    CYCLOTOMIC_MAX_K,
    cmp_power,
    const_interval,
    cyclotomic,
    eval_poly,
    is_prime,
    nth_root_floor,
    primes,
)

# 50-digit truncations of e and pi, a second oracle for const_interval.
E_50 = Fraction(27182818284590452353602874713526624977572470936999, 10 ** 49)
PI_50 = Fraction(31415926535897932384626433832795028841971693993751, 10 ** 49)

powers_base = st.fractions(min_value=0, max_value=40, max_denominator=40)
# Bases past 2**64, so that the leading-bits stage cuts them, and small bases
# with exponents large enough that the bit lengths rarely decide.
big_base = st.integers(0, 2 ** 400) | st.builds(
    Fraction, st.integers(0, 2 ** 400), st.integers(1, 2 ** 400)
)
long_power = st.tuples(st.integers(0, 64), st.integers(0, 50_000))
wide_power = long_power | st.tuples(st.integers(0, 2 ** 400), st.integers(0, 60))
above_64 = st.integers(2 ** 64 + 1, 2 ** 400)


def _split(lhs, rhs):
    """Factors with Fraction or int bases as cmp_power's integer sides: each
    base's numerator stays on its side and its denominator joins the other."""
    lhs, rhs = [(Fraction(b), e) for b, e in lhs], [(Fraction(b), e) for b, e in rhs]
    left = [(b.numerator, e) for b, e in lhs] + [(b.denominator, e) for b, e in rhs]
    right = [(b.numerator, e) for b, e in rhs] + [(b.denominator, e) for b, e in lhs]
    return left, right


def _int_sign(lhs, rhs):
    left = math.prod(b ** e for b, e in lhs)
    right = math.prod(b ** e for b, e in rhs)
    return (left > right) - (left < right)


def _fraction_sign(lhs, rhs):
    # reference: plain Fraction products, no cross-multiplication
    left = math.prod((Fraction(b) ** e for b, e in lhs), start=Fraction(1))
    right = math.prod((Fraction(b) ** e for b, e in rhs), start=Fraction(1))
    return (left > right) - (left < right)


class TestCmpPower:
    def test_examples(self):
        assert cmp_power(((3, 2),), ((2, 1), (2, 2))) == 1  # (3/2)**2 > 2
        assert cmp_power(((4, 3),), ((8, 2),)) == 0
        # big-integer oracle: (32/7)**14 > 20160, i.e. 32**14 > 7**14 * 20160
        lhs = 32 ** 14 * 1
        rhs = 20160 * 7 ** 14
        assert lhs > rhs
        assert cmp_power(*_split(((Fraction(32, 7), 14),), ((20160, 1),))) == 1
        assert cmp_power(((32, 14),), ((7, 14), (20160, 1))) == 1
        # an empty side is the empty product 1
        assert cmp_power((), ((2, 3),)) == -1
        assert cmp_power(*_split((), ((Fraction(1, 2), 3),))) == 1

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError):
            cmp_power(((-1, 2),), ((1, 1),))
        with pytest.raises(ValueError):
            cmp_power(((1, 1),), ((-3, 1),))

    def test_rejects_fraction_base(self):
        # rationals are split by the caller; a Fraction base is refused, even
        # one equal to an int
        with pytest.raises(TypeError, match="integer bases"):
            cmp_power(((Fraction(3, 2), 2),), ((2, 1),))
        with pytest.raises(TypeError, match="integer bases"):
            cmp_power(((2, 1),), ((Fraction(4), 1),))

    def test_module_does_not_import_fractions(self):
        tree = ast.parse(inspect.getsource(exact_arith))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported
        assert "Fraction" not in vars(exact_arith)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            cmp_power(((2, -1),), ((3, 1),))

    def test_rejects_double_zero_exponent(self):
        with pytest.raises(ValueError):
            cmp_power(((2, 0),), ((3, 0),))
        with pytest.raises(ValueError):
            cmp_power(((2, 0), (5, 0)), ())

    @given(
        an=st.integers(0, 1000),
        ad=st.integers(1, 50),
        bn=st.integers(0, 1000),
        bd=st.integers(1, 50),
        p=st.integers(0, 12),
        s=st.integers(0, 12),
    )
    def test_antisymmetry(self, an, ad, bn, bd, p, s):
        if p == 0 and s == 0:
            return
        # (an/ad)**p against (bn/bd)**s, split unreduced
        lhs, rhs = ((an, p), (bd, s)), ((bn, s), (ad, p))
        assert cmp_power(lhs, rhs) == -cmp_power(rhs, lhs)
        oracle = _fraction_sign(((Fraction(an, ad), p),), ((Fraction(bn, bd), s),))
        assert cmp_power(lhs, rhs) == oracle

    @given(
        lhs=st.lists(st.tuples(powers_base, st.integers(0, 8)), min_size=1, max_size=3),
        rhs=st.lists(st.tuples(powers_base, st.integers(0, 8)), min_size=1, max_size=3),
    )
    def test_matches_fraction_products(self, lhs, rhs):
        if not any(e for _, e in lhs + rhs):
            return
        assert cmp_power(*_split(lhs, rhs)) == _fraction_sign(lhs, rhs)

    @given(
        lhs=st.lists(st.tuples(big_base, st.integers(0, 60)), max_size=3),
        rhs=st.lists(st.tuples(big_base, st.integers(0, 60)), max_size=3),
    )
    def test_matches_fraction_products_wide_bases(self, lhs, rhs):
        if not any(e for _, e in lhs + rhs):
            return
        assert cmp_power(*_split(lhs, rhs)) == _fraction_sign(lhs, rhs)

    @given(
        lhs=st.lists(wide_power, max_size=3),
        rhs=st.lists(wide_power, max_size=3),
    )
    def test_matches_int_products_long_exponents(self, lhs, rhs):
        if not any(e for _, e in lhs + rhs):
            return
        assert cmp_power(lhs, rhs) == _int_sign(lhs, rhs)

    @given(a=above_64, b=above_64, k=st.integers(1, 60))
    def test_ties_between_factorizations(self, a, b, k):
        # equal products whose bases are all cut by the leading-bits stage, and the same
        # product against its built value and its neighbours
        assert cmp_power(((a * b, k),), ((a, k), (b, k))) == 0
        assert cmp_power(((a, k), (b, k)), ((a * b, k),)) == 0
        power = (a * b) ** k
        for d in (-1, 0, 1):
            assert cmp_power(((a, k), (b, k)), ((power + d, 1),)) == -d

    def test_near_ties_fall_back_to_products(self):
        # the leading bits cannot separate these; the exact products decide
        x = 2 ** 64 + 1
        expansion = 2 ** 192 + 3 * 2 ** 128 + 3 * 2 ** 64 + 1
        assert cmp_power(((x, 3),), ((expansion, 1),)) == 0
        assert cmp_power(((x, 3),), ((expansion + 1, 1),)) == -1
        assert cmp_power(((x, 3),), ((expansion - 1, 1),)) == 1
        assert cmp_power(((expansion - 1, 1),), ((x, 3),)) == -1
        assert cmp_power(((x, 3),), ((2 ** 192, 1),)) == 1

    def test_leading_bits_decide_without_building(self, monkeypatch):
        # 3**1000 lies between 2**1584 and 2**1585, where the bit lengths
        # only bound it by 2**1000 and 2**2000
        def refuse(factors):
            raise AssertionError("built a product")

        monkeypatch.setattr(exact_arith, "_product", refuse)
        assert cmp_power(((3, 1000),), ((2, 1585),)) == -1
        assert cmp_power(((2, 1585),), ((3, 1000),)) == 1
        assert cmp_power(((3, 1000),), ((2, 1584),)) == 1
        assert cmp_power(((2 ** 400 - 1, 50_000),), ((2 ** 400, 49_999), (2 ** 399, 1))) == 1
        # the bit lengths bound 1**21 * 12345 only by 2**35, above 3**21's
        # lower bound 2**21 (thmB --rat 3 --index 12345)
        assert cmp_power(((3, 21),), ((1, 21), (12345, 1))) == 1

    def test_ties_and_equal_bit_lengths(self):
        # equal products, and products whose bit-length bounds coincide, are
        # left to the exact comparison
        assert cmp_power(((2, 100),), ((2, 99), (2, 1))) == 0
        assert cmp_power(((6, 10),), ((2, 10), (3, 10))) == 0
        assert cmp_power(*_split(((Fraction(9, 4), 3),), ((Fraction(3, 2), 6),))) == 0
        assert cmp_power(((3, 1),), ((2, 1),)) == 1
        assert cmp_power(((2 ** 64 - 1, 2),), ((2 ** 128, 1),)) == -1
        assert cmp_power(((2 ** 64, 2),), ((2 ** 128, 1),)) == 0
        assert cmp_power(*_split(((Fraction(3, 2), 4),), ((5, 1),))) == 1  # 81/16 > 5
        assert cmp_power(*_split(((Fraction(7, 5), 2),), ((2, 1),))) == -1  # 49/25 < 2
        assert cmp_power(((1, 5),), ()) == 0
        assert cmp_power(*_split((), ((Fraction(1, 3), 2), (9, 1)))) == 0

    def test_zero_bases(self):
        assert cmp_power(((0, 3),), ((5, 1),)) == -1
        assert cmp_power(((0, 1),), ()) == -1
        assert cmp_power(((0, 2),), ((0, 5),)) == 0
        assert cmp_power(((0, 2), (7, 3)), ((0, 1),)) == 0
        assert cmp_power(*_split(((Fraction(0), 1),), ((Fraction(1, 2 ** 70), 9),))) == -1
        # a zero base with exponent 0 is the factor 1
        assert cmp_power(((0, 0), (2, 1)), ((2, 1),)) == 0
        assert cmp_power(((0, 0), (3, 1)), ((2, 1),)) == 1

    def test_rejections_checked_before_any_decision(self):
        # a side the bit lengths would decide is still validated in full
        with pytest.raises(ValueError, match="nonnegative bases"):
            cmp_power(((2 ** 100, 5),), ((1, 1), (-1, 1)))
        with pytest.raises(ValueError, match="nonnegative exponents"):
            cmp_power(((2 ** 100, 5),), ((3, 1), (3, -1)))
        # a float exponent would let a float decide, even one equal to an int
        with pytest.raises(TypeError, match="integer exponents"):
            cmp_power(((2, 0.5),), ((1, 1),))
        with pytest.raises(TypeError, match="integer exponents"):
            cmp_power(((3, 2.0),), ((9, 1),))


class TestNthRootFloor:
    def test_examples(self):
        assert nth_root_floor(27, 3) == 3
        assert nth_root_floor(28, 3) == 3
        assert nth_root_floor(40320, 14) == 2

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            nth_root_floor(10, 0)

    @given(x=st.integers(0, 10 ** 40), k=st.integers(1, 40))
    def test_defining_inequality(self, x, k):
        r = nth_root_floor(x, k)
        assert r ** k <= x < (r + 1) ** k

    @given(x=st.integers(0, 2 ** 20000), k=st.integers(1, 700))
    def test_defining_inequality_large(self, x, k):
        r = nth_root_floor(x, k)
        assert r ** k <= x < (r + 1) ** k

    @given(data=st.data(), k=st.integers(2, 700), delta=st.sampled_from((-1, 0, 1)))
    def test_exact_powers_and_neighbours(self, data, k, delta):
        r = data.draw(st.integers(1, 2 ** max(1, 20000 // k)))
        assert nth_root_floor(r ** k + delta, k) == (r - 1 if delta < 0 else r)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 8191}
    for n in range(-2, 30):
        assert is_prime(n) == (n in primes or n in (17, 19, 23, 29))
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(561)  # Carmichael number


def test_is_prime_matches_sieve():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    assert primes(limit - 1) == [n for n in range(limit) if sieve[n]]
    assert primes(0) == primes(1) == [] and primes(2) == [2]
    # Trial division decides every n below 257**2; the sieve range crosses it.
    assert exact_arith._SMALL_PRIMES == tuple(n for n in range(256) if sieve[n])


def test_is_prime_semiprime_near_2_80():
    # Two primes just above 2**40 (checked by trial division): their product
    # has no factor below 256 and lies below psi_13, so only the Miller-Rabin
    # rounds can refuse it.
    p, q = 2 ** 40 + 15, 2 ** 40 + 27
    assert all(p % d and q % d for d in range(3, math.isqrt(q) + 1, 2))
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q) and p * q < exact_arith._MR_LIMIT


# psi_k, the least composite that passes Miller-Rabin to the first k prime
# bases, for k = 1..11, with its factors; psi_7 = psi_8 and psi_9 = psi_10 =
# psi_11, so the table lists the largest k for each value.
PSI = {
    1: (2047, (23, 89)),
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    8: (341550071728321, (10670053, 32010157)),
    11: (3825123056546413051, (149491, 747451, 34233211)),
    12: (318665857834031151167461, (399165290221, 798330580441)),
}
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("k", sorted(PSI))
def test_psi_k_is_composite(k):
    psi, factors = PSI[k]
    assert math.prod(factors) == psi and min(factors) > 1
    assert all(_strong_probable_prime(psi, a) for a in PRIME_BASES[:k])
    assert not _strong_probable_prime(psi, PRIME_BASES[k])
    assert not is_prime(psi)


def test_is_prime_strong_pseudoprimes():
    # psi_12 passes Miller-Rabin to every prime base up to 37; base 41 catches it
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    # psi_13 passes all 13 bases up to 41: no answer is given at or above it
    psi_13 = 3317044064679887385961981
    assert psi_13 == 1287836182261 * 2575672364521
    with pytest.raises(ValueError):
        is_prime(psi_13)
    with pytest.raises(ValueError):
        is_prime(2 ** 127 - 1)


def test_is_prime_small_factor_decides_any_size():
    # A prime factor below 256 proves n composite above psi_13 too.
    psi_13 = 3317044064679887385961981
    for n in (2 * psi_13, 251 * (2 ** 127 - 1), 6 ** 4000, 2 * 10 ** 30):
        assert is_prime(n) is False


def _poly_mul(a, b):
    # Schoolbook convolution of two coefficient tuples, constant term first.
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return tuple(out)


class TestCyclotomic:
    def test_small(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_rejects_k_above_cap(self):
        assert len(cyclotomic(CYCLOTOMIC_MAX_K)) - 1 == 400  # phi(1000)
        with pytest.raises(ValueError, match="k <= 1000"):
            cyclotomic(CYCLOTOMIC_MAX_K + 1)

    def test_product_identity_small(self):
        for n in (1, 2, 6, 30, 60):
            prod = (1,)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = _poly_mul(prod, cyclotomic(d))
            assert prod == (-1,) + (0,) * (n - 1) + (1,)

    def test_product_of_values_up_to_cap(self):
        # prod over d | k of Phi_d(q) = q**k - 1, at every k the cap allows.
        for q in (2, 3):
            ks = range(1, CYCLOTOMIC_MAX_K + 1)
            values = [None] + [eval_poly(cyclotomic(k), q) for k in ks]
            for k in ks:
                divisors = (d for d in range(1, k + 1) if k % d == 0)
                assert math.prod(values[d] for d in divisors) == q ** k - 1, (q, k)

    def test_degree_is_totient(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        for n in range(1, 201):
            assert len(cyclotomic(n)) - 1 == phi(n)

    def test_eval_examples(self):
        assert eval_poly(cyclotomic(6), 2) == 3   # 4 - 2 + 1
        assert eval_poly(cyclotomic(12), 2) == 13  # 16 - 4 + 1
        assert eval_poly(cyclotomic(1), 1) == 0

    def test_coefficient_bound_below_105(self):
        for n in range(1, 105):
            assert all(c in (-1, 0, 1) for c in cyclotomic(n)), n
        # and the derived evaluation bound for a few sample points
        for n in (3, 12, 24, 60, 104):
            coeffs = cyclotomic(n)
            degree = len(coeffs) - 1
            for q in (1, 2, 5, 9):
                assert eval_poly(coeffs, q) <= (degree + 1) * q ** degree

    def test_first_exception_is_105(self):
        assert any(c not in (-1, 0, 1) for c in cyclotomic(105))


def _series_reference(digits: int) -> dict[str, tuple[Fraction, Fraction]]:
    """Fraction enclosures of e and 2*pi narrower than 10**-digits, from the
    rational series: partial sums of sum 1/k!, whose tail is below twice the
    first omitted term, and Machin's 2*pi = 32*atan(1/5) - 8*atan(1/239),
    each arctangent between two adjacent partial sums of its alternating
    series."""
    tol = Fraction(1, 10 ** (digits + 2))
    e, term, k = Fraction(0), Fraction(1), 0
    while term >= tol:
        e += term
        k += 1
        term /= k

    def arctan_inv(m):
        acc, i = Fraction(0), 0
        while (t := Fraction(1, (2 * i + 1) * m ** (2 * i + 1))) >= tol:
            acc += -t if i % 2 else t
            i += 1
        return (acc - t, acc) if i % 2 else (acc, acc + t)

    lo5, hi5 = arctan_inv(5)
    lo239, hi239 = arctan_inv(239)
    return {"e": (e, e + 2 * term), "two_pi": (32 * lo5 - 8 * hi239, 32 * hi5 - 8 * lo239)}


class TestConstInterval:
    def test_containment_and_width(self):
        # Every b up to the last rung of the digit ladder (1331 bits) and
        # beyond, against an enclosure about 10**-500 wide.
        reference = _series_reference(500)
        for name, (ref_lo, ref_hi) in reference.items():
            assert ref_hi - ref_lo < Fraction(1, 10 ** 500)
            for b in range(1, 1401):
                lo, hi = const_interval(name, b)
                assert Fraction(lo, 1 << b) <= ref_lo and ref_hi <= Fraction(hi, 1 << b), (name, b)
                assert hi - lo <= 3, (name, b)

    def test_width_contract_at_high_precision(self):
        # The truncations are 10**-49 below the constants, far less than the
        # distance of c * 2**b to the nearest integer for these b.
        oracles = {"e": E_50, "two_pi": 2 * PI_50}
        for name, oracle in oracles.items():
            for b in (16, 64, 150):
                lo, hi = const_interval(name, b)
                assert lo < oracle * 2 ** b < hi
            for b in (1331, 2000):
                lo, hi = const_interval(name, b)
                assert hi - lo <= 3 and lo.bit_length() >= b + 1

    def test_unknown_name(self):
        for name in ("phi", "pi"):
            with pytest.raises(ValueError):
                const_interval(name, 10)

    def test_requires_positive_digits(self):
        # The precision is a number of bits, at least 1.
        with pytest.raises(ValueError):
            const_interval("e", 0)
