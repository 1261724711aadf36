import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chardeg import exact_arith, structure_bounds
from chardeg.degree_data import rat
from chardeg.structure_bounds import (
    ChiefFactorDescriptor,
    extraspecial_example,
    frobenius_example,
    maroti_bound,
    quotient_power_check,
    radical_index_check,
    rat14_lower_bound,
    series_from_json,
    solvable_index_bound,
)


def _factor(order, mult=1, abelian=False, psl2=False, label=""):
    return ChiefFactorDescriptor(label, order, mult, abelian, psl2)


class TestRat14LowerBound:
    def test_examples(self):
        assert rat14_lower_bound((_factor(125, abelian=True),)) == 1
        assert rat14_lower_bound((_factor(20160, mult=2),)) == 20160 ** 2
        mixed = (
            _factor(125, abelian=True),
            _factor(360, psl2=True),
            _factor(25920),
        )
        assert rat14_lower_bound(mixed) == 25920

    def test_multiplicative_under_concatenation(self):
        rng = random.Random(7)
        for _ in range(50):
            def rand_series(k):
                factors = []
                for _ in range(k):
                    kind = rng.choice(["abelian", "psl2", "other"])
                    # an abelian factor has prime-power order
                    order = (rng.choice((2, 3, 5, 7, 101)) ** rng.randrange(1, 9)
                             if kind == "abelian" else rng.randrange(2, 10 ** 6))
                    factors.append(
                        _factor(
                            order,
                            mult=rng.randrange(1, 4),
                            abelian=kind == "abelian",
                            psl2=kind == "psl2",
                        )
                    )
                return tuple(factors)
            a, b = rand_series(rng.randrange(0, 4)), rand_series(rng.randrange(0, 4))
            joined = a + b
            assert rat14_lower_bound(joined) == rat14_lower_bound(a) * rat14_lower_bound(b)

    def test_size_cap_counts_only_the_product_factors(self):
        # 20160 has 15 bits: 8738 copies stay within POWER_MAX_BITS, one more
        # does not; abelian and PSL_2 factors are left out of the product and
        # the cap
        cap = exact_arith.POWER_MAX_BITS // 15
        assert rat14_lower_bound((_factor(20160, mult=cap),)) == 20160 ** cap
        exempt = (_factor(2, mult=10 ** 9, abelian=True), _factor(60, mult=10 ** 9, psl2=True))
        assert rat14_lower_bound(exempt + (_factor(20160),)) == 20160
        with pytest.raises(ValueError, match="rat14_lower_bound would build"):
            rat14_lower_bound((_factor(20160, mult=cap + 1),))

    def test_unflagged_psl2_order_refused(self):
        # |PSL_2(q)| = q(q**2 - 1)/gcd(2, q - 1) is refused for each prime
        # power q >= 4 unless flagged psl2 (PSL_2(4) and PSL_2(5) share 60),
        # and passes for any other q.
        for q in range(4, 400):
            order = q * (q * q - 1) // math.gcd(2, q - 1)
            p = next(d for d in range(2, q + 1) if q % d == 0)
            series = (_factor(2, abelian=True), _factor(order))
            if q == p ** round(math.log(q, p)):
                with pytest.raises(ValueError, match=rf"^chief factor 1 has the order of "
                                   rf"PSL_2\({4 if q == 5 else q}\) but is not flagged"):
                    rat14_lower_bound(series)
                assert rat14_lower_bound((_factor(order, psl2=True),)) == 1
            else:
                assert rat14_lower_bound(series) == order, q
        # q = 2**89 - 1 is prime, but past what is_prime decides exactly
        q = 2 ** 89 - 1
        with pytest.raises(ValueError, match="for a q of 89 bits, is not decided"):
            rat14_lower_bound((_factor(q * (q * q - 1) // 2),))

    def test_abelian_order_must_be_a_prime_power(self):
        # An abelian chief factor is elementary abelian, of order p**k, and
        # the descriptor refuses any other order when it is built.
        for order in (2, 125, 2 ** 20, 101 ** 7):
            assert rat14_lower_bound((_factor(order, abelian=True), _factor(20160))) == 20160
        for order in (6, 10 ** 6, 2 ** 20 * 3):
            with pytest.raises(ValueError, match=r'^flagged "abelian" \(elementary, of order '
                               rf"p\*\*k\), but its order {order} is not a prime power$"):
                _factor(order, abelian=True)
        # an order past what is_prime decides, at the JSON digit cap, is
        # refused as not decided, in bounded time, quoting 500 of its digits
        order = 10 ** (exact_arith.POWER_MAX_DIGITS - 1) + 19
        assert len(str(order)) == exact_arith.POWER_MAX_DIGITS
        assert math.gcd(order, math.prod(exact_arith.primes(255))) == 1
        start = time.perf_counter()
        with pytest.raises(ValueError, match="is not decided to be a prime power") as err:
            _factor(order, abelian=True)
        assert time.perf_counter() - start < 2.0
        assert f"its order 1{'0' * 499}... is not decided" in str(err.value)
        assert len(str(err.value)) < 1000

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            _factor(60, abelian=True, psl2=True)
        with pytest.raises(ValueError):
            _factor(1)
        with pytest.raises(ValueError):
            _factor(60, mult=0)
        with pytest.raises(ValueError, match="at least 2"):
            ChiefFactorDescriptor(
                label="x", factor_order=1, multiplicity=1, is_abelian=True, is_psl2=False
            )

    def test_json_ingestion(self):
        series = series_from_json(
            '{"factors": [{"label": "x", "order": "20160", "multiplicity": 2,'
            ' "abelian": false, "psl2": false}]}',
            "--json",
        )
        assert rat14_lower_bound(series) == 20160 ** 2
        # order and multiplicity: a JSON integer or a decimal string
        for order, multiplicity in ((20160, 2), ("20160", "2"), (20160, "2")):
            doc = {"factors": [{"order": order, "multiplicity": multiplicity}]}
            assert rat14_lower_bound(series_from_json(json.dumps(doc), "--json")) == 20160 ** 2

    def test_digit_cap(self):
        # The cap is the digit count of 2**POWER_MAX_BITS.  At the cap the
        # text converts, as a string and as a JSON integer; one digit more is
        # refused before conversion, naming the factor and the key.
        cap = exact_arith.POWER_MAX_DIGITS
        assert cap == len(str(2 ** exact_arith.POWER_MAX_BITS))
        at_cap = "9" * cap
        for text in (f'"{at_cap}"', at_cap):
            doc = f'{{"factors": [{{"order": {text}, "psl2": true}}, {{"order": 20160}}]}}'
            series = series_from_json(doc, "--json")
            assert series[0].factor_order == 10 ** cap - 1
            assert rat14_lower_bound(series) == 20160
        for key in ("order", "multiplicity"):
            for text in (f'"{at_cap}9"', f"{at_cap}9", f"-{at_cap}", f"{at_cap}.5"):
                factor = {"order": "60", key: "PLACEHOLDER"}
                doc = json.dumps({"factors": [{"order": 2, "abelian": True}, factor]})
                with pytest.raises(
                    ValueError, match=f"^chief factor 1: '{key}' has more than {cap} digits$"
                ):
                    series_from_json(doc.replace('"PLACEHOLDER"', text), "--json")


class TestQuotientPowerCheck:
    def test_boundary(self):
        assert quotient_power_check((2, 1), (1, 1), 2 ** 14) is True
        assert quotient_power_check((2, 1), (1, 1), 2 ** 14 + 1) is False

    def test_fractional(self):
        # 3**14 >= 100 * 2**14 exactly
        assert 3 ** 14 >= 100 * 2 ** 14
        assert quotient_power_check((3, 2), (1, 1), 100) is True
        # an unreduced pair is the same ratio
        assert quotient_power_check((6, 4), (5, 5), 100) is True

    def test_rejects_ratio_below_one(self):
        for bad in ((1, 2), (1, 0), (0, 0)):
            with pytest.raises(ValueError, match="degree ratios are at least 1"):
                quotient_power_check(bad, (1, 1), 5)
            with pytest.raises(ValueError, match="degree ratios are at least 1"):
                quotient_power_check((1, 1), bad, 5)

    def test_power_size_cap(self):
        # 14 bits per numerator bit of each ratio (a ratio >= 1 has the
        # longer numerator) plus the bits of order_n: 14 * (9361 + 1) + 4 is
        # exactly at the 2**17-bit cap, one more numerator bit is over
        assert quotient_power_check((2 ** 9361 - 1, 2 ** 9000), (1, 1), 15) is True
        with pytest.raises(ValueError, match="131086 bits, more than 131072"):
            quotient_power_check((2 ** 9362 - 1, 2 ** 9000), (1, 1), 15)
        with pytest.raises(ValueError, match="131086 bits, more than 131072"):
            quotient_power_check((1, 1), (2 ** 9362 - 1, 2 ** 9000), 15)


class TestMarotiBound:
    def test_examples(self):
        assert maroti_bound(5, 4) == 69
        assert 69 ** 3 <= 24 ** 4 < 70 ** 3
        assert maroti_bound(1, 4) == 1
        assert maroti_bound(4, 4) == 24

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            maroti_bound(5, 3)

    def test_power_size_cap(self):
        # d = 8 bounds d! by 8 * 4 bits, so n - 1 = 4096 is exactly at the
        # 2**17-bit cap and d alone is refused once d * d.bit_length() is over
        assert exact_arith.POWER_MAX_BITS == 2 ** 17
        b = maroti_bound(4097, 8)
        assert b ** 7 <= 40320 ** 4096 < (b + 1) ** 7
        with pytest.raises(ValueError, match="131104 bits, more than 131072"):
            maroti_bound(4098, 8)
        with pytest.raises(ValueError, match="more than 131072"):
            maroti_bound(1, 10 ** 6)

    def test_monotone_in_n_and_defining_inequality(self):
        prev = 0
        for n in range(1, 9):
            b = maroti_bound(n, 5)
            assert b >= prev
            prev = b
            assert b ** 4 <= math.factorial(5) ** (n - 1) < (b + 1) ** 4


class TestSolvableIndexBound:
    def test_examples(self):
        assert solvable_index_bound(1) == 1
        assert solvable_index_bound(60) == 348
        assert 348 ** 100 <= 60 ** 143 < 349 ** 100  # direct big-integer oracle
        assert solvable_index_bound(2) == 2  # 2**1.43 ~ 2.69

    def test_power_size_cap(self):
        # order_n**143 is bounded by 143 bits per bit of order_n: 916 bits is
        # at most the 2**17-bit cap, 917 bits is over
        x = 2 ** 916 - 1
        b = solvable_index_bound(x)
        assert b ** 100 <= x ** 143 < (b + 1) ** 100
        with pytest.raises(ValueError, match="131131 bits, more than 131072"):
            solvable_index_bound(2 ** 916)

    def test_defining_inequality_randomized(self):
        rng = random.Random(11)
        for _ in range(40):
            x = rng.randrange(1, 10 ** 6)
            b = solvable_index_bound(x)
            assert b ** 100 <= x ** 143 < (b + 1) ** 100


class TestRadicalIndexCheck:
    def test_examples(self):
        assert radical_index_check((1, 1), 1) is True
        assert radical_index_check((2, 1), 2 ** 21) is True
        assert radical_index_check((2, 1), 2 ** 21 + 1) is False
        # exact big-integer verdict: 2e10 * 5**21 <= 16**21
        assert 2 * 10 ** 10 * 5 ** 21 <= 16 ** 21
        assert radical_index_check((16, 5), 2 * 10 ** 10) is True
        # and just past the true threshold it flips
        assert radical_index_check((16, 5), 5 * 10 ** 10) is False
        # rat(L3(4)) as degree_data.rat gives it, unreduced
        assert radical_index_check((64, 20), 2 * 10 ** 10) is True
        for bad in ((1, 2), (1, 0), (0, 0)):
            with pytest.raises(ValueError, match="degree ratios are at least 1"):
                radical_index_check(bad, 1)

    def test_power_size_cap(self):
        # 21 bits per numerator bit of rat_g (a ratio >= 1 has the longer
        # numerator) plus the bits of index: 21 * 6240 + 32 is exactly at the
        # 2**17-bit cap, one index bit more is over
        rat = (2 ** 6240 - 1, 2 ** 6000)
        assert radical_index_check(rat, 2 ** 31) is True
        with pytest.raises(ValueError, match="131073 bits, more than 131072"):
            radical_index_check(rat, 2 ** 32)


# A ratio >= 1 as the checks receive it: a pair (a, b), an integer over 1 or
# a numerator and a denominator drawn with a common factor k.
ratios = st.integers(1, 400).map(lambda a: (a, 1)) | st.builds(
    lambda b, extra, k: (k * (b + extra), k * b),
    st.integers(1, 300),
    st.integers(0, 300),
    st.integers(1, 6),
)


class TestSplitChecksMatchFractions:
    """quotient_power_check and radical_index_check put each ratio's
    numerator and denominator on opposite sides of cmp_power; plain Fraction
    powers are the oracle, at random points and on both sides of the
    boundary."""

    @given(rat_g=ratios, rat_gn=ratios, order_n=st.integers(1, 10 ** 40), t=st.integers(1, 40))
    def test_quotient_power_check(self, rat_g, rat_gn, order_n, t):
        def oracle(g, gn, n):
            return Fraction(*g) ** 14 >= Fraction(*gn) ** 14 * n

        assert quotient_power_check(rat_g, rat_gn, order_n) is oracle(rat_g, rat_gn, order_n)
        # exactly at the boundary: (t * rat_gn)**14 == rat_gn**14 * t**14
        c, d = rat_gn
        g = (c * t, d)
        assert quotient_power_check(g, rat_gn, t ** 14) is True
        assert quotient_power_check(g, rat_gn, t ** 14 + 1) is False
        # the largest order_n that holds, and the next one
        top = math.floor((Fraction(*rat_g) / Fraction(*rat_gn)) ** 14)
        if top >= 1:
            assert quotient_power_check(rat_g, rat_gn, top) is True
            assert oracle(rat_g, rat_gn, top + 1) is False
            assert quotient_power_check(rat_g, rat_gn, top + 1) is False

    @given(rat_g=ratios, index=st.integers(1, 10 ** 60))
    def test_radical_index_check(self, rat_g, index):
        assert radical_index_check(rat_g, index) is (index <= Fraction(*rat_g) ** 21)
        # the largest index that holds, and the next one; for an integer
        # ratio the largest is rat_g**21 itself
        top = math.floor(Fraction(*rat_g) ** 21)
        assert radical_index_check(rat_g, top) is True
        assert radical_index_check(rat_g, top + 1) is False


class TestFrobeniusExample:
    def test_examples(self):
        t = frobenius_example(7, 3)
        assert t.degrees == (1, 1, 1, 3, 3)
        assert t.order == 21
        assert t.fitting_index == 3
        assert rat(t) == (3, 3)
        t = frobenius_example(13, 4)
        assert rat(t) == (4, 4) and t.fitting_index == 4

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            frobenius_example(7, 4)
        with pytest.raises(ValueError):
            frobenius_example(9, 2)  # 9 is not prime

    def test_degree_count_cap(self, monkeypatch):
        # (1009, 4) lists 4 + 252 = 256 degrees: allowed at a cap of 256,
        # refused at 255.
        t = frobenius_example(1009, 4)
        assert t.degrees == (1,) * 4 + (4,) * 252 and t.order == 4036
        monkeypatch.setattr(structure_bounds, "FROBENIUS_MAX_DEGREES", 256)
        assert len(frobenius_example(1009, 4).degrees) == 256
        monkeypatch.setattr(structure_bounds, "FROBENIUS_MAX_DEGREES", 255)
        with pytest.raises(ValueError, match="256 degrees, more than 255"):
            frobenius_example(1009, 4)

    def test_degree_multiset_is_consistent(self):
        # m linear degrees and (p-1)/m of degree m: squares sum to the order
        for p, m in ((7, 3), (13, 4), (11, 5), (101, 100)):
            t = frobenius_example(p, m)
            assert sum(d * d for d in t.degrees) == t.order
            assert rat(t) == (m, m) and Fraction(*rat(t)) == 1
            assert t.fitting_index == m

    def test_solvable_families_satisfy_radical_bound(self):
        # both example families are solvable: index of the radical is 1
        for p, m in ((7, 3), (13, 4)):
            assert radical_index_check(rat(frobenius_example(p, m)), 1)
        assert radical_index_check(rat(extraspecial_example(3, 2)), 1)


class TestExtraspecialExample:
    def test_examples(self):
        t = extraspecial_example(2, 2)
        assert t.degrees == (1, 4, 5)
        assert rat(t) == (5, 4)
        assert t.fitting_index == 5
        t = extraspecial_example(3, 1)
        assert t.degrees == (1, 3, 4)
        assert rat(t) == (4, 3)

    def test_ratio_tends_to_one_while_index_grows(self):
        t = extraspecial_example(2, 10)
        assert rat(t) == (1025, 1024)
        assert t.fitting_index == 1025
        prev_rat, prev_idx = None, 0
        for i in (1, 3, 6, 10):
            t = extraspecial_example(2, i)
            r = Fraction(*rat(t))
            if prev_rat is not None:
                assert r < prev_rat
                assert t.fitting_index > prev_idx
            prev_rat, prev_idx = r, t.fitting_index

    def test_power_size_cap(self):
        # p**i is bounded by i * p.bit_length() bits, 2 * i for p = 2: i =
        # 2**16 is at the 2**17-bit cap, one more is over
        t = extraspecial_example(2, 2 ** 16)
        assert t.fitting_index == 2 ** 2 ** 16 + 1
        with pytest.raises(ValueError, match="131074 bits, more than 131072"):
            extraspecial_example(2, 2 ** 16 + 1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            extraspecial_example(2, 0)
        with pytest.raises(ValueError):
            extraspecial_example(4, 1)
