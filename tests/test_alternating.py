from fractions import Fraction

import pytest

from chardeg import alternating
from chardeg.alternating import (
    check_constant,
    check_factorial_lower,
    check_growth,
    check_hook_upper,
    check_witness,
    gamma_index,
    square_fix,
)
from chardeg.exact_arith import cmp_power, const_interval, factorial
from chardeg.partitions import Partition, degree, hooks, partitions_of


class TestGammaIndex:
    def test_examples(self):
        assert gamma_index(64) == 8
        assert gamma_index(80) == 8
        assert gamma_index(63) == 7

    def test_window_inequality(self):
        for n in range(1, 500):
            m = gamma_index(n)
            assert m * m <= n <= m * m + 2 * m


class TestSquareFix:
    def test_examples(self):
        assert square_fix(2) == Partition((3, 1))
        assert square_fix(3) == Partition((4, 3, 2))
        fixed = square_fix(8)
        assert fixed == Partition((9, 8, 8, 8, 8, 8, 8, 7))
        assert not fixed.is_self_conjugate()

    def test_size_and_shape(self):
        for m in range(2, 12):
            fixed = square_fix(m)
            assert fixed.n == m * m
            assert not fixed.is_self_conjugate()

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            square_fix(1)


def _passes_directly(n: int, lam: Partition) -> bool:
    # independent route: direct integer powers, no cmp_power
    return factorial(n) ** 13 > (hooks(lam).product * (n - 1)) ** 14


class TestCheckWitness:
    def test_named_small_witnesses(self):
        r7 = check_witness(7)
        assert r7.passed and r7.witness == Partition((3, 2, 2))
        assert r7.hook_product == 240
        r8 = check_witness(8)
        assert r8.passed and r8.witness == Partition((4, 2, 2))
        assert r8.hook_product == 720

    def test_49_uses_square_fix(self):
        r = check_witness(49)
        assert r.passed
        assert r.witness == square_fix(7)
        assert not r.witness.is_self_conjugate()
        # witness degree exceeds (n-1) * (n!)^(1/14), restated in powers
        d = degree(r.witness)
        assert d ** 14 > factorial(49) * 48 ** 14

    def test_report_consistency(self):
        for n in (7, 20, 50, 100):
            r = check_witness(n)
            assert r.passed
            assert not r.witness.is_self_conjugate()
            assert r.witness.n == n
            assert hooks(r.witness).product == r.hook_product
            assert _passes_directly(n, r.witness)
            assert r.margin.lhs_bits > r.margin.rhs_bits

    def test_best_flag_minimizes_hook_product(self):
        r_best = check_witness(30, best=True)
        assert r_best.passed
        best_h = min(
            hooks(lam).product
            for lam in partitions_of(30)
            if not lam.is_self_conjugate() and _passes_directly(30, lam)
        )
        assert r_best.hook_product == best_h

    def test_json_shape(self):
        doc = check_witness(7).to_json_dict()
        assert doc["n"] == 7
        assert doc["witness"] == "3,2,2"
        assert doc["hook_product"] == "240"
        assert doc["passed"] is True

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            check_witness(6)

    @pytest.mark.parametrize(
        "calls",
        [
            [(n, False) for n in range(7, 13)],
            [(n, False) for n in range(12, 6, -1)],
            [(20, False), (20, False), (21, False), (21, False)],
            [(30, False), (31, False), (40, False), (41, False)],
            [(60, False), (61, False), (61, False), (59, False), (100, False),
             (101, False), (7, False), (30, True), (31, False)],
        ],
        ids=["ascending", "descending", "repeated", "gap", "interleaved-best"],
    )
    def test_report_independent_of_call_order(self, calls, monkeypatch):
        chained = []
        for n, best in calls:
            chained.append(check_witness(n, best=best).to_json_dict())
            assert alternating._lhs_carry == (n, factorial(n) ** 13)
        for (n, best), doc in zip(calls, chained):
            monkeypatch.setattr(alternating, "_lhs_carry", (0, 1))
            assert check_witness(n, best=best).to_json_dict() == doc

    def test_whole_window_family_passes_for_large_index(self):
        # for window index >= 8 every candidate (with the square replaced)
        # passes, so the guided search never needs its fallback there
        from chardeg.partitions import enumerate_gamma

        for m in (8, 9):
            fixed = square_fix(m)
            for lam in enumerate_gamma(m):
                if lam.is_self_conjugate():
                    lam = fixed
                assert _passes_directly(lam.n, lam), lam


class TestIntervalChecks:
    def test_factorial_lower_examples(self):
        assert check_factorial_lower(15) is True
        assert check_factorial_lower(64) is True
        with pytest.raises(ValueError):
            check_factorial_lower(14)

    def test_matches_fraction_reference(self):
        # Reference: the same inequalities decided with Fraction powers of
        # the exact interval endpoints, independently of cmp_power and of
        # the dyadic rounding, walked up the precision ladder d, 2d, 4d, ...
        # (capped at 400 digits); the verdict must be the first decided one.
        def ladder_ref(ref, digits):
            d = digits
            while True:
                verdict = ref(d)
                if verdict is not None or d >= 400:
                    return verdict
                d = min(2 * d, 400)

        def factorial_lower_ref(n, digits):
            base = Fraction(factorial(n)) ** 26 * Fraction(20) ** 28
            rhs = Fraction(27) ** 28 * Fraction(n) ** (25 * n) * Fraction(n - 1) ** 28
            e = const_interval("e", digits)
            if base * e.lo ** (25 * n) > rhs:
                return True
            if base * e.hi ** (25 * n) <= rhs:
                return False
            return None

        def growth_ref(n, digits):
            rhs = Fraction(64) ** 567 * Fraction(n) ** 233
            e = const_interval("e", digits)
            if e.hi ** 800 * Fraction(81) ** 567 <= rhs:
                return True
            if e.lo ** 800 * Fraction(81) ** 567 > rhs:
                return False
            return None

        def constant_ref(digits):
            tp = const_interval("two_pi", digits)
            e = const_interval("e", digits)
            if tp.lo ** 13 * Fraction(20) ** 28 > Fraction(27) ** 28 * e.hi ** 15:
                return True
            if tp.hi ** 13 * Fraction(20) ** 28 <= Fraction(27) ** 28 * e.lo ** 15:
                return False
            return None

        factorial_cases = [(n, d) for d in (1, 2, 3) for n in range(15, 61)]
        factorial_cases += [(15, 50), (16, 50), (100, 50), (200, 50), (400, 50)]
        for n, digits in factorial_cases:
            expected = ladder_ref(lambda d: factorial_lower_ref(n, d), digits)
            assert expected is True or digits < 50
            assert check_factorial_lower(n, digits) == expected, (n, digits)
        # At digits=1, n = 54, 55, 56 climb the ladder 1 -> 2 -> 4.
        for n in range(1, 121):
            expected = ladder_ref(lambda d: growth_ref(n, d), 1)
            assert check_growth(n, digits=1) == expected, n
        for digits in (1, 2, 3, 4):
            assert check_constant(digits) == ladder_ref(constant_ref, digits), digits

    def test_factorial_lower_decides_on_dyadic_endpoints(self, monkeypatch):
        # At n = 1000 the first rung's dyadic rounding decides: no base of
        # the 50-digit enclosure (a 159-bit denominator) is ever raised to
        # the 25000th power.
        bases = []

        def recording_cmp_power(lhs, rhs):
            bases.extend(base for base, _ in (*lhs, *rhs))
            return cmp_power(lhs, rhs)

        monkeypatch.setattr(alternating, "cmp_power", recording_cmp_power)
        assert check_factorial_lower(1000) is True
        fractions = [b for b in bases if isinstance(b, Fraction)]
        assert fractions
        assert all(b.denominator & (b.denominator - 1) == 0 for b in fractions)

    def test_hook_upper(self):
        assert check_hook_upper(2) is True
        assert check_hook_upper(3) is True
        assert check_hook_upper(8) is True

    def test_hook_upper_max_member_bound(self):
        # the largest member is the full rectangle; re-verify the bound there
        from chardeg.partitions import enumerate_gamma

        for m in (2, 5):
            bound = (m + 1) ** ((m + 1) ** 2)
            for lam in enumerate_gamma(m):
                assert hooks(lam).product < bound

    def test_growth_examples(self):
        assert check_growth(55) is True
        assert check_growth(64) is True
        assert check_growth(1000) is True
        # the reduced inequality genuinely fails for tiny n
        assert check_growth(2) is False

    def test_constant(self):
        assert check_constant(50) is True

    def test_soundness_under_refinement(self):
        # a verdict reached at low precision never flips at high precision
        for n in (15, 64, 200):
            low = check_factorial_lower(n, digits=5)
            high = check_factorial_lower(n, digits=50)
            if low is not None and high is not None:
                assert low == high
        for n in (55, 64, 1000):
            low = check_growth(n, digits=5)
            high = check_growth(n, digits=50)
            if low is not None and high is not None:
                assert low == high
