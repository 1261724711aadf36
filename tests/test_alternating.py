import contextlib
import hashlib
import io
import json
import math
import time
from fractions import Fraction

import pytest

from chardeg import alternating, cli, exact_arith
from chardeg.alternating import (
    check_constant,
    check_factorial_lower,
    check_growth,
    check_hook_upper,
    check_witness,
    square_fix,
    witness_range,
)
from chardeg.exact_arith import const_interval
from chardeg.partitions import Partition, degree, enumerate_gamma, hook_product, hooks, partitions_of
from conftest import load_workloads

WORKLOADS = load_workloads()


class TestGammaIndex:
    # The window index of n is math.isqrt(n), the m of the window family
    # that check_witness searches above EXHAUSTIVE_MAX.
    def test_examples(self):
        assert math.isqrt(64) == 8
        assert math.isqrt(80) == 8
        assert math.isqrt(63) == 7

    def test_window_inequality(self):
        for n in range(1, 500):
            m = math.isqrt(n)
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


def _sha256(x: int) -> str:
    return hashlib.sha256(x.to_bytes((x.bit_length() + 7) // 8, "big")).hexdigest()


def _closed_form_witness(n: int) -> Partition:
    # n = m*m + e with 0 <= e <= 2m: ((m+2)^(e//2), (m+1)^(e%2), m^(m - ceil(e/2)))
    # for e > 0, and square_fix(m) for e = 0.
    m = math.isqrt(n)
    e = n - m * m
    if e == 0:
        return square_fix(m)
    return Partition((m + 2,) * (e // 2) + (m + 1,) * (e % 2) + (m,) * (m - (e + 1) // 2))


def _passes_directly(n: int, lam: Partition) -> bool:
    # independent route: direct integer powers, no cmp_power
    return math.factorial(n) ** 13 > (hooks(lam).product * (n - 1)) ** 14


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
        assert d ** 14 > math.factorial(49) * 48 ** 14

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

    def test_best_above_48_is_least_in_the_window_family_only(self, capsys):
        # At n = 49 the window family of index 7 holds only (7^7), which is
        # replaced by square_fix(7), so --best reports it (H ~ 5.33e37); a
        # passing partition outside the family has H ~ 6.04e32.
        r = check_witness(49, best=True)
        assert r.passed and r.witness == square_fix(7) == Partition((8,) + (7,) * 5 + (6,))
        assert r.hook_product == 53349782376052088761321783296000000000
        other = Partition((10, 8, 7, 6, 5, 4, 3, 2, 2, 1, 1))
        assert other.n == 49 and not other.is_self_conjugate()
        assert _passes_directly(49, other)
        assert hook_product(other) == 603524358269851825078272000000000
        # the help says so, and names the cut-over at EXHAUSTIVE_MAX
        with pytest.raises(SystemExit):
            cli.main(["prop42", "--help"])
        # (compared without whitespace, which argparse wraps to the terminal)
        help_text = "".join(capsys.readouterr().out.split())
        assert alternating.EXHAUSTIVE_MAX == 48
        assert "".join(
            "least-H passer among the candidates: every non-self-conjugate partition of n up "
            "to 48; above 48, the window family of index floor(sqrt(n))".split()
        ) in help_text

    def test_json_shape(self, capsys):
        assert cli.main(["prop42", "--n", "7"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)["records"]
        assert doc["n"] == 7
        assert doc["witness"] == "3,2,2"
        assert doc["hook_product"] == "240"
        assert doc["passed"] is True

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            check_witness(6)

    def test_size_cap(self):
        assert alternating.MAX_N == 2000
        assert check_witness(2000).passed is True
        with pytest.raises(ValueError, match="n <= 2000, got 2001"):
            check_witness(2001)
        with pytest.raises(ValueError, match="n <= 2000, got 2001"):
            check_factorial_lower(2001)

    @pytest.mark.parametrize(
        "lo, hi, best",
        [
            (7, 60, False),
            (45, 55, True),
            (48, 50, False),
            # across the switch from the exhaustive search to the window family
            (44, 52, False),
            (95, 105, False),
            # across 121 = 11**2, where square_fix(11) is the witness
            (120, 122, False),
            # from a chunk boundary of the witness benchmark
            (743, 822, False),
            (1990, 2000, False),
            # --best above 48, where every window member is decided at each n
            (1500, 1510, True),
        ],
    )
    def test_range_matches_single_calls(self, lo, hi, best):
        # A range carries (n!)**13 and the reported (H*(n-1))**14 from n to
        # n+1; each report equals the single call's, and both powers are the
        # ones built directly.
        reports = list(witness_range(lo, hi, best))
        assert reports == [check_witness(n, best) for n in range(lo, hi + 1)]
        for n, r in zip(range(lo, hi + 1), reports):
            lhs = math.factorial(n) ** 13
            rhs = (hook_product(r.witness) * (n - 1)) ** 14
            assert r.margin.lhs_sha256 == _sha256(lhs)
            assert (r.margin.rhs_bits, r.margin.rhs_sha256) == (rhs.bit_length(), _sha256(rhs))

    def test_inconsistent_carry_raises(self):
        # The carried power is divided exactly or not at all: a carried x
        # that is not the root of the carried power is refused.
        x_prev = hook_product(square_fix(7)) * 48
        x = hook_product(check_witness(50).witness) * 49
        assert alternating._carry(x, x_prev, x_prev**14) == x**14
        # 2**61 - 1 is a prime above every hook length, so it divides no power
        with pytest.raises(ArithmeticError):
            alternating._carry(x, 2**61 - 1, x_prev**14)

    def test_no_passer_reports_smallest_failure_quickly(self):
        # With (n!)**13 replaced by 1 nothing passes: the report is the
        # window member with the smallest hook product, found in one scan of
        # the window family (no search over the p(101) ~ 2e8 partitions).
        start = time.perf_counter()
        passed, lam, h, tried = alternating._search(101, 1, False)
        assert time.perf_counter() - start < 1.0
        members = list(alternating._gamma_candidates(101))
        assert not passed and tried == len(members)
        assert lam == min(members, key=lambda lam: hooks(lam).product)
        assert h == hooks(lam).product

    @pytest.mark.parametrize("lo, hi, best", [(7, 60, False), (49, 60, True)])
    def test_search_decides_by_cmp_power_alone(self, monkeypatch, lo, hi, best):
        # Every candidate is one cmp_power call, and none of them builds a
        # product: the bit lengths or leading bits decide each, and the only
        # 14th powers built are the reported ones, for the margin evidence.
        calls = 0

        def counted(lhs, rhs):
            nonlocal calls
            calls += 1
            return exact_arith.cmp_power(lhs, rhs)

        def refuse(factors):
            raise AssertionError("built a product")

        monkeypatch.setattr(alternating, "cmp_power", counted)
        monkeypatch.setattr(exact_arith, "_product", refuse)
        reports = list(witness_range(lo, hi, best))
        assert calls == sum(r.candidates_tried for r in reports)
        assert all(r.passed for r in reports)

    def test_whole_window_family_passes_for_large_index(self):
        # for window index >= 8 every candidate (with the square replaced)
        # passes, so the window search always finds a witness there
        for m in (8, 9):
            fixed = square_fix(m)
            for lam in enumerate_gamma(m):
                if lam.is_self_conjugate():
                    lam = fixed
                assert _passes_directly(lam.n, lam), lam


    def test_window_candidates_never_self_conjugate(self):
        for n in range(49, alternating.MAX_N + 1):
            members = list(alternating._gamma_candidates(n))
            assert members and all(lam.n == n for lam in members), n
            assert not any(lam.is_self_conjugate() for lam in members), n

    @pytest.mark.parametrize("n", [49, 64, 100, 529, 1000, 1999, 2000])
    def test_margin_matches_plain_powers(self, n):
        # a single n raises rhs directly, and a range carries it from n-1
        # (test_range_matches_single_calls); the evidence must fingerprint
        # the same integers as the plain powers
        r = check_witness(n)
        lhs = math.factorial(n) ** 13
        rhs = (hook_product(r.witness) * (n - 1)) ** 14
        assert (r.margin.lhs_bits, r.margin.lhs_sha256) == (lhs.bit_length(), _sha256(lhs))
        assert (r.margin.rhs_bits, r.margin.rhs_sha256) == (rhs.bit_length(), _sha256(rhs))


class TestClosedFormWitness:
    # n = m*m + e, 0 <= e <= 2m: the first window candidate, and the witness
    # reported above EXHAUSTIVE_MAX, is the closed form _closed_form_witness.
    def test_first_window_candidate(self):
        for n in range(9, alternating.MAX_N + 1):
            assert next(alternating._gamma_candidates(n)) == _closed_form_witness(n), n

    def test_range_reports_closed_form(self):
        reports = witness_range(alternating.EXHAUSTIVE_MAX + 1, alternating.MAX_N)
        for n, r in zip(range(alternating.EXHAUSTIVE_MAX + 1, alternating.MAX_N + 1), reports):
            assert r.n == n and r.passed and r.witness == _closed_form_witness(n), n


class TestIntervalChecks:
    def test_factorial_lower_examples(self):
        assert check_factorial_lower(15) is True
        assert check_factorial_lower(64) is True
        with pytest.raises(ValueError):
            check_factorial_lower(14)

    def test_matches_fraction_reference(self):
        # Reference: the same inequalities decided with Fraction powers of
        # lo/2**b and hi/2**b, independently of cmp_power, on the same rungs:
        # ceil(3.322*d) + 2 bits for d, 2d, 4d, ... (capped at 400 digits);
        # the verdict must be the first decided one.
        def ladder_ref(ref, digits):
            d = digits
            while True:
                verdict = ref(-(-3322 * d // 1000) + 2)
                if verdict is not None or d >= 400:
                    return verdict
                d = min(2 * d, 400)

        def enclosure(name, b):
            lo, hi = const_interval(name, b)
            return Fraction(lo, 2 ** b), Fraction(hi, 2 ** b)

        def factorial_lower_ref(n, b):
            # e**(25n) against the rest as one Fraction, so that no gcd is
            # taken on the product with the large power of e.
            bound = (Fraction(27) ** 28 * Fraction(n) ** (25 * n) * Fraction(n - 1) ** 28
                     / (Fraction(math.factorial(n)) ** 26 * Fraction(20) ** 28))
            e_lo, e_hi = enclosure("e", b)
            if e_lo ** (25 * n) > bound:
                return True
            if e_hi ** (25 * n) <= bound:
                return False
            return None

        def growth_ref(n, b):
            rhs = Fraction(64) ** 567 * Fraction(n) ** 233
            e_lo, e_hi = enclosure("e", b)
            if e_hi ** 800 * Fraction(81) ** 567 <= rhs:
                return True
            if e_lo ** 800 * Fraction(81) ** 567 > rhs:
                return False
            return None

        def constant_ref(b):
            tp_lo, tp_hi = enclosure("two_pi", b)
            e_lo, e_hi = enclosure("e", b)
            if tp_lo ** 13 * Fraction(20) ** 28 > Fraction(27) ** 28 * e_hi ** 15:
                return True
            if tp_hi ** 13 * Fraction(20) ** 28 <= Fraction(27) ** 28 * e_lo ** 15:
                return False
            return None

        factorial_cases = [(n, d) for d in (1, 2, 3) for n in range(15, 61)]
        sample = (*range(15, 31), 64, 100, 250, 499, 1000)
        factorial_cases += [(n, d) for d in (1, 50) for n in sample]
        factorial_cases += [(n, 1) for n in (1500, 1999, 2000)]
        for n, digits in factorial_cases:
            expected = ladder_ref(lambda b: factorial_lower_ref(n, b), digits)
            assert expected is True or digits < 50
            assert check_factorial_lower(n, digits) == expected, (n, digits)
        for digits in (1, 50):
            for n in range(1, 401):
                expected = ladder_ref(lambda b: growth_ref(n, b), digits)
                assert check_growth(n, digits) == expected, (n, digits)
        for digits in (1, 2, 3, 4, 50):
            assert check_constant(digits) == ladder_ref(constant_ref, digits), digits

    def test_factorial_lower_decides_on_dyadic_endpoints(self, monkeypatch):
        # At n = 1000 the 50-digit rung decides: the only enclosure built is
        # that of e at b = ceil(3.322 * 50) + 2 = 169 bits, whose endpoints
        # have at most b + 2 bits.
        built = []

        def recording_const_interval(name, bits):
            built.append((name, bits, const_interval(name, bits)))
            return built[-1][2]

        monkeypatch.setattr(alternating, "const_interval", recording_const_interval)
        assert check_factorial_lower(1000) is True
        [(name, bits, endpoints)] = built
        assert (name, bits) == ("e", 169)
        assert all(end.bit_length() <= bits + 2 for end in endpoints)

    def test_interval_verdicts_build_no_product(self, monkeypatch):
        # Every comparison of these checks is decided by the bit lengths or
        # the leading bits of its bases; none builds either product.
        def refuse(factors):
            raise AssertionError("built a product")

        monkeypatch.setattr(exact_arith, "_product", refuse)
        for n in (15, 250, 1000, 2000):
            assert check_factorial_lower(n) is True
        assert check_growth(54) is False
        for n in (55, 56, 1000):
            assert check_growth(n) is True
        assert check_constant() is True
        for m in range(1, 13):
            assert check_hook_upper(m) is True

    def test_digits_below_one_rejected(self):
        # The digit ladder never ends below 1, so the checks refuse it.
        with pytest.raises(ValueError):
            check_factorial_lower(1000, 0)
        with pytest.raises(ValueError):
            check_growth(100, -3)
        with pytest.raises(ValueError):
            check_constant(0)

    def test_digits_above_max_rejected(self, monkeypatch):
        # The requested rung is always built, so digits above MAX_DIGITS are
        # refused before any enclosure is.
        monkeypatch.setattr(alternating, "const_interval", None)
        for check in (lambda d: check_factorial_lower(1000, d), lambda d: check_growth(55, d),
                      check_constant):
            with pytest.raises(ValueError, match="1 <= digits <= 400, got 401"):
                check(alternating.MAX_DIGITS + 1)

    def test_hook_upper(self):
        assert check_hook_upper(2) is True
        assert check_hook_upper(3) is True
        assert check_hook_upper(8) is True

    def test_hook_upper_matches_grid_products(self):
        for m in range(1, 13):
            bound = (m + 1) ** ((m + 1) ** 2)
            expected = all(hooks(lam).product < bound for lam in enumerate_gamma(m))
            assert check_hook_upper(m) is expected

    def test_hook_upper_max_member_bound(self):
        # the largest member is the full rectangle; re-verify the bound there
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


class TestPrecisionLadder:
    """The rung of the digit ladder that decides each check, for the golden
    queries and for the benchmark's interval workload."""

    def test_default_digits_decide_at_the_printed_rung(self, monkeypatch):
        # Every golden lemma43 and lemma46 query without --digits builds
        # only the 50-digit rung, at 169 bits: the precision it prints.
        built = []

        def recording_const_interval(name, bits):
            built.append((name, bits))
            return const_interval(name, bits)

        monkeypatch.setattr(alternating, "const_interval", recording_const_interval)
        golden = WORKLOADS.load_golden()["commands"]
        queries = [
            key for key in golden
            if key.split()[0] in ("lemma43", "lemma46") and "--digits" not in key
        ]
        assert "lemma43 --constant" in queries and len(queries) >= 5
        for key in queries:
            built.clear()
            result = cli.run(key.split())
            assert result.exit_code == golden[key]["rc"] and result.payload["digits"] == 50
            names = ["two_pi", "e"] if key == "lemma43 --constant" else ["e"]
            assert built == [(name, 169) for name in names], key

    def test_interval_workload_rungs(self, monkeypatch):
        # _digit_ladder wrapped as the benchmark tracer wraps it, whose
        # yielded items are interval_steps and the largest interval_digits_max.
        pulled = []
        ladder = alternating._digit_ladder

        def recording_ladder(digits):
            for d in ladder(digits):
                pulled.append(d)
                yield d

        monkeypatch.setattr(alternating, "_digit_ladder", recording_ladder)
        commands, _ = WORKLOADS.interval_pass(WORKLOADS.load_golden(), 901, 0)
        climbs = {
            ("lemma46", "--n", "55", "--digits", "1"): [1, 2, 4],
            ("lemma43", "--constant"): [50],
        }
        for cmd in commands:
            pulled.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(cmd.argv))
            assert rc == cmd.expect_rc and cmd.check(out.getvalue().encode()) is None
            assert pulled, cmd.argv
            assert pulled == climbs.get(cmd.argv, pulled), cmd.argv
        # Every lemma43 --n the workload can draw decides at its first rung.
        lo, hi = WORKLOADS.LEMMA43_PAIR
        mid, jitter = WORKLOADS.LEMMA43_MID, WORKLOADS.LEMMA43_MID_JITTER
        for n in (*range(mid - jitter, mid + jitter + 1), *range(lo, hi + 1)):
            pulled.clear()
            assert check_factorial_lower(n) is True
            assert pulled == [50], n
