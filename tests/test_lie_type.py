import math
import time
from fractions import Fraction

import pytest

from chardeg.lie_type import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    Exclusion,
    Family,
    GroupSpec,
    InvalidSpec,
    SweepRecord,
    beta_degree,
    check_point,
    make_spec,
    order,
    prime_powers,
    steinberg_degree,
    sweep,
)

PSI_12 = 318665857834031151167461  # composite; passes Miller-Rabin to bases 2..37

# Independently known orders (standard small-group values).
KNOWN_ORDERS = [
    (Family.LINEAR, 3, 3, 5616),
    (Family.LINEAR, 4, 2, 20160),
    (Family.LINEAR, 3, 4, 20160),
    (Family.LINEAR, 5, 2, 9999360),
    (Family.UNITARY, 4, 2, 25920),
    (Family.UNITARY, 3, 3, 6048),
    (Family.UNITARY, 4, 3, 3265920),
    (Family.SYMPLECTIC, 2, 3, 25920),
    (Family.SYMPLECTIC, 3, 2, 1451520),
    (Family.SYMPLECTIC, 3, 3, 4585351680),
    (Family.SYMPLECTIC, 4, 2, 47377612800),
    (Family.ORTH_ODD, 3, 3, 4585351680),
    (Family.ORTH_PLUS, 4, 2, 174182400),
    (Family.ORTH_PLUS, 4, 3, 4952179814400),
    (Family.ORTH_MINUS, 4, 2, 197406720),
    (Family.SUZUKI_2B2, None, 8, 29120),
    (Family.SUZUKI_2B2, None, 32, 32537600),
    (Family.TRIALITY_3D4, None, 2, 211341312),
    (Family.TRIALITY_3D4, None, 3, 20560831566912),
    (Family.G2, None, 3, 4245696),
    (Family.G2, None, 4, 251596800),
    (Family.G2, None, 5, 5859000000),
    (Family.REE_2G2, None, 27, 10073444472),
    (Family.F4, None, 2, 3311126603366400),
    (Family.E6, None, 2, 214841575522005575270400),
    (Family.TWISTED_E6, None, 2, 76532479683774853939200),
    (Family.E7, None, 2,
     2**63 * 3**11 * 5**2 * 7**3 * 11 * 13 * 17 * 19 * 31 * 43 * 73 * 127),
    (Family.E8, None, 2,
     2**120 * 3**13 * 5**5 * 7**4 * 11**2 * 13**2 * 17**2 * 19 * 31**2 * 41 * 43
     * 73 * 127 * 151 * 241 * 331),
    (Family.REE_2F4, None, 8, 2**36 * 3**5 * 5**2 * 7**2 * 13**2 * 19 * 37 * 109),
]


def reason(family, q, rank=None):
    """The exclusion reason make_spec rejects the point with."""
    with pytest.raises(InvalidSpec) as info:
        make_spec(family, q, rank=rank)
    return info.value.reason


def valid_specs(families, ranks, q_max):
    """Every covered point of the grid, skipping the ones GroupSpec rejects."""
    specs = []
    for fam in families:
        for rank in ranks if fam in CLASSICAL_FAMILIES else (None,):
            for q, _, _ in prime_powers(q_max):
                try:
                    specs.append(make_spec(fam, q, rank=rank))
                except InvalidSpec:
                    pass
    return specs


class TestValidate:
    def test_psl2_exclusion(self):
        assert reason(Family.LINEAR, 5, rank=2) == "PSL_2"
        assert reason(Family.UNITARY, 7, rank=2) == "PSL_2"
        assert reason(Family.SYMPLECTIC, 9, rank=1) == "PSL_2"

    def test_non_simple_points(self):
        assert reason(Family.UNITARY, 2, rank=3) == "not simple"
        assert reason(Family.LINEAR, 2, rank=3).startswith("not simple")
        assert reason(Family.SYMPLECTIC, 2, rank=2) == "not simple"
        assert reason(Family.ORTH_ODD, 2, rank=2).startswith("not simple")
        assert reason(Family.G2, 2).startswith("not simple")

    def test_twisted_power_constraints(self):
        make_spec(Family.SUZUKI_2B2, 8)
        assert reason(Family.SUZUKI_2B2, 2) == "q must be 2**(2f+1) with f >= 1"
        assert reason(Family.SUZUKI_2B2, 4) == "q must be 2**(2f+1) with f >= 1"
        assert reason(Family.REE_2F4, 2) is not None  # Tits: data, not here
        make_spec(Family.REE_2F4, 8)
        assert reason(Family.REE_2G2, 3) == "q must be 3**(2f+1) with f >= 1"
        make_spec(Family.REE_2G2, 27)

    def test_rank_minimums(self):
        assert reason(Family.ORTH_PLUS, 2, rank=3) == "rank below minimum 4 for orth_plus"
        assert reason(Family.ORTH_MINUS, 2, rank=3) == "rank below minimum 4 for orth_minus"
        assert reason(Family.LINEAR, 2, rank=3) is not None
        make_spec(Family.LINEAR, 3, rank=3)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError, match="is not a prime power"):
            make_spec(Family.LINEAR, 6, rank=3)
        with pytest.raises(ValueError, match="q must be at least 2"):
            make_spec(Family.LINEAR, 1, rank=3)

    def test_invalid_spec_message(self):
        with pytest.raises(ValueError, match=r"^invalid group spec \(PSL_2\)$"):
            make_spec(Family.LINEAR, 5, rank=2)

    def test_hand_built_spec_validated(self):
        with pytest.raises(ValueError):
            GroupSpec(Family.LINEAR, 2, 5, 5, 1)
        with pytest.raises(InvalidSpec) as info:
            GroupSpec(Family.LINEAR, 3, PSI_12, PSI_12, 1)
        assert info.value.reason == "q is not a prime power"
        with pytest.raises(InvalidSpec):
            GroupSpec(Family.LINEAR, 3, 8, 2, 2)  # q != p**e

    def test_large_prime_q_rejected_quickly(self):
        # q = 2**61 - 1 is prime, so make_spec must not trial-divide up to sqrt(q)
        t0 = time.perf_counter()
        assert reason(Family.SUZUKI_2B2, 2 ** 61 - 1) == "q must be 2**(2f+1) with f >= 1"
        assert time.perf_counter() - t0 < 1.0

    def test_prime_power_of_a_large_prime(self):
        spec = make_spec(Family.LINEAR, (2 ** 61 - 1) ** 2, rank=3)
        assert (spec.p, spec.e) == (2 ** 61 - 1, 2)


class TestOrders:
    @pytest.mark.parametrize("family,rank,q,expected", KNOWN_ORDERS)
    def test_known_orders(self, family, rank, q, expected):
        assert order(make_spec(family, q, rank=rank)) == expected

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            order(make_spec(Family.LINEAR, 5, rank=2))

    def test_steinberg_is_p_part(self):
        # |S| / St(S) must be an integer coprime to p
        specs = valid_specs(CLASSICAL_FAMILIES, range(2, 11), 32)
        specs += valid_specs(EXCEPTIONAL_FAMILIES, (), 32)
        checked = 0
        for spec in specs:
            o, st_deg = order(spec), steinberg_degree(spec)
            quo, rem = divmod(o, st_deg)
            assert rem == 0, spec
            assert math.gcd(quo, spec.p) == 1, spec
            checked += 1
        assert checked > 800


class TestSteinberg:
    def test_examples(self):
        assert steinberg_degree(make_spec(Family.LINEAR, 3, rank=3)) == 27
        assert steinberg_degree(make_spec(Family.SYMPLECTIC, 3, rank=2)) == 81
        assert steinberg_degree(make_spec(Family.E8, 2)) == 2 ** 120


class TestBeta:
    def test_examples(self):
        assert beta_degree(make_spec(Family.LINEAR, 2, rank=4)).beta_degree == 14
        assert beta_degree(make_spec(Family.SYMPLECTIC, 3, rank=2)).beta_degree == 6
        assert beta_degree(make_spec(Family.SUZUKI_2B2, 8)).beta_degree == 14

    def test_orthogonal_values(self):
        # singular-point permutation-character constituents at q = 2
        assert beta_degree(make_spec(Family.ORTH_PLUS, 2, rank=4)).beta_degree == 50
        assert beta_degree(make_spec(Family.ORTH_MINUS, 2, rank=4)).beta_degree == 34
        assert beta_degree(make_spec(Family.ORTH_PLUS, 2, rank=5)).beta_degree == 186
        assert beta_degree(make_spec(Family.ORTH_MINUS, 2, rank=5)).beta_degree == 154

    def test_integrality_across_grid(self):
        # every constant division inside the degree formulas must be exact;
        # beta_degree raises ArithmeticError otherwise
        specs = valid_specs(CLASSICAL_FAMILIES, range(2, 9), 16)
        specs += valid_specs(EXCEPTIONAL_FAMILIES, (), 32)
        for spec in specs:
            pair = beta_degree(spec)
            assert 2 <= pair.beta_degree <= pair.alpha_degree, spec

    def test_exceptional_spot_values(self):
        assert beta_degree(make_spec(Family.REE_2G2, 27)).beta_degree == 2184
        assert beta_degree(make_spec(Family.TRIALITY_3D4, 2)).beta_degree == 26
        assert beta_degree(make_spec(Family.G2, 3)).beta_degree == 104
        assert beta_degree(make_spec(Family.F4, 2)).beta_degree == 1377
        assert beta_degree(make_spec(Family.REE_2F4, 8)).beta_degree == 1839048
        assert beta_degree(make_spec(Family.E6, 2)).beta_degree == 2 * 17 * 73
        assert beta_degree(make_spec(Family.TWISTED_E6, 2)).beta_degree == 2 * 17 * 57
        assert beta_degree(make_spec(Family.E8, 2)).beta_degree == 545925250


class TestChecks:
    def test_power_gap_examples(self):
        r = check_point(make_spec(Family.LINEAR, 2, rank=4))
        assert (r.gap_pair.alpha_degree, r.gap_pair.beta_degree, r.order) == (64, 14, 20160)
        assert r.passed_pow14
        assert 64 ** 14 > 14 ** 14 * 20160  # direct big-integer oracle

        r = check_point(make_spec(Family.REE_2G2, 27))
        assert r.order == 19683 * 19684 * 26
        assert r.passed_pow14

        r = check_point(make_spec(Family.SYMPLECTIC, 3, rank=2))
        assert (r.gap_pair.alpha_degree, r.gap_pair.beta_degree) == (81, 6)
        assert r.order == 25920
        assert r.passed_pow14

    def test_min_ratio_override(self):
        r = check_point(make_spec(Family.LINEAR, 3, rank=3))
        assert (r.ratio_pair.alpha_degree, r.ratio_pair.beta_degree) == (39, 12)
        assert r.passed_ratio165
        assert 5 * 39 >= 16 * 12
        # the standard pair at that point genuinely needs the override
        assert (r.gap_pair.alpha_degree, r.gap_pair.beta_degree) == (27, 12)
        assert not 5 * r.gap_pair.alpha_degree >= 16 * r.gap_pair.beta_degree

    def test_min_ratio_examples(self):
        r = check_point(make_spec(Family.UNITARY, 3, rank=3))
        assert r.ratio_pair.beta_degree == 6  # q(q-1) at q=3
        assert r.passed_ratio165
        r = check_point(make_spec(Family.ORTH_PLUS, 2, rank=4))
        assert r.passed_ratio165

    def test_psl34_hits_bound_exactly(self):
        r = check_point(make_spec(Family.LINEAR, 4, rank=3))
        assert (r.ratio_pair.alpha_degree, r.ratio_pair.beta_degree) == (64, 20)
        assert Fraction(64, 20) == Fraction(16, 5)
        assert r.passed_ratio165  # equality passes the >= check


class TestSweep:
    def test_empty_below_two(self):
        assert sweep([Family.LINEAR], rank_max=5, q_max=1) == []

    def test_suzuki_q_set(self):
        entries = sweep([Family.SUZUKI_2B2], q_max=512)
        got = [e.spec.q for e in entries if isinstance(e, SweepRecord)]
        assert got == [8, 32, 128, 512]

    def test_linear_small_grid_all_pass(self):
        entries = sweep([Family.LINEAR], rank_max=5, q_max=9)
        oks = [e for e in entries if isinstance(e, SweepRecord)]
        assert oks and all(e.passed_pow14 for e in oks)

    def test_deterministic(self):
        a = sweep([Family.LINEAR, Family.G2], rank_max=4, q_max=8)
        b = sweep([Family.LINEAR, Family.G2], rank_max=4, q_max=8)
        assert a == b

    def test_exclusions_recorded(self):
        entries = sweep([Family.LINEAR], rank_max=3, q_max=3)
        excluded = [e for e in entries if isinstance(e, Exclusion)]
        assert any(e.q == 2 and e.rank == 3 for e in excluded)

    def test_linear_ratio_monotone_in_q(self):
        for rank in (4, 5):
            entries = sweep([Family.LINEAR], rank_max=rank, q_max=32)
            ratios = [
                Fraction(e.gap_pair.alpha_degree, e.gap_pair.beta_degree)
                for e in entries
                if isinstance(e, SweepRecord) and e.spec.rank == rank
            ]
            assert all(x < y for x, y in zip(ratios, ratios[1:]))


def test_prime_powers():
    assert prime_powers(1) == []
    got = [q for q, _, _ in prime_powers(32)]
    assert got == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_pair_invariant_across_grids():
    # every checked point produces nonlinear degrees with alpha >= beta >= 2
    entries = sweep(sorted(CLASSICAL_FAMILIES, key=list(Family).index),
                    rank_max=20, q_max=32)
    entries += sweep(sorted(EXCEPTIONAL_FAMILIES, key=list(Family).index),
                     q_max=1024)
    records = [e for e in entries if isinstance(e, SweepRecord)]
    assert len(records) > 2000
    for r in records:
        assert 2 <= r.gap_pair.beta_degree <= r.gap_pair.alpha_degree, r.spec
        assert 2 <= r.ratio_pair.beta_degree <= r.ratio_pair.alpha_degree, r.spec
