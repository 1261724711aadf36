import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from chardeg import exact_arith, lie_type
from chardeg.degree_data import load_dir
from chardeg.exact_arith import cyclotomic, eval_poly
from chardeg.lie_type import (
    _FAMILIES,
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    MAX_RANK,
    SWEEP_MAX_BITS,
    SWEEP_MAX_Q,
    CharPair,
    Exclusion,
    Family,
    GroupSpec,
    InvalidSpec,
    SweepRecord,
    _Value,
    _check_order_bits,
    _evaluate,
    _rows,
    check_point,
    make_spec,
    prime_powers,
    sweep,
)
from chardeg.partitions import degree as partition_degree, partitions_of

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


# A second implementation of the registry, independent of the binomial rows in
# lie_type: every order as q**N * prod(Phi_k(q)**m_k) / centre (Carter,
# Finite Groups of Lie Type, 1985) and every companion degree from its closed
# form, with the cyclotomic polynomials of exact_arith.

# (N, {k: m_k}) for the exceptional orders.
EXCEPTIONAL_ORDER_PHIS = {
    Family.SUZUKI_2B2: (2, {1: 1, 4: 1}),
    Family.TRIALITY_3D4: (12, {1: 2, 2: 2, 3: 2, 6: 2, 12: 1}),
    Family.G2: (6, {1: 2, 2: 2, 3: 1, 6: 1}),
    Family.REE_2G2: (3, {1: 1, 2: 1, 6: 1}),
    Family.F4: (24, {1: 4, 2: 4, 3: 2, 4: 2, 6: 2, 8: 1, 12: 1}),
    Family.REE_2F4: (12, {1: 2, 2: 2, 4: 2, 6: 1, 12: 1}),
    Family.E6: (36, {1: 6, 2: 4, 3: 3, 4: 2, 5: 1, 6: 2, 8: 1, 9: 1, 12: 1}),
    Family.TWISTED_E6: (36, {1: 4, 2: 6, 3: 2, 4: 2, 6: 3, 8: 1, 10: 1, 12: 1, 18: 1}),
    Family.E7: (63, {1: 7, 2: 7, 3: 3, 4: 2, 5: 1, 6: 3, 7: 1, 8: 1, 9: 1, 10: 1, 12: 1,
                     14: 1, 18: 1}),
    Family.E8: (120, {1: 8, 2: 8, 3: 4, 4: 4, 5: 2, 6: 4, 7: 1, 8: 2, 9: 1, 10: 2, 12: 2,
                      14: 1, 15: 1, 18: 1, 20: 1, 24: 1, 30: 1}),
}

# (ks, den) for the exceptional companion degrees q * prod(Phi_k(q)) / den.
EXCEPTIONAL_BETA_PHIS = {
    Family.TRIALITY_3D4: ((12,), 1),
    Family.G2: ((2, 2, 3), 6),
    Family.F4: ((2, 2, 6, 6, 8), 2),
    Family.REE_2F4: ((6, 12), 1),
    Family.E6: ((8, 9), 1),
    Family.TWISTED_E6: ((8, 18), 1),
    Family.E7: ((7, 12, 14), 1),
    Family.E8: ((4, 4, 8, 12, 20, 24), 1),
}


def _classical_order_phis(fam, n):
    """(N, {k: m_k}) for a classical order."""
    if fam in (Family.LINEAR, Family.UNITARY):
        # prod(q**i - 1 for i in 2..n); the unitary order is its Ennola dual
        return n * (n - 1) // 2, {k: n // k - (k == 1) for k in range(1, n + 1)}
    # prod(q**(2i) - 1 for i in 1..r): Phi_k divides it r // k times for odd
    # k and 2r // k times for even k
    r = n if fam in (Family.SYMPLECTIC, Family.ORTH_ODD) else n - 1
    phis = {k: (r // k if k % 2 else 2 * r // k) for k in range(1, 2 * n + 1)}
    if fam is Family.ORTH_PLUS:  # times q**n - 1
        for k in range(1, n + 1):
            phis[k] += n % k == 0
    elif fam is Family.ORTH_MINUS:  # times q**n + 1
        for k in range(1, 2 * n + 1):
            phis[k] += 2 * n % k == 0 and n % k != 0
    return n * r, phis


def order_oracle(spec):
    fam, n, q = spec.family, spec.rank, spec.q
    if fam in CLASSICAL_FAMILIES:
        big_n, phis = _classical_order_phis(fam, n)
        centre = {
            Family.LINEAR: math.gcd(n, q - 1),
            Family.UNITARY: math.gcd(n, q + 1),
            Family.SYMPLECTIC: math.gcd(2, q - 1),
            Family.ORTH_ODD: math.gcd(2, q - 1),
            Family.ORTH_PLUS: math.gcd(4, q ** n - 1),
            Family.ORTH_MINUS: math.gcd(4, q ** n + 1),
        }[fam]
    else:
        big_n, phis = EXCEPTIONAL_ORDER_PHIS[fam]
        centre = {Family.E6: math.gcd(3, q - 1), Family.TWISTED_E6: math.gcd(3, q + 1),
                  Family.E7: math.gcd(2, q - 1)}.get(fam, 1)
    x = -q if fam is Family.UNITARY else q
    raw = q ** big_n * math.prod(abs(eval_poly(cyclotomic(k), x)) ** m for k, m in phis.items())
    quo, rem = divmod(raw, centre)
    assert rem == 0, spec
    return quo


def beta_oracle(spec):
    fam, n, q = spec.family, spec.rank, spec.q
    if fam is Family.LINEAR:
        num, den = q ** n - q, q - 1
    elif fam is Family.UNITARY:
        num, den = q ** n + q * (-1) ** n, q + 1
    elif fam in (Family.SYMPLECTIC, Family.ORTH_ODD):
        num, den = (q ** n - 1) * (q ** n - q), 2 * (q + 1)
    elif fam is Family.ORTH_PLUS:
        num, den = (q ** n - 1) * (q ** (n - 1) + q), q ** 2 - 1
    elif fam is Family.ORTH_MINUS:
        num, den = (q ** n + 1) * (q ** (n - 1) - q), q ** 2 - 1
    elif fam in (Family.SUZUKI_2B2, Family.REE_2G2):
        # q = p**(2f+1) and sqrt(q/p) = p**f
        root = spec.p ** (spec.e // 2)
        num, den = (q - 1 if fam is Family.SUZUKI_2B2 else q * q - 1) * root, 1
    else:
        ks, den = EXCEPTIONAL_BETA_PHIS[fam]
        num = q * math.prod(eval_poly(cyclotomic(k), q) for k in ks)
    quo, rem = divmod(num, den)
    assert rem == 0, spec
    return quo


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

    def test_rank_refused_on_a_fixed_rank_family(self):
        assert reason(Family.E8, 2, rank=7) == "E8 takes no rank parameter"
        assert reason(Family.G2, 3, rank=0) == "G2 takes no rank parameter"
        with pytest.raises(InvalidSpec) as info:
            GroupSpec(Family.E8, 7, 2, 2, 1)
        assert info.value.reason == "E8 takes no rank parameter"

    def test_large_prime_q_rejected_quickly(self):
        # q = 2**61 - 1 is prime, so make_spec must not trial-divide up to sqrt(q)
        t0 = time.perf_counter()
        assert reason(Family.SUZUKI_2B2, 2 ** 61 - 1) == "q must be 2**(2f+1) with f >= 1"
        assert time.perf_counter() - t0 < 1.0

    def test_order_size_cap(self):
        # linear rank 100 has an order of q-degree 9999: a 13-bit q stays
        # within 2**17 bits, a 14-bit q does not and is refused before factoring
        assert make_spec(Family.LINEAR, 2 ** 12, rank=100).e == 12
        with pytest.raises(ValueError, match="up to 139986 bits, more than 131072"):
            make_spec(Family.LINEAR, 2 ** 13, rank=100)
        with pytest.raises(ValueError, match="more than 131072"):
            make_spec(Family.E8, 6 ** 4000)

    def test_large_exponents_factored_quickly(self):
        t0 = time.perf_counter()
        for family, rank, p, e in [(Family.SUZUKI_2B2, None, 2, 26213),  # e prime, 26214 bits
                                   (Family.LINEAR, 3, 3, 6930), (Family.LINEAR, 3, 1009, 1000)]:
            spec = make_spec(family, p ** e, rank=rank)
            assert (spec.p, spec.e) == (p, e)
        # A prime factor below 256 settles a q of any size: 6 and 3**6930 * 2
        # are even, so neither q is a prime power.
        with pytest.raises(ValueError, match="is not a prime power"):
            make_spec(Family.LINEAR, 6 ** 4000, rank=3)
        with pytest.raises(ValueError, match="is not a prime power"):
            make_spec(Family.LINEAR, 3 ** 6930 * 2, rank=3)
        # q = p**2 with p = 2**61 - 1: the square root is proved prime by
        # Miller-Rabin, past trial division.
        spec = make_spec(Family.LINEAR, (2 ** 61 - 1) ** 2, rank=3)
        assert (spec.p, spec.e) == (2 ** 61 - 1, 2)
        # A root at or above psi_13 with no small factor still gets the range error.
        with pytest.raises(ValueError, match="is_prime is exact only below"):
            make_spec(Family.LINEAR, (2 ** 127 - 1) ** 2, rank=3)
        assert time.perf_counter() - t0 < 1.0

    def test_prime_power_of_a_large_prime(self):
        spec = make_spec(Family.LINEAR, (2 ** 61 - 1) ** 2, rank=3)
        assert (spec.p, spec.e) == (2 ** 61 - 1, 2)


class TestOrders:
    @pytest.mark.parametrize("family,rank,q,expected", KNOWN_ORDERS)
    def test_known_orders(self, family, rank, q, expected):
        assert check_point(make_spec(family, q, rank=rank)).order == expected

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            check_point(make_spec(Family.LINEAR, 5, rank=2))

    def test_steinberg_is_p_part(self):
        # |S| / St(S) must be an integer coprime to p
        specs = valid_specs(CLASSICAL_FAMILIES, range(2, 11), 32)
        specs += valid_specs(EXCEPTIONAL_FAMILIES, (), 32)
        checked = 0
        for spec in specs:
            r = check_point(spec)
            o, st_deg = r.order, r.gap_pair.alpha_degree
            quo, rem = divmod(o, st_deg)
            assert rem == 0, spec
            assert math.gcd(quo, spec.p) == 1, spec
            checked += 1
        assert checked > 800


class TestSteinberg:
    def test_examples(self):
        assert check_point(make_spec(Family.LINEAR, 3, rank=3)).gap_pair.alpha_degree == 27
        assert check_point(make_spec(Family.SYMPLECTIC, 3, rank=2)).gap_pair.alpha_degree == 81
        assert check_point(make_spec(Family.E8, 2)).gap_pair.alpha_degree == 2 ** 120


class TestBeta:
    def test_examples(self):
        assert check_point(make_spec(Family.LINEAR, 2, rank=4)).gap_pair.beta_degree == 14
        assert check_point(make_spec(Family.SYMPLECTIC, 3, rank=2)).gap_pair.beta_degree == 6
        assert check_point(make_spec(Family.SUZUKI_2B2, 8)).gap_pair.beta_degree == 14

    def test_orthogonal_values(self):
        # singular-point permutation-character constituents at q = 2
        assert check_point(make_spec(Family.ORTH_PLUS, 2, rank=4)).gap_pair.beta_degree == 50
        assert check_point(make_spec(Family.ORTH_MINUS, 2, rank=4)).gap_pair.beta_degree == 34
        assert check_point(make_spec(Family.ORTH_PLUS, 2, rank=5)).gap_pair.beta_degree == 186
        assert check_point(make_spec(Family.ORTH_MINUS, 2, rank=5)).gap_pair.beta_degree == 154

    def test_integrality_across_grid(self):
        # every constant division inside the degree formulas must be exact;
        # beta_degree raises ArithmeticError otherwise
        specs = valid_specs(CLASSICAL_FAMILIES, range(2, 9), 16)
        specs += valid_specs(EXCEPTIONAL_FAMILIES, (), 32)
        for spec in specs:
            pair = check_point(spec).gap_pair
            assert 2 <= pair.beta_degree <= pair.alpha_degree, spec

    def test_exceptional_spot_values(self):
        assert check_point(make_spec(Family.REE_2G2, 27)).gap_pair.beta_degree == 2184
        assert check_point(make_spec(Family.TRIALITY_3D4, 2)).gap_pair.beta_degree == 26
        assert check_point(make_spec(Family.G2, 3)).gap_pair.beta_degree == 104
        assert check_point(make_spec(Family.F4, 2)).gap_pair.beta_degree == 1377
        assert check_point(make_spec(Family.REE_2F4, 8)).gap_pair.beta_degree == 1839048
        assert check_point(make_spec(Family.E6, 2)).gap_pair.beta_degree == 2 * 17 * 73
        assert check_point(make_spec(Family.TWISTED_E6, 2)).gap_pair.beta_degree == 2 * 17 * 57
        assert check_point(make_spec(Family.E8, 2)).gap_pair.beta_degree == 545925250


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

    def test_ratio_override_is_row_data(self):
        # PSL_3(3) has the degrees 1, 12, 13, 16 (4 times), 26 (3 times), 27
        # and 39, whose squares sum to its order; the override is two of them
        overrides = {f: row.ratio_overrides for f, row in _FAMILIES.items() if row.ratio_overrides}
        assert overrides == {Family.LINEAR: {(3, 3): CharPair(39, 12, "degrees 39 and 12")}}
        degrees = [1, 12, 13] + [16] * 4 + [26] * 3 + [27, 39]
        order = check_point(make_spec(Family.LINEAR, 3, rank=3)).order
        assert sum(d * d for d in degrees) == order == 5616

    def test_psl34_hits_bound_exactly(self):
        r = check_point(make_spec(Family.LINEAR, 4, rank=3))
        assert (r.ratio_pair.alpha_degree, r.ratio_pair.beta_degree) == (64, 20)
        assert Fraction(64, 20) == Fraction(16, 5)
        assert r.passed_ratio165  # equality passes the >= check


class _Reached(Exception):
    pass


# The q-degree of each order is the dimension of the algebraic group, halved
# for the Suzuki and Ree groups: an oracle independent of the formula table.
_DIMENSION = {
    Family.LINEAR: lambda n: n * n - 1,
    Family.UNITARY: lambda n: n * n - 1,
    Family.SYMPLECTIC: lambda n: 2 * n * n + n,
    Family.ORTH_ODD: lambda n: 2 * n * n + n,
    Family.ORTH_PLUS: lambda n: 2 * n * n - n,
    Family.ORTH_MINUS: lambda n: 2 * n * n - n,
    Family.SUZUKI_2B2: 5, Family.TRIALITY_3D4: 28, Family.G2: 14, Family.REE_2G2: 7,
    Family.F4: 52, Family.REE_2F4: 26, Family.E6: 78, Family.TWISTED_E6: 78,
    Family.E7: 133, Family.E8: 248,
}


def _grid_bits(families, rank_max, q_max):
    # B: the sum over the grid's points of the order's q-degree times bitlen(q).
    degrees = sum(
        sum(map(_DIMENSION[f], range(_FAMILIES[f].rank_min, rank_max + 1)))
        if f in CLASSICAL_FAMILIES else _DIMENSION[f]
        for f in families
    )
    return degrees * sum(q.bit_length() for q, _, _ in prime_powers(q_max))


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

    def test_input_caps(self):
        assert make_spec(Family.LINEAR, 2, rank=MAX_RANK).rank == MAX_RANK
        with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} is above the maximum"):
            make_spec(Family.LINEAR, 2, rank=MAX_RANK + 1)
        assert sweep([], rank_max=MAX_RANK, q_max=SWEEP_MAX_Q) == []
        with pytest.raises(ValueError, match="rank_max"):
            sweep([], rank_max=MAX_RANK + 1)
        with pytest.raises(ValueError, match="q_max"):
            sweep([], q_max=SWEEP_MAX_Q + 1)

    def test_order_size_cap(self):
        # linear rank n has an order row of q-degree n**2 - 1: at q_max =
        # 2**16 (17 bits) rank 87 is under the cap and rank 88 is refused
        # before any point is checked
        with pytest.raises(ValueError, match="the order of linear would build .* 169983 bits"):
            sweep([Family.LINEAR], rank_max=MAX_RANK, q_max=SWEEP_MAX_Q)
        with pytest.raises(ValueError, match="131631 bits"):
            sweep([Family.LINEAR], rank_max=88, q_max=SWEEP_MAX_Q)
        # ranks below the family's minimum are an empty grid, not a refusal
        assert sweep([Family.ORTH_PLUS], rank_max=3, q_max=SWEEP_MAX_Q) == []

    def test_benchmark_grids_under_the_order_cap(self, monkeypatch):
        for fam in CLASSICAL_FAMILIES:
            _check_order_bits(fam, 20, 32)
        for fam in EXCEPTIONAL_FAMILIES:
            _check_order_bits(fam, None, 8192)
        # The corner alone admits rank 87 at q_max 2**16; the grid's total
        # below refuses it.
        _check_order_bits(Family.LINEAR, 87, SWEEP_MAX_Q)
        # The grid bound B: the benchmark and README grids, and the classical
        # grid at rank 100, are admitted (a sweep that reaches its first point
        # passed both caps), while linear grids at q_max 2**16 from rank 20 up
        # are refused.
        assert _grid_bits(CLASSICAL_FAMILIES, 20, 32) == 2_145_300
        assert _grid_bits(EXCEPTIONAL_FAMILIES, None, 8192) == 8_422_041
        assert _grid_bits(CLASSICAL_FAMILIES, MAX_RANK, 32) == 253_743_300

        def reached(*point):
            raise _Reached

        monkeypatch.setattr(lie_type, "validate", reached)
        for fams, rank_max, q_max in ((CLASSICAL_FAMILIES, 20, 32),
                                      (EXCEPTIONAL_FAMILIES, 20, 8192),
                                      (CLASSICAL_FAMILIES, MAX_RANK, 32)):
            with pytest.raises(_Reached):
                sweep(fams, rank_max=rank_max, q_max=q_max)
        for rank_max in (20, 70, 87):
            bits = _grid_bits([Family.LINEAR], rank_max, SWEEP_MAX_Q)
            assert bits > SWEEP_MAX_BITS
            with pytest.raises(ValueError, match=f"total up to {bits} bits, more than 268435456"):
                sweep([Family.LINEAR], rank_max=rank_max, q_max=SWEEP_MAX_Q)

    def test_comparisons_mostly_decided_by_bit_lengths(self, monkeypatch):
        # On the benchmark grids (classical rank <= 20, q <= 32; exceptional
        # q <= 8192) at most 2 % of the power-gap comparisons build powers.
        built = []
        product = exact_arith._product
        monkeypatch.setattr(exact_arith, "_product", lambda f: built.append(f) or product(f))
        entries = sweep(CLASSICAL_FAMILIES, rank_max=20, q_max=32)
        entries += sweep(EXCEPTIONAL_FAMILIES, q_max=8192)
        points = sum(isinstance(e, SweepRecord) for e in entries)
        assert points == 9500
        assert len(built) // 2 <= points // 50

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
    for limit in (0, 1, 2, 32, 8192):
        brute = [
            (p ** e, p, e)
            for p in range(2, limit + 1) if exact_arith.is_prime(p)
            for e in range(1, limit.bit_length() + 1) if p ** e <= limit
        ]
        assert prime_powers(limit) == sorted(brute)


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


class TestSecondImplementation:
    SPECS = valid_specs(CLASSICAL_FAMILIES, range(2, 13), 64) + valid_specs(
        EXCEPTIONAL_FAMILIES, (), 64
    )

    def test_grid_covers_every_family(self):
        assert {s.family for s in self.SPECS} == set(Family)
        assert len(self.SPECS) > 1500

    def test_orders_match_cyclotomic_products(self):
        for spec in self.SPECS:
            assert check_point(spec).order == order_oracle(spec), spec

    def test_beta_matches_closed_forms(self):
        for spec in self.SPECS:
            assert check_point(spec).gap_pair.beta_degree == beta_oracle(spec), spec


# The PSL_n, PSU_n, E6 and 2E6 rows as they were transcribed one family at a
# time, before PSU_n and 2E6 became the eps = -1 rows of PSL_n and E6.
def _transcribed_linear(n):
    return (
        _Value(n * (n - 1) // 2, tuple((i, 1) for i in range(2, n + 1)), centre=(n, 1, 1)),
        _Value(1, ((n - 1, 1),), ((1, 1),)),
    )


def _transcribed_unitary(n):
    return (
        _Value(
            n * (n - 1) // 2, tuple((i, (-1) ** i) for i in range(2, n + 1)), centre=(n, 1, -1)
        ),
        _Value(1, ((n - 1, (-1) ** (n - 1)),), ((1, -1),)),
    )


TRANSCRIBED_E6 = (
    _Value(36, ((12, 1), (9, 1), (8, 1), (6, 1), (5, 1), (2, 1)), centre=(3, 1, 1)),
    _Value(1, ((4, -1), (9, 1)), ((3, 1),)),
)
TRANSCRIBED_2E6 = (
    _Value(36, ((12, 1), (9, -1), (8, 1), (6, 1), (5, -1), (2, 1)), centre=(3, 1, -1)),
    _Value(1, ((4, -1), (9, -1)), ((3, -1),)),
)


def _linear_forms(n, x):
    """|PSL_n| * gcd(n, x - 1) and the (n-1,1) degree x(x**(n-1) - 1)/(x - 1),
    as polynomials in x."""
    order = x ** (n * (n - 1) // 2) * math.prod(x ** i - 1 for i in range(2, n + 1))
    return order, (x ** n - x) // (x - 1)


def _e6_forms(x):
    """|E6| * gcd(3, x - 1) and phi_{6,1} = x * Phi_8(x) * Phi_9(x)."""
    order = x ** 36 * math.prod(x ** d - 1 for d in (2, 5, 6, 8, 9, 12))
    return order, x * (x ** 4 + 1) * (x ** 6 + x ** 3 + 1)


class TestEnnolaDuality:
    """PSU_n(q) and 2E6(q) are PSL_n and E6 at -q (Ennola 1963): their orders
    and companion degrees are the PSL_n and E6 closed forms evaluated at
    x = -q, in absolute value, with the centre gcd(k, q + 1) in place of
    gcd(k, q - 1).  At x = q the same forms give PSL_n and E6 themselves."""

    @staticmethod
    def _assert_matches(families, rank, q, forms, k):
        for fam, x, centre in ((families[0], q, math.gcd(k, q - 1)),
                               (families[1], -q, math.gcd(k, q + 1))):
            try:
                r = check_point(make_spec(fam, q, rank=rank))
            except InvalidSpec:
                continue
            order, beta = forms(x)
            quo, rem = divmod(abs(order), centre)
            assert rem == 0 and r.order == quo, (fam, rank, q)
            assert r.gap_pair.beta_degree == abs(beta), (fam, rank, q)

    def test_unitary_is_linear_at_minus_q(self):
        for n in range(3, 21):
            for q, _, _ in prime_powers(32):
                self._assert_matches((Family.LINEAR, Family.UNITARY), n, q,
                                     lambda x: _linear_forms(n, x), n)

    def test_twisted_e6_is_e6_at_minus_q(self):
        for q, _, _ in prime_powers(64):
            self._assert_matches((Family.E6, Family.TWISTED_E6), None, q, _e6_forms, 3)

    def test_rows_equal_the_transcribed_rows(self):
        for n in range(3, MAX_RANK + 1):
            assert _rows(Family.LINEAR, n) == _transcribed_linear(n), n
            assert _rows(Family.UNITARY, n) == _transcribed_unitary(n), n
        assert _rows(Family.E6, None) == TRANSCRIBED_E6
        assert _rows(Family.TWISTED_E6, None) == TRANSCRIBED_2E6


class TestCrossLayer:
    def test_psl42_pair_is_a_pair_of_s8_degrees(self):
        # PSL_4(2) = A_8: its Steinberg pair lies in the hook-formula degree
        # set of S_8, and its order is 8!/2
        s8_degrees = {partition_degree(lam) for lam in partitions_of(8)}
        assert {64, 14} <= s8_degrees
        r = check_point(make_spec(Family.LINEAR, 2, rank=4))
        assert (r.gap_pair.alpha_degree, r.gap_pair.beta_degree) == (64, 14)
        assert r.order == 20160 == math.factorial(8) // 2

    def test_psl34_data_row_matches_registry(self, data_dir):
        (table,) = [t for t in load_dir(data_dir) if t.name == "PSL3(4)"]
        spec = make_spec(Family.LINEAR, 4, rank=3)
        r = check_point(spec)
        pair = r.gap_pair
        assert table.order == r.order == 20160
        assert (pair.alpha_degree, pair.beta_degree) == (64, 20)
        assert {64, 20} <= set(table.degrees)


def _raw_order(fam, rank, q):
    """The order row of a family at a point validate may reject, q prime."""
    v = _rows(fam, rank)[0]
    return _evaluate(v, q, q, q ** v.a)


def _psl2_order(q):
    return q * (q * q - 1) // math.gcd(2, q - 1)


class TestExclusionData:
    """The exclusions of _FAMILIES against the groups they name, by order
    equality."""

    def test_psl2_ranks(self):
        # PSL_2(q) = PSU_2(q) = PSp_2(q) = Omega_3(q)
        ranks = {fam: row.psl2_rank for fam, row in _FAMILIES.items() if row.psl2_rank}
        assert ranks == {Family.LINEAR: 2, Family.UNITARY: 2,
                         Family.SYMPLECTIC: 1, Family.ORTH_ODD: 1}
        for q in (2, 3, 5, 7, 11):
            for fam, rank in ranks.items():
                assert _raw_order(fam, rank, q) == _psl2_order(q), (fam, q)

    def test_not_simple_points(self):
        psu33 = check_point(make_spec(Family.UNITARY, 3, rank=3)).order
        expected = {
            (Family.LINEAR, 3, 2): _psl2_order(7),          # PSL_3(2) = PSL_2(7)
            (Family.UNITARY, 3, 2): 9 * 8,                  # 3^2:Q_8, solvable
            (Family.SYMPLECTIC, 2, 2): math.factorial(6),   # S_6 = A_6.2
            (Family.ORTH_ODD, 2, 2): math.factorial(6),
            (Family.G2, None, 2): 2 * psu33,                # G2(2)' = PSU_3(3)
        }
        got = {(fam, rank, q) for fam, row in _FAMILIES.items() for rank, q in row.not_simple}
        assert got == set(expected)
        for (fam, rank, q), size in expected.items():
            assert _raw_order(fam, rank, q) == size, fam
        assert (_psl2_order(7), psu33) == (168, 6048)
        assert _raw_order(Family.G2, None, 2) == 12096

    def test_twisted_field_primes(self, data_dir):
        primes = {fam: row.twisted_p for fam, row in _FAMILIES.items() if row.twisted_p}
        assert primes == {Family.SUZUKI_2B2: 2, Family.REE_2G2: 3, Family.REE_2F4: 2}
        # f = 0 is excluded: 2B2(2) is solvable of order 20, 2G2(3) is
        # PSL_2(8):3 and 2F4(2) is the Tits group of the data directory, .2
        (tits,) = [t for t in load_dir(data_dir) if t.name == "2F4(2)'"]
        assert _raw_order(Family.SUZUKI_2B2, None, 2) == 20
        assert _raw_order(Family.REE_2G2, None, 3) == 3 * _psl2_order(8) == 1512
        assert _raw_order(Family.REE_2F4, None, 2) == 2 * tits.order == 2 * 17971200


def _phi_indices(d: int, eps: int) -> list[int]:
    # The k with Phi_k dividing q**d - eps: q**d - 1 is the product over
    # k | d, and q**d + 1 the product over k | 2d with k not dividing d.
    assert eps in (1, -1)
    return [k for k in range(1, 2 * d + 1) if (2 * d) % k == 0 and (d % k == 0) == (eps == 1)]


def _phi_multiplicities(v: _Value) -> Counter:
    """Phi_k multiplicities of the row's numerator over its denominator and,
    where the row has a centre gcd(k, q**j - eps'), over q**j - eps' too,
    which that gcd divides."""
    mult = Counter()
    for d, eps in v.num:
        mult.update(_phi_indices(d, eps))
    for d, eps in v.den:
        mult.subtract(_phi_indices(d, eps))
    k, j, eps = v.centre
    if k != 1:
        mult.subtract(_phi_indices(j, eps))
    return mult


def _every_row():
    """(family, rank, row) for the order and beta rows of every family at
    every rank from its minimum to MAX_RANK."""
    for fam, row in _FAMILIES.items():
        for rank in (None,) if row.rank_min is None else range(row.rank_min, MAX_RANK + 1):
            for v in _rows(fam, rank):
                yield fam, rank, v


class TestIntegralForEveryQ:
    """Each row is an integer polynomial in q (times (q/p)**(h/2)) over c, at
    every q, not only on the grid _evaluate has run: its Phi_k multiplicities
    are nonnegative, and the polynomial is 0 mod c at every residue mod c of
    a prime power."""

    def test_every_multiplicity_is_nonnegative(self):
        rows = list(_every_row())
        assert len(rows) == 1196
        negative = [(fam, rank, k, m) for fam, rank, v in rows
                    for k, m in _phi_multiplicities(v).items() if m < 0]
        assert negative == []

    def test_multiplicities_give_the_evaluated_rows(self):
        # The product of the Phi_k(q) is the row before its centre gcd: a
        # check on _phi_indices itself.
        for fam, rank, v in _every_row():
            if rank is not None and rank > 20:
                continue
            for q, p in ((8, 2), (27, 3), (5, 5)):
                if _FAMILIES[fam].twisted_p not in (None, p):
                    continue
                value = q ** v.a * math.isqrt(q // p) ** v.h * math.prod(
                    eval_poly(cyclotomic(k), q) ** m for k, m in _phi_multiplicities(v).items()
                )
                k, j, eps = v.centre
                if k != 1:
                    value = value * (q ** j - eps) // math.gcd(k, q ** j - eps)
                assert value == v.c * _evaluate(v, q, p, q ** v.a), (fam, rank, q)

    def test_constant_divides_at_every_prime_power_residue(self):
        residues = {c: sorted({q % c for q, _, _ in prime_powers(1000)}) for c in (2, 6)}
        assert residues == {2: [0, 1], 6: [1, 2, 3, 4, 5]}
        rows, checks = Counter(), 0
        for fam, rank, v in _every_row():
            if v.c == 1:
                continue
            assert v.h == 0 and v.centre == (1, 1, 1), fam
            rows[v.c] += 1
            mult = _phi_multiplicities(v)
            for r in residues[v.c]:
                value = pow(r, v.a, v.c) * math.prod(
                    pow(eval_poly(cyclotomic(k), r), m, v.c) for k, m in mult.items()
                )
                assert value % v.c == 0, (fam, rank, r)
                checks += 1
        assert rows == {2: 199, 6: 1} and checks == 403

    def test_a_flipped_sign_fails_the_proof(self):
        # q**6 + 1 in the E7 beta row carries the Phi_4 that q**4 - 1 divides
        # out; as q**6 - 1 it does not.
        beta = _FAMILIES[Family.E7].rows[1]
        assert beta.num == ((14, 1), (6, -1)) and beta.den == ((4, 1),)
        assert _phi_multiplicities(beta)[4] == 0
        flipped = _phi_multiplicities(beta._replace(num=((14, 1), (6, 1))))
        assert {k: m for k, m in flipped.items() if m < 0} == {4: -1}
