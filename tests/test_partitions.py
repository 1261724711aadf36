import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chardeg.alternating import square_fix
from chardeg.partitions import (
    GAMMA_MAX_M,
    Partition,
    degree,
    enumerate_gamma,
    hook_product,
    hooks,
    parse_partition,
    partitions_of,
)


@st.composite
def partitions(draw, max_n=25):
    n = draw(st.integers(0, max_n))
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        p = draw(st.integers(1, min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(tuple(parts))


class TestPartitionBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_empty_is_legal(self):
        empty = Partition(())
        assert empty.n == 0
        assert hooks(empty).product == 1
        assert degree(empty) == 1
        assert empty.is_self_conjugate()

    def test_text_forms(self):
        lam = parse_partition("5,4^3,3^2,1")
        assert lam == Partition((5, 4, 4, 4, 3, 3, 1))
        assert str(lam) == "5,4,4,4,3,3,1"
        assert parse_partition(str(lam)) == lam
        assert parse_partition("") == Partition(())

    def test_parse_rejects_garbage(self):
        for bad in ("a", "3,-1", "3,,2", "2,3", "3^0"):
            with pytest.raises(ValueError):
                parse_partition(bad)

    @given(partitions())
    def test_text_round_trip(self, lam):
        assert parse_partition(str(lam)) == lam
        # the exponential form: one a^k term per run of k equal parts a
        runs = Counter(lam.parts)
        text = ",".join(
            f"{a}^{k}" if k > 1 else str(a) for a, k in sorted(runs.items(), reverse=True)
        )
        assert parse_partition(text) == lam


class TestConjugate:
    def test_examples(self):
        assert Partition((5,)).conjugate() == Partition((1,) * 5)
        assert Partition((3, 2, 2)).conjugate() == Partition((3, 3, 1))
        assert Partition((2, 2)).conjugate() == Partition((2, 2))

    @given(partitions(max_n=60))
    def test_conjugate_matches_column_count(self, lam):
        parts = lam.parts
        expected = [sum(p > j for p in parts) for j in range(parts[0])] if parts else []
        assert lam.conjugate().parts == tuple(expected)

    def test_self_conjugate_examples(self):
        assert Partition((2, 2)).is_self_conjugate()
        for n in range(4, 12):
            assert not Partition((n - 1, 1)).is_self_conjugate()
        for m in range(1, 7):
            assert Partition((m,) * m).is_self_conjugate()

    @given(partitions())
    def test_involution(self, lam):
        assert lam.conjugate().conjugate() == lam

    @given(partitions())
    def test_conjugate_preserves_hooks_and_degree(self, lam):
        assert hooks(lam).product == hooks(lam.conjugate()).product
        assert degree(lam) == degree(lam.conjugate())


class TestHooks:
    def test_examples(self):
        assert hooks(Partition((1,))).rows == ((1,),)
        data = hooks(Partition((2, 1)))
        assert data.rows == ((3, 1), (1,))
        assert data.product == 3
        data = hooks(Partition((3, 2, 2)))
        assert data.rows == ((5, 4, 1), (3, 2), (2, 1))
        assert data.product == 240

    def test_product_matches_grid(self):
        for lam in partitions_of(9):
            data = hooks(lam)
            prod = 1
            for row in data.rows:
                for h in row:
                    prod *= h
            assert prod == data.product


def _first_column_product(lam: Partition) -> int:
    """H by the Frame-Robinson-Thrall first-column formula
    prod l_i! / prod_{i<j} (l_i - l_j), with l_i = parts[i] + len - 1 - i the
    first-column hook lengths; the gaps are counted, then raised."""
    firsts = [p + len(lam) - 1 - i for i, p in enumerate(lam.parts)]
    gaps = Counter(a - b for i, a in enumerate(firsts) for b in firsts[i + 1 :])
    q, r = divmod(math.prod(map(math.factorial, firsts)), math.prod(d**k for d, k in gaps.items()))
    assert r == 0
    return q


# Every member of these window families is checked against the grid and the
# first-column formula.  All m <= GAMMA_MAX_M, 23425 members, take about 17 s;
# these take about 3 s and include 44, the largest index the witness search
# up to n = 2000 meets, and the cap itself.
_WINDOW_INDICES = (*range(1, 13), 20, 33, 44, GAMMA_MAX_M)


class TestHookProduct:
    def test_examples(self):
        assert hook_product(Partition(())) == 1
        assert hook_product(Partition((1,))) == 1
        assert hook_product(Partition((3, 2, 2))) == 240
        assert hook_product(Partition((7,) * 7)) == math.factorial(49) // 475073684264389879228560

    def test_matches_grid_for_every_partition_up_to_20(self):
        for n in range(21):
            for lam in partitions_of(n):
                assert hook_product(lam) == hooks(lam).product, lam

    @pytest.mark.parametrize("m", _WINDOW_INDICES)
    def test_window_family_matches_grid_and_first_column(self, m):
        for lam in enumerate_gamma(m):
            h = hook_product(lam)
            assert h == hooks(lam).product, lam
            assert h == _first_column_product(lam), lam

    def test_square_fix_matches_grid_and_first_column(self):
        for m in range(2, GAMMA_MAX_M + 1):
            lam = square_fix(m)
            assert hook_product(lam) == hooks(lam).product == _first_column_product(lam)


class TestDegree:
    def test_examples(self):
        for n in (5, 9, 13):
            assert degree(Partition((n,))) == 1
            assert degree(Partition((n - 1, 1))) == n - 1
        assert degree(Partition((3, 2, 2))) == 21

    def test_seven_to_the_seven(self):
        d = degree(Partition((7,) * 7))
        assert d == 475073684264389879228560
        # ~ 4.75e23, first three significant digits 475
        assert 475 * 10 ** 21 <= d < 476 * 10 ** 21

    def test_column_orthogonality_small(self):
        # classical identity: sum of squared degrees over all partitions = n!
        for n in (5, 6):
            assert sum(degree(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


class TestGamma:
    def test_m1(self):
        assert [str(p) for p in enumerate_gamma(1)] == ["1", "2", "3"]

    def test_m2(self):
        got = [tuple(p.parts) for p in enumerate_gamma(2)]
        assert got == [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (4, 4)]

    def test_m8_sizes(self):
        members = list(enumerate_gamma(8))
        assert all(64 <= lam.n <= 80 for lam in members)
        assert all(len(lam) == 8 for lam in members)
        # grouped by size, increasing
        sizes = [lam.n for lam in members]
        assert sizes == sorted(sizes)

    def test_bounding_rectangles(self):
        # every member fits between the m x m and m x (m+2) rectangles
        for m in range(1, 9):
            members = list(enumerate_gamma(m))
            assert len(set(members)) == len(members)
            for lam in members:
                assert len(lam) == m
                assert all(m <= part <= m + 2 for part in lam.parts)

    def test_only_self_conjugate_member_is_square(self):
        for m in range(1, 9):
            selfconj = [lam for lam in enumerate_gamma(m) if lam.is_self_conjugate()]
            assert selfconj == [Partition((m,) * m)]

    def test_size_matches_filtered_family(self):
        for m in range(1, 9):
            members = list(enumerate_gamma(m))
            for size in range(m * m - 1, m * m + 2 * m + 2):
                expected = [lam for lam in members if lam.n == size]
                assert list(enumerate_gamma(m, size=size)) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            list(enumerate_gamma(0))

    def test_index_cap(self):
        assert GAMMA_MAX_M == 50
        assert len(list(enumerate_gamma(50, size=2600))) == 1  # the rectangle 52^50
        with pytest.raises(ValueError, match="m <= 50, got 51"):
            list(enumerate_gamma(51))


class TestPartitionsOf:
    def test_small(self):
        assert [tuple(p.parts) for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]

    def test_zero(self):
        assert list(partitions_of(0)) == [Partition(())]
        with pytest.raises(ValueError):
            list(partitions_of(-1))

    def test_counts(self):
        assert len(list(partitions_of(5))) == 7
        assert len(list(partitions_of(12))) == 77

    def test_decreasing_lex_and_unique(self):
        for n in (6, 9):
            seq = [p.parts for p in partitions_of(n)]
            assert seq == sorted(seq, reverse=True)
            assert len(set(seq)) == len(seq)
            assert all(sum(p) == n for p in seq)


class TestBranching:
    def test_square_degree_chain(self):
        # unique removable corner: the square and its predecessor have equal
        # degrees, and the fixed non-self-conjugate shape dominates both
        for m in range(2, 9):
            square = Partition((m,) * m)
            below = Partition((m,) * (m - 1) + (m - 1,))
            fixed = Partition((m + 1,) + (m,) * (m - 2) + (m - 1,))
            assert degree(square) == degree(below)
            assert degree(below) <= degree(fixed)
