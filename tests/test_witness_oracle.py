"""The witness reports re-derived by the ranking rule written out in full,
with its own candidate lists, hook products from the grid route and built
powers compared with >.  Nothing here uses hook_product or cmp_power."""

import math

import pytest

from chardeg.alternating import witness_range
from chardeg.partitions import Partition, enumerate_gamma, partitions_of
from conftest import grid_product

NAMED = {7: Partition((3, 2, 2)), 8: Partition((4, 2, 2))}


def _candidates(n: int) -> list[Partition]:
    # Up to 48 the named witness, then every other non-self-conjugate
    # partition of n; above 48 the window family of index isqrt(n), with
    # (m+1, m^(m-2), m-1) in place of the square (m^m).
    if n <= 48:
        rest = [lam for lam in partitions_of(n)
                if lam != NAMED.get(n) and lam.conjugate() != lam]
        return [NAMED[n], *rest] if n in NAMED else rest
    m = math.isqrt(n)
    square = Partition((m + 1,) + (m,) * (m - 2) + (m - 1,))
    return [square if lam.conjugate() == lam else lam for lam in enumerate_gamma(m, size=n)]


def _ranked(n: int, best: bool) -> tuple[bool, Partition, int]:
    # Rank by (passed, -H), keep the first of equals, and without best stop
    # at the first passer.
    lhs = math.factorial(n) ** 13
    found = None
    for lam in _candidates(n):
        h = grid_product(lam)
        passed = lhs > (h * (n - 1)) ** 14
        if found is None or (passed, -h) > (found[0], -found[2]):
            found = (passed, lam, h)
        if passed and not best:
            break
    return found


@pytest.mark.parametrize("lo, hi, best", [(7, 30, False), (7, 30, True), (49, 64, True)])
def test_reports_match_the_ranking_rule(lo, hi, best):
    for r in witness_range(lo, hi, best):
        assert (r.passed, r.witness, r.hook_product) == _ranked(r.n, best), r.n
