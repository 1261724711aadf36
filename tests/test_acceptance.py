"""Acceptance suite.

Each test prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
(or plain `pytest`; the lines appear for failing criteria either way).
All verdicts below are decided in exact integer arithmetic; the only interval
arithmetic is the constant check, at 50 digits.
"""

import math
import time
from fractions import Fraction

import pytest

from chardeg.alternating import check_constant, check_witness, witness_range
from chardeg.degree_data import DegreeTable, check_extendible_pair, load_dir, rat
from chardeg.exact_arith import (
    cyclotomic,
    nth_root_floor,
)
from chardeg.lie_type import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    Family,
    SweepRecord,
    sweep,
)
from chardeg.partitions import Partition, degree, partitions_of
from chardeg.structure_bounds import (
    extraspecial_example,
    frobenius_example,
    maroti_bound,
    quotient_power_check,
    solvable_index_bound,
)
from conftest import grid_product, poly_mul


def _report(label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


@pytest.fixture(scope="module")
def classical_sweep():
    start = time.monotonic()
    entries = sweep(sorted(CLASSICAL_FAMILIES, key=list(Family).index),
                    rank_max=20, q_max=32)
    return entries, time.monotonic() - start


@pytest.fixture(scope="module")
def exceptional_sweep():
    start = time.monotonic()
    entries = sweep(sorted(EXCEPTIONAL_FAMILIES, key=list(Family).index),
                    rank_max=20, q_max=2 ** 13)
    return entries, time.monotonic() - start


def test_criterion_01_hook_orthogonality():
    start = time.monotonic()
    ok = all(
        sum(degree(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)
        for n in range(7, 13)
    )
    elapsed = time.monotonic() - start
    _report("1 hook-formula orthogonality n=7..12 exact", ok and elapsed < 10)


def test_criterion_02_reference_magnitudes():
    d = degree(Partition((7,) * 7))
    # rounds to 4.75e23 at 3 significant figures
    ok = 4745 * 10 ** 20 <= d < 4755 * 10 ** 20
    root = nth_root_floor(math.factorial(63), 14)
    lo, hi = 62 * root, 62 * (root + 1)
    # both ends of the integer bracket round to 1.07e8
    ok = ok and 1065 * 10 ** 5 <= lo and hi < 1075 * 10 ** 5
    _report("2 reference magnitudes (7^7 degree, 62*(63!)^(1/14))", ok)


def test_criterion_03_witness_range_exact():
    start = time.monotonic()
    reports = list(witness_range(7, 2000))
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in reports)
    ok = ok and reports[0].witness == Partition((3, 2, 2))
    ok = ok and reports[1].witness == Partition((4, 2, 2))
    # the named witnesses pass the inequality themselves
    for n, lam in ((7, Partition((3, 2, 2))), (8, Partition((4, 2, 2)))):
        ok = ok and math.factorial(n) ** 13 > (grid_product(lam) * (n - 1)) ** 14
    _report(
        f"3 witness certification n=7..2000 exact ({elapsed:.1f}s)",
        ok and elapsed < 300,
    )


def test_criterion_04_oracle_equivalence():
    ok = True
    for n in range(7, 41):
        fact13 = math.factorial(n) ** 13
        exists = any(
            fact13 > (grid_product(lam) * (n - 1)) ** 14
            for lam in partitions_of(n)
            if not lam.is_self_conjugate()
        )
        ok = ok and exists == check_witness(n).passed
    _report("4 exhaustive oracle agrees with guided search n=7..40", ok)


def test_criterion_05_power_gap_sweep(classical_sweep, exceptional_sweep):
    cls, t_cls = classical_sweep
    exc, t_exc = exceptional_sweep
    records = [e for e in cls + exc if isinstance(e, SweepRecord)]
    failures = [r.spec for r in records if not r.passed_pow14]
    elapsed = t_cls + t_exc
    ok = not failures and len(records) > 8000 and elapsed < 120
    _report(
        f"5 power-gap sweep rank<=20 q<=32 + exceptional q<=8192 "
        f"({len(records)} points, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_06_min_ratio_sweep(classical_sweep, exceptional_sweep):
    cls, _ = classical_sweep
    exc, _ = exceptional_sweep
    records = [e for e in cls + exc if isinstance(e, SweepRecord)]
    failures = [r.spec for r in records if not r.passed_ratio165]
    override = [
        r
        for r in records
        if r.spec.family is Family.LINEAR and r.spec.rank == 3 and r.spec.q == 3
    ]
    ok = not failures and len(override) == 1
    pair = override[0].ratio_pair
    ok = ok and (pair.alpha_degree, pair.beta_degree) == (39, 12)
    ok = ok and Fraction(39, 12) > Fraction(16, 5)
    _report("6 min-ratio sweep incl. override pair (39,12)", ok)


def test_criterion_07_ratio_values(data_dir):
    ok = all(
        rat(DegreeTable("pgl", (1, q - 1, q, q + 1))) == (q + 1, q - 1)
        for q in (3, 4, 5, 7, 8, 9)
    )
    tables = [t for t in load_dir(data_dir) if t.name == "PSL3(4)"]
    ok = ok and len(tables) == 1 and Fraction(*rat(tables[0])) == Fraction(16, 5)
    _report("7 ratio values for the four-degree family and PSL3(4)", ok)


def test_criterion_08_cyclotomic_identities():
    ok = True
    for n in range(1, 201):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic(d))
        ok = ok and prod == (-1,) + (0,) * (n - 1) + (1,)
    for n in range(1, 105):
        ok = ok and all(c in (-1, 0, 1) for c in cyclotomic(n))
    _report("8 cyclotomic product identity n<=200 and coefficient bound n<105", ok)


def test_criterion_09_constant_check():
    _report("9 ((2pi)^13/e^15)^(1/28) > 1.35 at 50 digits", check_constant(50) is True)


def test_criterion_10_structural_calculators():
    start = time.monotonic()
    ok = maroti_bound(5, 4) == 69
    ok = ok and solvable_index_bound(60) == 348
    ok = ok and quotient_power_check((2, 1), (1, 1), 2 ** 14) is True
    ok = ok and quotient_power_check((2, 1), (1, 1), 2 ** 14 + 1) is False
    elapsed = time.monotonic() - start
    _report("10 structural calculators exact", ok and elapsed < 1)


def test_criterion_11_example_families():
    ok = True
    for m, p in ((2, 3), (3, 7), (5, 11), (10, 11), (100, 101)):
        table = frobenius_example(p, m)
        ok = ok and rat(table) == (m, m) and table.fitting_index == m
    table = extraspecial_example(2, 10)
    ok = ok and rat(table) == (1025, 1024) and table.fitting_index == 1025
    _report("11 ratio-one and extraspecial families", ok)


def test_criterion_12_sporadic_dataset(data_dir):
    if not data_dir.is_dir() or not list(data_dir.glob("*.tsv")):
        print("ACCEPTANCE 12 sporadic dataset: skipped: data not provided")
        pytest.skip("skipped: data not provided")
    tables = [t for t in load_dir(data_dir) if t.name != "PSL3(4)"]
    ok = len(tables) == 27  # 26 sporadic groups + the Tits group
    ok = ok and all(check_extendible_pair(t) is True for t in tables)
    _report("12 sporadic dataset pair inequality (26 + Tits)", ok)
