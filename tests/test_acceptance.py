"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports a PASS/FAIL line in the
terminal summary. Criteria that need a many-minute scan are marked deep and
stay skipped unless pytest runs with --run-deep.
"""
import os
import time
from contextlib import contextmanager
from math import gcd

import pytest

from conftest import ACCEPTANCE
from oracles import moebius_cofactor
from primover.arith import is_prime, mult_order, smallest_factor_table
from primover.classification import (
    Status,
    classify,
    is_strong_pseudoprime,
    is_superpseudoprime,
    overpseudoprime_by_coset_count,
    overpseudoprime_by_order_criterion,
    overpseudoprimes_upto,
    strong_pseudoprime_ordinal,
)
from primover.construct import (
    exponent_identity,
    primitive_cofactor,
    primitive_cofactor_value,
    prime_power_cofactor,
    two_prime_cofactor,
)
from primover.cosets import decompose

WORKERS = max(1, os.cpu_count() or 1)

CRITERIA = {
    1: "4294967297 is overpseudoprime to base 2, both prime factors of order 64, under 1 s",
    2: "two-prime cofactor at 5,7 is primover 8727391 = strong pseudoprime #150, under 60 s",
    3: "prime-power cofactor at 5^2 is primover 1082401 = strong pseudoprime #50, under 10 s",
    4: "primitive cofactor of 2^70-1 is primover 24214051 = strong pseudoprime #254, under 120 s",
    5: "4294967297 is strong pseudoprime #2315 to base 2 (deep scan)",
    6: "2^p-1 prime for p in {2,3,5,7,13,17,19,31}, overpseudoprime for p in {11,23,29,37,41,43}",
    7: "definition and order criterion agree on every odd composite below 10^5, bases 2, 3, 5",
    8: "cofactor value equals the Mobius product oracle for every composite n <= 200, bases 2, 3",
    9: "signed exponent sum equals phi(n) for every 2 <= n <= 10^4",
    10: "base-2 overpseudoprimes below 10^7 are strong and super pseudoprimes, distinct orders coprime",
    11: "two-prime cofactor at 3,7 is 2359, shares factor 7, composite-not-primover",
    12: "coset partition and counting invariants for odd n <= 2000, bases 2, 3, 5",
}

for _num, _desc in CRITERIA.items():
    ACCEPTANCE[_num] = (_desc, "NOT RUN")
ACCEPTANCE[5] = (CRITERIA[5], "SKIP (enable with --run-deep)")


@contextmanager
def criterion(num: int):
    ACCEPTANCE[num] = (CRITERIA[num], "FAIL")
    yield
    ACCEPTANCE[num] = (CRITERIA[num], "PASS")


def test_criterion_1_fermat_number_classification():
    with criterion(1):
        start = time.perf_counter()
        c = classify(2, 4294967297)
        elapsed = time.perf_counter() - start
        assert c.status is Status.OVERPSEUDOPRIME
        assert c.primover
        assert c.evidence.orders == ((641, 1, 64), (6700417, 1, 64))
        assert c.evidence.h == 64
        assert elapsed < 1.0, f"classification took {elapsed:.3f}s"


def test_criterion_2_two_prime_cofactor_and_ordinal():
    with criterion(2):
        start = time.perf_counter()
        v = two_prime_cofactor(2, 5, 7)
        assert v.product.value == 8727391
        assert v.coprimality_holds
        assert v.classification.primover
        assert strong_pseudoprime_ordinal(2, 8727391, workers=WORKERS) == 150
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_prime_power_cofactor_and_ordinal():
    with criterion(3):
        start = time.perf_counter()
        v = prime_power_cofactor(2, 5, 2)
        assert v.product.value == 1082401
        assert v.classification.primover
        assert strong_pseudoprime_ordinal(2, 1082401, workers=WORKERS) == 50
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_4_primitive_cofactor_and_ordinal():
    with criterion(4):
        start = time.perf_counter()
        v = primitive_cofactor(2, 70)
        assert v.product.value == 24214051
        assert v.coprimality_holds
        assert v.classification.primover
        assert strong_pseudoprime_ordinal(2, 24214051, workers=WORKERS) == 254
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


@pytest.mark.deep
def test_criterion_5_deep_ordinal():
    with criterion(5):
        assert strong_pseudoprime_ordinal(2, 4294967297, workers=WORKERS) == 2315


def test_criterion_6_mersenne_split():
    with criterion(6):
        for p in (2, 3, 5, 7, 13, 17, 19, 31):
            assert is_prime(2**p - 1), p
        for p in (11, 23, 29, 37, 41, 43):
            c = classify(2, 2**p - 1)
            assert c.status is Status.OVERPSEUDOPRIME, p
            assert c.evidence.h == p


def test_criterion_7_definition_criterion_equivalence():
    with criterion(7):
        table = smallest_factor_table(100_000)
        checked = 0
        for n in range(9, 100_001, 2):
            if table[n] == n:
                continue
            for a in (2, 3, 5):
                if gcd(a, n) != 1:
                    continue
                by_definition = overpseudoprime_by_coset_count(a, n)
                by_criterion = overpseudoprime_by_order_criterion(a, n)
                assert by_definition.ok == by_criterion.ok, (a, n)
                checked += 1
        assert checked > 90_000


def test_criterion_8_moebius_oracle():
    with criterion(8):
        for a in (2, 3):
            for n in range(4, 201):
                if is_prime(n):
                    continue
                assert primitive_cofactor_value(a, n).value == moebius_cofactor(a, n), (a, n)


def test_criterion_9_exponent_identity():
    with criterion(9):
        for n in range(2, 10_001):
            ident = exponent_identity(n)
            assert ident.holds and ident.signed_sum == ident.phi, n


def test_criterion_10_containment_and_pairwise_coprimality():
    with criterion(10):
        found = overpseudoprimes_upto(2, 10_000_000)
        assert len(found) == 91
        orders = {}
        for n in found:
            assert is_strong_pseudoprime(2, n), n
            assert is_superpseudoprime(2, n), n
            orders[n] = mult_order(2, n)
        for i, m in enumerate(found):
            for n in found[i + 1 :]:
                if orders[m] != orders[n]:
                    assert gcd(m, n) == 1, (m, n)


def test_criterion_11_negative_witness():
    with criterion(11):
        v = two_prime_cofactor(2, 3, 7)
        assert v.product.value == 2359
        assert gcd(2359, (2**3 - 1) * (2**7 - 1)) == 7
        assert not v.coprimality_holds
        assert v.classification.status is Status.COMPOSITE_NOT_PRIMOVER


def test_criterion_12_coset_invariants():
    with criterion(12):
        for a in (2, 3, 5):
            for n in range(3, 2001, 2):
                if gcd(a, n) != 1:
                    continue
                d = decompose(a, n)
                flattened = sorted(x for coset in d.cosets for x in coset)
                assert flattened == list(range(1, n)), (a, n)
                for coset in d.cosets:
                    members = set(coset)
                    assert {(x * a) % n for x in members} == members, (a, n)
                lead = next(c for c in d.cosets if 1 in c)
                assert len(lead) == d.h == mult_order(a, n)
                assert d.r == len(d.cosets)
                if is_prime(n):
                    assert len({len(c) for c in d.cosets}) == 1, (a, n)
                    assert n == d.r * d.h + 1, (a, n)
