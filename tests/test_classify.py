import tracemalloc
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primover.classification
from primover.arith import factorize, is_prime
from primover.classification import (
    Status,
    classify,
    is_strong_pseudoprime,
    is_superpseudoprime,
    overpseudoprime_by_coset_count,
    overpseudoprime_by_order_criterion,
    overpseudoprimes_upto,
    scan,
    strong_pseudoprime_ordinal,
    strong_pseudoprimes_upto,
)
from primover.errors import DomainError
from oracles import longhand_census, naive_is_prime, naive_strong_test

# the start of the base-2 overpseudoprime sequence, for cross-checks
FIRST_OVERPSEUDOPRIMES = (
    2047, 3277, 4033, 8321, 65281, 80581, 85489, 88357,
    104653, 130561, 220729, 253241,
)

WIEFERICH_SQUARE = 1093**2


@lru_cache(maxsize=None)
def longhand_to_wieferich_square(base):
    """The oracle census at 1093^2; a smaller bound takes its prefix."""
    return longhand_census(base, WIEFERICH_SQUARE)


def longhand_upto(base, bound):
    return tuple(n for n in longhand_to_wieferich_square(base) if n <= bound)


class TestDefinitionalTest:
    def test_2047(self):
        result = overpseudoprime_by_coset_count(2, 2047)
        assert result == (True, 186, 11)
        assert 2047 == result.r * result.h + 1

    def test_9_fails(self):
        result = overpseudoprime_by_coset_count(2, 9)
        assert result.ok is False
        assert (result.r, result.h) == (2, 6)  # 2*6 + 1 = 13, not 9

    def test_341_fails(self):
        assert overpseudoprime_by_coset_count(2, 341).ok is False

    def test_preconditions(self):
        with pytest.raises(DomainError):
            overpseudoprime_by_coset_count(2, 2048)  # even
        with pytest.raises(DomainError):
            overpseudoprime_by_coset_count(2, 23)  # prime
        with pytest.raises(DomainError):
            overpseudoprime_by_coset_count(3, 341 * 3)  # shared factor


class TestCriterionTest:
    def test_2047(self):
        result = overpseudoprime_by_order_criterion(2, 2047)
        assert result.ok is True
        assert result.orders == ((23, 1, 11), (89, 1, 11))
        assert result.h == 11

    def test_fermat_number(self):
        result = overpseudoprime_by_order_criterion(2, 4294967297)
        assert result.ok is True
        assert result.orders == ((641, 1, 64), (6700417, 1, 64))

    def test_511_fails(self):
        result = overpseudoprime_by_order_criterion(2, 511)
        assert result.ok is False
        assert result.orders == ((7, 1, 3), (73, 1, 9))

    def test_wieferich_square(self):
        # 1093^2 keeps order 364 at both powers, so it is overpseudoprime
        result = overpseudoprime_by_order_criterion(2, 1093**2)
        assert result.ok is True
        assert result.h == 364


class TestClassify:
    def test_prime(self):
        c = classify(2, 65537)
        assert c.status is Status.PRIME
        assert c.primover and not c.probabilistic

    def test_overpseudoprime(self):
        c = classify(2, 4294967297)
        assert c.status is Status.OVERPSEUDOPRIME
        assert c.primover
        assert c.evidence.h == 64
        assert c.evidence.factorization.factors == ((641, 1), (6700417, 1))

    def test_composite_not_primover(self):
        c = classify(2, 341)
        assert c.status is Status.COMPOSITE_NOT_PRIMOVER
        assert not c.primover
        assert c.evidence.reason is not None

    def test_even_composite(self):
        c = classify(2, 15 * 2)
        assert c.status is Status.COMPOSITE_NOT_PRIMOVER
        assert "even" in c.evidence.reason

    def test_shared_factor(self):
        c = classify(3, 21)
        assert c.status is Status.COMPOSITE_NOT_PRIMOVER
        assert "factor 3" in c.evidence.reason

    def test_out_of_domain(self):
        assert classify(2, 1).status is Status.OUT_OF_DOMAIN
        assert classify(2, 0).status is Status.OUT_OF_DOMAIN
        assert classify(1, 7).status is Status.OUT_OF_DOMAIN

    def test_cross_check_fills_r_below_ceiling(self):
        c = classify(2, 2047)
        assert c.evidence.r == 186
        big = classify(2, 4294967297)
        assert big.evidence.r is None  # above the enumeration ceiling

    def test_odd_prime_smaller_than_base(self):
        assert classify(5, 3).status is Status.PRIME


class TestStrongPseudoprime:
    def test_known_values(self):
        assert is_strong_pseudoprime(2, 2047)
        assert not is_strong_pseudoprime(2, 341)
        assert is_strong_pseudoprime(2, 1082401)

    def test_rejects_noncomposites_quietly(self):
        assert not is_strong_pseudoprime(2, 13)  # prime
        assert not is_strong_pseudoprime(2, 2048)  # even
        assert not is_strong_pseudoprime(2, 1)

    def test_first_five(self):
        found, _ = strong_pseudoprimes_upto(2, 10**4)
        assert found == [2047, 3277, 4033, 4681, 8321]

    def test_matches_naive_filter(self):
        found, _ = strong_pseudoprimes_upto(2, 10**4)
        expected = [
            n
            for n in range(3, 10**4 + 1, 2)
            if not is_prime(n) and naive_strong_test(2, n)
        ]
        assert found == expected


class TestSuperPseudoprime:
    def test_known_values(self):
        assert is_superpseudoprime(2, 2047)
        assert is_superpseudoprime(2, 341)  # all of 11, 31, 341 pass Fermat
        assert not is_superpseudoprime(2, 561)  # 2^32 mod 33 = 4

    def test_overpseudoprimes_are_superpseudoprimes(self):
        for n in overpseudoprimes_upto(2, 10**5):
            assert is_superpseudoprime(2, n), n


class TestOrdinal:
    def test_example_50(self):
        assert strong_pseudoprime_ordinal(2, 1082401) == 50

    def test_rejects_non_pseudoprime(self):
        with pytest.raises(DomainError):
            strong_pseudoprime_ordinal(2, 2047 + 2)
        with pytest.raises(DomainError):
            strong_pseudoprime_ordinal(2, 65537)


class TestScan:
    def test_empty_below_first(self):
        report = scan(2, 2046)
        assert report.strong_pseudoprimes == ()
        assert report.overpseudoprime_count == 0

    def test_to_3000(self):
        report = scan(2, 3000)
        assert report.strong_pseudoprimes == (2047,)
        assert report.overpseudoprime_count == 1
        assert report.prime_count == 430
        assert report.primover_count == 431

    def test_bound_validation(self):
        with pytest.raises(DomainError):
            scan(2, 2)
        with pytest.raises(DomainError):
            scan(1, 100)

    def test_parallel_matches_serial(self, monkeypatch):
        # shrink segments so a small bound spans several of them
        monkeypatch.setattr(primover.classification, "_SEGMENT", 1 << 14)
        for base in (2, 6):
            serial = scan(base, 10**5, workers=1)
            parallel = scan(base, 10**5, workers=2)
            assert serial == parallel

    def test_pool_is_capped_at_segment_count(self, monkeypatch):
        # a stand-in pool that records its size and runs the jobs in-process
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(primover.classification.multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(primover.classification, "_SEGMENT", 1 << 10)
        found = strong_pseudoprimes_upto(2, 3 * (1 << 10) - 1, workers=64)
        assert sizes == [3]
        assert found == strong_pseudoprimes_upto(2, 3 * (1 << 10) - 1)

    # 6, 10 and 15 are divisible by sieving primes, and 4, 6, 10 and 15 have
    # order 1 at one: ord_3(4) = ord_5(6) = ord_3(10) = ord_7(15) = 1
    @pytest.mark.parametrize("base", (2, 3, 4, 5, 6, 7, 10, 15))
    def test_segments_match_naive(self, monkeypatch, base):
        # 1024-wide segments, so 2*10^4 spans about twenty of them
        monkeypatch.setattr(primover.classification, "_SEGMENT", 1 << 10)
        bound = 2 * 10**4
        found, prime_count = strong_pseudoprimes_upto(base, bound)
        assert found == [
            n
            for n in range(3, bound + 1, 2)
            if not naive_is_prime(n) and naive_strong_test(base, n)
        ]
        assert prime_count == sum(1 for n in range(bound + 1) if naive_is_prime(n))

    @pytest.mark.parametrize("base", (2, 3))
    @pytest.mark.parametrize(
        "lo, hi", (((1 << 26) - (1 << 12), 1 << 26), ((1 << 30) + 1, (1 << 30) + (1 << 11)))
    )
    def test_far_window_matches_naive(self, base, lo, hi):
        # the sieve table a scan to hi - 1 would build, used on its last window
        sieve = primover.classification._sieve_table(base, hi - 1)
        found, prime_count = primover.classification._segment_survivors(base, lo, hi, sieve)
        odd = range(lo | 1, hi, 2)
        assert prime_count == sum(1 for n in odd if naive_is_prime(n))
        assert found == [
            n for n in odd if naive_strong_test(base, n) and not naive_is_prime(n)
        ]

    def test_counts_are_consistent(self):
        report = scan(2, 10**5)
        assert report.primover_count == report.prime_count + report.overpseudoprime_count
        assert report.overpseudoprime_count <= len(report.strong_pseudoprimes)


class TestCensus:
    def test_first_entries(self):
        assert overpseudoprimes_upto(2, 10**5) == FIRST_OVERPSEUDOPRIMES[:8]

    def test_matches_scan_filter(self):
        report = scan(2, 10**5)
        filtered = tuple(
            n
            for n in report.strong_pseudoprimes
            if overpseudoprime_by_order_criterion(2, n).ok
        )
        assert overpseudoprimes_upto(2, 10**5) == filtered

    def test_includes_wieferich_square(self):
        census = overpseudoprimes_upto(2, 1_200_000)
        assert 1093**2 in census

    def test_below_smallest_is_empty(self):
        assert overpseudoprimes_upto(2, 2046) == ()

    def test_base_3(self):
        census = overpseudoprimes_upto(3, 10**5)
        for n in census:
            assert overpseudoprime_by_order_criterion(3, n).ok
        report = scan(3, 10**5)
        filtered = tuple(
            n
            for n in report.strong_pseudoprimes
            if overpseudoprime_by_order_criterion(3, n).ok
        )
        assert census == filtered

    @pytest.mark.parametrize("base", (5, 6, 7, 10))
    def test_matches_scan_filter_other_bases(self, base):
        report = scan(base, 1 << 18)
        filtered = tuple(
            n
            for n in report.strong_pseudoprimes
            if overpseudoprime_by_order_criterion(base, n).ok
        )
        assert overpseudoprimes_upto(base, 1 << 18) == filtered

    @pytest.mark.parametrize("base", range(2, 41))
    def test_matches_longhand(self, base):
        bounds = [9, 2046, 2047, WIEFERICH_SQUARE - 1, WIEFERICH_SQUARE, (1 << 17) + 1]
        if base in (2, 3, 5, 6, 7, 10, 15):
            bounds.append(1 << 20)
        for bound in bounds:
            assert overpseudoprimes_upto(base, bound) == longhand_upto(base, bound), bound

    @pytest.mark.parametrize("base", (7, 31, 34))
    def test_matches_longhand_where_order_is_one(self, base):
        # 3 | a - 1 seeds class 1; for base 34 the walk adds 11 | 33 while
        # isqrt(bound) < 11, so 33 = 3 * 11 comes from the walk at first
        for bound in range(9, 3000):
            assert overpseudoprimes_upto(base, bound) == longhand_upto(base, bound), bound

    def test_memory_is_bounded(self):
        tracemalloc.start()
        try:
            census = overpseudoprimes_upto(2, 1 << 24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(census) == 119
        assert peak < 8 << 20

    @pytest.mark.deep
    def test_matches_scan_filter_to_1e9(self):
        report = scan(2, 10**9, workers=2)
        filtered = tuple(
            n
            for n in report.strong_pseudoprimes
            if overpseudoprime_by_order_criterion(2, n).ok
        )
        assert overpseudoprimes_upto(2, 10**9) == filtered
        assert len(filtered) == 663


@settings(max_examples=150)
@given(st.integers(min_value=3, max_value=10**6))
def test_strong_pseudoprime_definition_property(n):
    if n % 2 == 0:
        assert not is_strong_pseudoprime(2, n)
        return
    expected = not is_prime(n) and gcd(2, n) == 1 and naive_strong_test(2, n)
    assert is_strong_pseudoprime(2, n) == expected
