import os
import pickle
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primover
import primover.arith
import primover.classification
import primover.enumeration
from primover.arith import (
    factorize,
    is_prime,
    order_tower,
    prime_count,
    smallest_factor_table,
    use_config,
)
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
)
from primover.config import Config
from primover.enumeration import (
    _SMALL_POWER_BITS,
    _jacobi,
    _prime_divisors,
    _primitive_part,
    _seed_products,
    _seeds,
    _walk,
    plan,
    search,
    walk,
)
from primover.errors import DomainError, IncompleteFactorizationError
from oracles import (
    longhand_census,
    longhand_strong_pseudoprimes,
    moebius_cofactor,
    naive_factor,
    naive_is_prime,
    naive_order,
    naive_strong_test,
)

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


@lru_cache(maxsize=None)
def longhand_spsp_to_2_20(base):
    """The longhand strong pseudoprimes to 2^20; a smaller bound takes its prefix."""
    return tuple(longhand_strong_pseudoprimes(base, 0, (1 << 20) + 1))


def longhand_spsp_upto(base, bound):
    return [n for n in longhand_spsp_to_2_20(base) if n <= bound]


def strong_tests(monkeypatch):
    """The numbers the search strong-tests from now on, in order."""
    calls = []
    real = primover.enumeration._strong_probable

    def counted(n, a):
        calls.append(n)
        return real(n, a)

    monkeypatch.setattr(primover.enumeration, "_strong_probable", counted)
    return calls


@lru_cache(maxsize=None)
def enumerated_upto(base, bound):
    found = primover.enumeration.strong_pseudoprimes(base, bound)
    return tuple(n for n, _, _ in found)


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

    def test_composite_resting_on_a_probable_prime_is_flagged(self):
        # 2^89 - 1 is above psi_13, so its primality is probable only
        m89 = 2**89 - 1
        c = classify(2, 3 * m89)
        assert c.status is Status.COMPOSITE_NOT_PRIMOVER
        assert c.evidence.factorization.factors == ((3, 1), (m89, 1))
        assert c.probabilistic
        assert not classify(2, 341).probabilistic

    def test_even_composite(self):
        c = classify(2, 15 * 2)
        assert c.status is Status.COMPOSITE_NOT_PRIMOVER
        assert "even" in c.evidence.reason

    def test_shared_factor(self):
        c = classify(3, 21)
        assert c.status is Status.COMPOSITE_NOT_PRIMOVER
        assert "factor 3" in c.evidence.reason

    def test_out_of_domain(self):
        # classify raises on a bad base or subject, like every other entry
        for n in (1, 0):
            with pytest.raises(DomainError, match="subject must exceed 1"):
                classify(2, n)
        with pytest.raises(DomainError, match="base must be at least 2"):
            classify(1, 7)

    def test_cross_check_fills_r_below_ceiling(self):
        c = classify(2, 2047)
        assert c.evidence.r == 186
        big = classify(2, 4294967297)
        assert big.evidence.r is None  # above the enumeration ceiling

    def test_odd_prime_smaller_than_base(self):
        assert classify(5, 3).status is Status.PRIME

    def test_odd_composite_is_tested_once(self, monkeypatch):
        # classify has tested n for primality before the order criterion,
        # which then does not test it again
        calls = []
        for module in (primover.arith, primover.classification):
            real = module.check_prime
            monkeypatch.setattr(
                module, "check_prime", lambda n, real=real: calls.append(n) or real(n)
            )
        assert classify(2, 341).status is Status.COMPOSITE_NOT_PRIMOVER
        assert calls.count(341) == 1


@lru_cache(maxsize=None)
def unhinted_cyclotomic_values():
    """(a, n, Phi_n(a), its unhinted classification) for bases 2, 3, 5, 6, 10
    and every composite n with a^n <= 2^128, the goldens' domain, the value
    built longhand."""
    out = []
    for a in (2, 3, 5, 6, 10):
        n = 4
        while a**n <= 2**128:
            if not naive_is_prime(n):
                v = moebius_cofactor(a, n)
                out.append((a, n, v, classify(a, v)))
            n += 1
    return tuple(out)


class TestOrderHint:
    """The order certificate is a fast path of classify; it must give the
    answer of the order criterion it replaces, field by field."""

    def test_hint_matches_the_order_criterion(self):
        certified = 0
        for a, n, v, plain in unhinted_cyclotomic_values():
            assert classify(a, v, order=n) == plain, (a, n)
            certified += plain.status is Status.OVERPSEUDOPRIME and gcd(v, n) == 1
        assert certified > 100

    def test_certified_route_flags_a_probable_prime_factor(self):
        v = (2**121 - 1) // (2**11 - 1)  # 727 times a 101-bit probable prime
        plain = classify(2, v)
        assert plain.status is Status.OVERPSEUDOPRIME and plain.probabilistic
        assert classify(2, v, order=121) == plain

    def test_wrong_hints_give_the_unhinted_answer(self):
        for a, n, v, plain in unhinted_cyclotomic_values():
            for wrong in (2 * n, n + 1):
                assert classify(a, v, order=wrong) == plain, (a, n, wrong)

    def test_certified_verdict_survives_the_budget(self):
        # F_7 = 2^128 + 1 = Phi_256(2): rho cannot split it within this
        # budget, but the hint 256 passes the certificate
        with use_config(Config(rho_budget=100_000)):
            c = classify(2, 2**128 + 1, order=256)
            assert c.status is Status.OVERPSEUDOPRIME and not c.probabilistic
            ev = c.evidence
            assert (ev.h, ev.r, ev.factorization, ev.orders) == (256, None, None, None)
            assert "certificate" in ev.reason and "budget" in ev.reason
            # without a hint, or with one that fails, the criterion still
            # needs the factorization
            for order in (None, 128):
                with pytest.raises(IncompleteFactorizationError):
                    classify(2, 2**128 + 1, order=order)

    def test_hint_on_a_value_sharing_a_factor_with_n(self):
        # Phi_21(2) = 2359 = 7 * 337: 7 | 21 has order 3, 337 has order 21
        plain = classify(2, 2359)
        assert plain.status is Status.COMPOSITE_NOT_PRIMOVER
        assert classify(2, 2359, order=21) == plain
        assert plain.evidence.orders == ((7, 1, 3), (337, 1, 21))

    def test_stripped_gcd_decides_when_the_budget_runs_out(self):
        # V = Phi_253(2), 220 bits: 23 | V has order 11, and V / 23 passes
        # the certificate for 253, so V has primes of two orders
        v = primover.arith.cyclotomic_value(2, primover.arith.cyclotomic_terms(253, (11, 23)))
        assert gcd(v, 253) == 23 and v % 23**2
        with use_config(Config(rho_budget=20_000)):
            c = classify(2, v, order=253)
            assert c.status is Status.COMPOSITE_NOT_PRIMOVER
            ev = c.evidence
            assert (ev.h, ev.r, ev.factorization, ev.orders) == (None, None, None, None)
            assert "gcd(n, 253)" in ev.reason and "budget" in ev.reason
            # without the hint the criterion still needs the factorization
            with pytest.raises(IncompleteFactorizationError):
                classify(2, v)


class TestStrongPseudoprime:
    def test_known_values(self):
        assert is_strong_pseudoprime(2, 2047)
        assert not is_strong_pseudoprime(2, 341)
        assert is_strong_pseudoprime(2, 1082401)

    def test_rejects_noncomposites_quietly(self):
        assert not is_strong_pseudoprime(2, 13)  # prime
        assert not is_strong_pseudoprime(2, 2048)  # even
        assert not is_strong_pseudoprime(2, 1)

    def test_rejects_bases_below_2_quietly(self):
        # every odd composite passes the strong test to base 1
        for a in (1, 0, -1):
            assert not is_strong_pseudoprime(a, 9)
            assert not is_strong_pseudoprime(a, 2047)

    def test_first_five(self):
        found = scan(2, 10**4).strong_pseudoprimes
        assert found == (2047, 3277, 4033, 4681, 8321)

    def test_matches_naive_filter(self):
        found = list(scan(2, 10**4).strong_pseudoprimes)
        expected = [
            n
            for n in range(3, 10**4 + 1, 2)
            if not is_prime(n) and naive_strong_test(2, n)
        ]
        assert found == expected

    @pytest.mark.parametrize("base", (2, 3, 5, 7))
    def test_one_2_adic_order_class(self, base):
        # the enumeration searches one class of nu_2(order) at a time: a
        # strong pseudoprime's prime powers all give the base orders with
        # the same 2-adic valuation
        for n in longhand_spsp_to_2_20(base):
            orders = [order_tower(base, p, e)[-1] for p, e in factorize(n).factors]
            assert len({h & -h for h in orders}) == 1, n

    def test_fermat_pseudoprime_across_classes(self):
        # 341 = 11 * 31 passes Fermat's test to base 2 but not the strong
        # test: 2 has order 10 mod 11 and 5 mod 31
        assert pow(2, 340, 341) == 1
        assert not is_strong_pseudoprime(2, 341)
        assert [order_tower(2, p, 1)[-1] for p in (11, 31)] == [10, 5]


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

    @pytest.mark.parametrize("base", (1, 0, -1))
    def test_rejects_base_below_2(self, base):
        with pytest.raises(DomainError, match="base must be at least 2"):
            strong_pseudoprime_ordinal(base, 9)
        with pytest.raises(DomainError, match="base must be at least 2"):
            strong_pseudoprime_ordinal(base, 2047)

    def test_progress_reports_the_walk(self):
        calls = []
        assert strong_pseudoprime_ordinal(2, 1082401, progress=lambda *c: calls.append(c)) == 50
        totals = {total for _, total in calls}
        assert len(totals) == 1 and calls[-1][0] == calls[-1][1] > 0
        done = [d for d, _ in calls]
        assert done == sorted(set(done)) and len(calls) <= 65


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

    def test_progress_once_per_segment(self):
        # a segment of the walk is one of its jobs: the progressions dealt
        # to it, at most 64 of them; one report per job, in order
        calls = []
        report = scan(2, 3000, progress=lambda *c: calls.append(c))
        assert report == scan(2, 3000)
        totals = {total for _, total in calls}
        assert len(totals) == 1 and calls[-1][0] == calls[-1][1] > 0
        done = [d for d, _ in calls]
        assert done == sorted(set(done)) and 1 < len(calls) <= 64

    @pytest.mark.parametrize(
        "base, steps", ((2, 19_129), (3, 30_361), (5, 42_681), (7, 51_431))
    )
    def test_walk_plan_at_2_20(self, base, steps):
        # the candidates of every planned progression, before the character
        # split: each order h is walked up to bound // k_min(h)
        calls = []
        scan(base, 1 << 20, workers=1, progress=lambda *c: calls.append(c))
        assert calls[-1] == (steps, steps)

    def test_parallel_matches_serial(self):
        for base in (2, 6):
            serial = scan(base, 10**5, workers=1)
            parallel = scan(base, 10**5, workers=2)
            assert serial == parallel

    def test_import_leaves_multiprocessing_out(self):
        # only a walk that opens a pool imports multiprocessing
        code = "import sys, primover, primover.cli; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(primover.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_pool_is_capped_at_segment_count(self, pool_sizes):
        # at 1000 the walk has 5 non-empty progressions, so 5 jobs
        calls = []
        report = scan(2, 1000, workers=64, progress=lambda *c: calls.append(c))
        assert pool_sizes == [len(calls)] and 1 < len(calls) < 64
        assert report == scan(2, 1000)

    def test_workers_come_from_the_run(self, pool_sizes):
        with use_config(Config(workers=2)):
            assert scan(2, 3000).strong_pseudoprimes == (2047,)
            assert pool_sizes == [2]
            assert strong_pseudoprime_ordinal(2, 2047) == 1
            assert pool_sizes == [2, 2]
            # an explicit count still wins over the run's
            scan(2, 3000, workers=1)
            strong_pseudoprime_ordinal(2, 2047, workers=1)
        assert pool_sizes == [2, 2]

    # 6, 10 and 15 are divisible by sieving primes, and 4, 6, 10 and 15 have
    # order 1 at one: ord_3(4) = ord_5(6) = ord_3(10) = ord_7(15) = 1;
    # 11, 12, 17, 2048 and 65537 have lopsided 2-adic order classes with few
    # admissible cofactors, so the cofactor bound cuts or skips many walks
    @pytest.mark.parametrize("base", (2, 3, 4, 5, 6, 7, 10, 11, 12, 15, 17, 2048, 65537))
    def test_segments_match_naive(self, base):
        # the list and pi against the naive loop, over every job of the walk
        bound = 2 * 10**4
        report = scan(base, bound)
        assert list(report.strong_pseudoprimes) == [
            n
            for n in range(3, bound + 1, 2)
            if not naive_is_prime(n) and naive_strong_test(base, n)
        ]
        assert report.prime_count == sum(1 for n in range(bound + 1) if naive_is_prime(n))

    @pytest.mark.parametrize("base", (2, 3))
    @pytest.mark.parametrize(
        "lo, hi", (((1 << 26) - (1 << 12), 1 << 26), ((1 << 30) + 1, (1 << 30) + (1 << 11)))
    )
    def test_far_window_matches_naive(self, base, lo, hi):
        # the last window of an enumeration to hi - 1, against the longhand
        # oracle and the naive filter; and the prime count of that window
        odd = range(lo | 1, hi, 2)
        expected = [n for n in odd if naive_strong_test(base, n) and not naive_is_prime(n)]
        assert longhand_strong_pseudoprimes(base, lo, hi) == expected
        assert [n for n in enumerated_upto(base, hi - 1) if n >= lo] == expected
        assert prime_count(hi - 1) - prime_count(lo - 1) == sum(
            1 for n in odd if naive_is_prime(n)
        )

    def test_counts_are_consistent(self):
        report = scan(2, 10**5)
        assert report.primover_count == report.prime_count + report.overpseudoprime_count
        assert report.overpseudoprime_count <= len(report.strong_pseudoprimes)

    @pytest.mark.deep
    def test_pinch_count_to_1e10(self):
        report = scan(2, 10**10, workers=2)
        assert len(report.strong_pseudoprimes) == 3291  # Pinch; OEIS A055550
        assert report.prime_count == 455052511

    @pytest.mark.deep
    def test_pinch_count_to_1e11(self):
        report = scan(2, 10**11, workers=2)
        assert len(report.strong_pseudoprimes) == 8607  # Pinch; OEIS A055550
        assert report.prime_count == 4118054813


class TestEnumeration:
    # 4, 6, 10 and 15 have order 1 at a small prime, and 6, 10 and 15 are
    # divisible by one, as in test_segments_match_naive; 4 and 9 are squares,
    # so (a/q) = 1 at every prime q not dividing them
    @pytest.mark.parametrize("base", (2, 3, 4, 5, 6, 7, 9, 10, 15))
    def test_matches_longhand_to_2_20(self, base):
        bounds = (2046, 2047, (1 << 17) + 1, 10**6 - 1, 10**6, 10**6 + 1, 1 << 20)
        for bound in bounds:
            found = list(scan(base, bound).strong_pseudoprimes)
            assert found == longhand_spsp_upto(base, bound), bound

    @pytest.mark.parametrize("base", (2, 3, 5, 7))
    def test_matches_longhand_at_every_small_bound(self, base):
        # includes every bound that is itself a strong pseudoprime, such as
        # 121 = 11^2 (a prime-power atom) for base 3
        enumerate_upto = primover.enumeration.strong_pseudoprimes
        for bound in range(9, 5000):
            found = [n for n, _, _ in enumerate_upto(base, bound)]
            assert found == longhand_spsp_upto(base, bound), bound

    @pytest.mark.parametrize("base", (2, 3))
    def test_tail_matches_longhand(self, base):
        # the far windows above hold no strong pseudoprime; this wider tail
        # of the same enumeration to 2^26 - 1 does
        lo, hi = (1 << 26) - (1 << 20), 1 << 26
        expected = longhand_strong_pseudoprimes(base, lo, hi)
        assert len(expected) >= 2
        assert [n for n in enumerated_upto(base, hi - 1) if n >= lo] == expected

    def test_completion_of_order_one(self):
        # 4371 = 3 * 31 * 47 and ord_3(4) = 1: the order table takes the
        # completion 3 as (n - 1) % 1 == 0, where n % 1 == 1 would drop it
        assert 4371 in enumerated_upto(4, 10**4)
        assert 4371 in longhand_spsp_upto(4, 10**4)

    def test_order_table_skips_completions(self, monkeypatch):
        # the order table decides the completions up to isqrt(bound), and the
        # class products screen those above it: base 2 to 2^20 took 1,730
        # strong tests before the table, 836 with it, and 212 with leaves
        # chosen by cost and the screen
        calls = strong_tests(monkeypatch)
        found = primover.enumeration.strong_pseudoprimes(2, 1 << 20)
        assert tuple(n for n, _, _ in found) == longhand_spsp_to_2_20(2)
        assert len(calls) <= 212

    # 6 and 10 have many 2-adic classes, where most leaves have completions
    # above the root
    @pytest.mark.parametrize(
        "base, tests", ((2, 212), (3, 237), (5, 226), (7, 223), (6, 249), (10, 224))
    )
    def test_strong_tests_at_2_20(self, base, tests, monkeypatch):
        calls = strong_tests(monkeypatch)
        found = primover.enumeration.strong_pseudoprimes(base, 1 << 20)
        assert [n for n, _, _ in found] == longhand_spsp_upto(base, 1 << 20)
        assert len(calls) == tests

    @pytest.mark.parametrize("base", (2, 3, 6, 10))
    def test_each_class_searched_alone(self, base):
        # the plan, the walk and one search per 2-adic class of the atoms'
        # orders, each call on its own: the classes split the longhand list,
        # and search and the plan survive a pickle, as a pool needs
        bound = 1 << 20
        planned = plan(base, bound)
        classes = {}
        for atom in planned.seeds + walk(planned, 1, None):
            classes.setdefault(atom[2] & -atom[2], []).append(atom)
        assert len(classes) > 1
        found = {c: search(planned, c, atoms) for c, atoms in classes.items()}
        every = [n for by_class in found.values() for n in by_class]
        assert len(every) == len(set(every))
        assert sorted(every) == longhand_spsp_upto(base, bound)
        for c, by_class in found.items():
            for n in by_class:
                for p, _ in naive_factor(n):
                    order = naive_order(base, p)
                    assert order & -order == c, (n, p)
        again, unpickled = pickle.loads(pickle.dumps((search, planned)))
        assert unpickled == planned
        for c, atoms in classes.items():
            assert again(unpickled, c, atoms) == found[c]

    def test_screen_divides_out_shared_prime_powers(self, monkeypatch):
        # a completion p^2 * k above the root divided by its gcd with the
        # class product only once leaves p * k; at 2^22 some such p * k
        # exceed the root, where the table cannot check their class, and
        # base 2 would take 447 strong tests
        calls = strong_tests(monkeypatch)
        found = primover.enumeration.strong_pseudoprimes(2, 1 << 22)
        assert len(found) == 104 and len(calls) == 444

    @pytest.mark.parametrize("bound", (10**5 + 1, 10**6 + 1, 1 << 20))
    def test_class_products_cover_every_leaf(self, bound):
        # a leaf above the root has m = bound // v > isqrt(bound) for an odd
        # v > 1, and screens with products[m.bit_length()] of its class: each
        # seed of the class up to isqrt(m) must divide it. For each bit
        # length, the largest such isqrt(m) is the one to check.
        root = isqrt(bound)
        table = smallest_factor_table(root)
        reach = {}
        for v in range(3, bound // (root + 1) + 1, 2):
            m = bound // v
            reach[m.bit_length()] = max(reach.get(m.bit_length(), 0), isqrt(m))
        for base in range(2, 80):
            classes = {}
            for q, _, h in _seeds(base, bound, table):
                classes.setdefault(h & -h, []).append(q)
            for seeds in classes.values():
                products = _seed_products(seeds, bound.bit_length())
                for bits, r in reach.items():
                    for q in seeds:
                        assert q > r or products[bits] % q == 0, (base, bits, q)

    def test_prime_power_atoms(self):
        # 1093^2 and 3511^2 are the base-2 Wieferich squares, 11^2 the base-3 one
        assert WIEFERICH_SQUARE in scan(2, WIEFERICH_SQUARE).strong_pseudoprimes
        assert scan(3, 121).strong_pseudoprimes == (121,)

    def test_base_below_2_rejected(self):
        with pytest.raises(DomainError, match="base must be at least 2"):
            scan(1, 100)


class TestCharacterWalk:
    """_walk skips the residue classes whose Jacobi symbol rules out a prime
    of order h; it must find what a walk of the whole progression finds."""

    def test_jacobi_is_eulers_criterion(self):
        primes = [p for p in range(3, 10**4, 2) if naive_is_prime(p)]
        for a in range(2, 101):
            for p in primes:
                euler = pow(a, (p - 1) // 2, p)
                assert _jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)

    def test_jacobi_depends_on_n_mod_4a(self):
        for a in (*range(2, 101), 65537, 1000003, 2**31 - 1, 10**12 + 39):
            for n in range(1, min(12 * a, 4001), 2):
                symbol = _jacobi(a, n)
                assert symbol == _jacobi(a, n % (4 * a)) == _jacobi(a, n + 28 * a), (a, n)

    # 2-79 include the square and power bases 4, 8, 9, 16, 25, 27, 36, 49
    # and 64; the large bases have too many classes to split
    @pytest.mark.parametrize("base", (*range(2, 80), 65537, 1000003, 2**31 - 1, 10**12 + 39))
    def test_walk_matches_the_whole_progression(self, base, monkeypatch):
        # every walk of the enumeration and of the census at 10^6 + 1
        calls = []
        walk = primover.enumeration._walk
        monkeypatch.setattr(
            primover.enumeration, "_walk", lambda *args: calls.append(args) or walk(*args)
        )
        primover.enumeration.strong_pseudoprimes(base, 10**6 + 1, workers=1)
        overpseudoprimes_upto(base, 10**6 + 1)
        assert calls
        wholes = [
            [
                q
                for q in candidates
                if pow(a, h, q) == 1
                and all(pow(a, h // r, q) != 1 for r in h_primes)
                and naive_is_prime(q)
            ]
            for a, h, candidates, h_primes, _ in calls
        ]
        # 0: cap and split every small-power progression, however short
        for length in (primover.enumeration._CLASS_LENGTH, 0):
            monkeypatch.setattr(primover.enumeration, "_CLASS_LENGTH", length)
            for (a, h, candidates, h_primes, seeds), whole in zip(calls, wholes):
                assert walk(a, h, candidates, h_primes, seeds) == whole, (h, candidates)

    def test_primitive_part(self):
        # Phi_h(a) is R_h times powers of 2, h's largest prime and the seeds
        # of order h, and R_h keeps no prime up to the root
        root = 1024
        table = smallest_factor_table(root)
        small = prod(p for p in range(2, root + 1) if table[p] == p)
        for a in range(2, 21):
            seeds = {}
            for p, _, h in _seeds(a, root * root, table):
                seeds.setdefault(h, []).append(p)
            for h in range(1, min(root, _SMALL_POWER_BITS // a.bit_length()) + 1):
                h_primes = _prime_divisors(h, table)
                rest = _primitive_part(a, h, h_primes, tuple(seeds.get(h, ())))
                divided, remainder = divmod(moebius_cofactor(a, h), rest)
                assert remainder == 0, (a, h)
                for p in (2, *h_primes[-1:], *seeds.get(h, ())):
                    while divided % p == 0:
                        divided //= p
                assert divided == 1, (a, h)
                assert gcd(rest, small) == 1, (a, h)

    def test_wieferich_squares_in_the_primitive_part(self, monkeypatch):
        # 1093^2 | Phi_364(2) and Phi_5(3) = 11^2: the walk divides out every
        # power of a prime it finds, so what is left is not taken for a prime
        progression = primover.enumeration._progression
        assert _walk(2, 364, progression(2, 364, 1001, 10**5), (2, 7, 13), ()) == [1093, 4733]
        # with 11 a candidate the walk reaches isqrt(121) and leaves 1
        monkeypatch.setattr(primover.enumeration, "_CLASS_LENGTH", 0)
        assert _walk(3, 5, progression(3, 5, 4, 10**4), (5,), ()) == [11]


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
        assert overpseudoprimes_upto(2, 8) == ()  # below 9 = 3^2, no composite odd n

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

    @pytest.mark.parametrize(
        "base, count",
        ((2, 24), (3, 37), (4, 56), (5, 35), (6, 34), (7, 36), (10, 37), (15, 30)),
    )
    def test_scan_certificate_counts_the_census(self, base, count):
        # scan counts its overpseudoprimes by the order certificate of the
        # atom that built each one, without factoring
        report = scan(base, 10**6)
        census = overpseudoprimes_upto(base, 10**6)
        assert report.overpseudoprime_count == len(census) == count
        assert census == tuple(
            n
            for n in report.strong_pseudoprimes
            if overpseudoprime_by_order_criterion(base, n).ok
        )

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

    @pytest.mark.parametrize("base", (2, 3))
    def test_matches_scan_filter_to_1e8(self, base):
        report = scan(base, 10**8)
        if base == 2:
            assert len(report.strong_pseudoprimes) == 488  # Pinch; OEIS A055550
        assert overpseudoprimes_upto(base, 10**8) == tuple(
            n
            for n in report.strong_pseudoprimes
            if overpseudoprime_by_order_criterion(base, n).ok
        )

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
        assert len(report.strong_pseudoprimes) == 1282  # Pinch; OEIS A055550


@settings(max_examples=150)
@given(st.integers(min_value=3, max_value=10**6))
def test_strong_pseudoprime_definition_property(n):
    if n % 2 == 0:
        assert not is_strong_pseudoprime(2, n)
        return
    expected = not is_prime(n) and gcd(2, n) == 1 and naive_strong_test(2, n)
    assert is_strong_pseudoprime(2, n) == expected


# every public entry that takes a base, with arguments that are fine but for it
BASE_ENTRIES = {
    "mult_order": (7,),
    "classify": (7,),
    "overpseudoprime_by_coset_count": (9,),
    "overpseudoprime_by_order_criterion": (9,),
    "is_superpseudoprime": (9,),
    "scan": (100,),
    "strong_pseudoprime_ordinal": (2047,),
    "overpseudoprimes_upto": (100,),
    "decompose": (9,),
    "coset_count": (9,),
    "two_prime_cofactor": (3, 5),
    "prime_power_cofactor": (3, 2),
    "two_prime_power_cofactor": (3, 1, 5, 1),
    "primitive_cofactor_value": (6,),
    "primitive_cofactor": (6,),
    "cofactor_bound_report": (6,),
}


@pytest.mark.parametrize("name", sorted(BASE_ENTRIES))
def test_base_below_2_raises_at_every_entry(name):
    # the predicate is_strong_pseudoprime answers False instead, and
    # generalized_fermat has its own rule (an even base)
    with pytest.raises(DomainError, match="^base must be at least 2$"):
        getattr(primover, name)(1, *BASE_ENTRIES[name])
