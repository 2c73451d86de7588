import random
from bisect import bisect_right
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primover import arith, classify
from primover.arith import (
    _WITNESS_TIERS,
    DETERMINISTIC_PRIMALITY_BOUND,
    Factorization,
    PrimalityResult,
    _strong_lucas_probable,
    _strong_probable,
    check_prime,
    cyclotomic_terms,
    cyclotomic_value,
    euler_phi,
    factorize,
    is_prime,
    jacobi,
    mult_order,
    order_tower,
    prime_count,
    prime_power_orders,
    primes_upto,
    smallest_factor_table,
    use_config,
)
from primover.config import Config
from primover.construct import primitive_cofactor_value
from primover.errors import (
    DomainError,
    IncompleteFactorizationError,
    TooManyDivisorsError,
)
from oracles import (
    naive_divisors,
    naive_factor,
    naive_is_prime,
    naive_order,
    naive_phi,
    naive_strong_test,
    seeded_rounds_test,
)

# psi_t for t = 1..13: the least n that passes the strong test to each of the
# first t prime bases (OEIS A014233; Jaeschke 1993, Sorenson & Webster 2017)
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


class TestPrimality:
    def test_known_values(self):
        assert is_prime(65537)
        assert not is_prime(4294967297)
        assert is_prime(122921)

    def test_exhaustive_small(self):
        for n in range(-1, 3000):
            assert is_prime(n) == naive_is_prime(n), n

    def test_deterministic_below_bound(self):
        for n in (2, 97, 2047, 122921, 2**61 - 1):
            result = check_prime(n)
            assert not result.probabilistic

    def test_probabilistic_flag_above_bound(self):
        m89 = 2**89 - 1  # Mersenne prime, above the proven witness range
        assert m89 > DETERMINISTIC_PRIMALITY_BOUND
        result = check_prime(m89)
        assert result.value and result.probabilistic
        assert check_prime(m89) == result  # repeatable

    def test_composite_above_bound_is_exact(self):
        square = (2**61 - 1) ** 2
        result = check_prime(square)
        assert not result.value and not result.probabilistic

    def test_against_sieve_below_2e6(self):
        # covers the screen's edge, 1009^2 = 1018081
        primes = set(primes_upto(2_000_000))
        wrong = [
            n
            for n in range(2_000_000)
            if check_prime(n) != PrimalityResult(n in primes, False)
        ]
        assert wrong == []

    def test_witness_tiers_are_tight(self):
        # each tier starts at a new psi_t, with t its least index ...
        assert _WITNESS_TIERS == tuple(
            (psi, PSI.index(psi) + 1) for psi in dict.fromkeys(PSI)
        )
        assert DETERMINISTIC_PRIMALITY_BOUND == PSI[-1]
        bases = primes_upto(43)  # the first 14 primes
        for psi, _ in _WITNESS_TIERS:
            # ... psi passes the bases of every t with psi_t == psi and fails
            # the next one, which the following tier adds
            last = len(PSI) - PSI[::-1].index(psi)
            passes = [naive_strong_test(a, psi) for a in bases]
            assert passes[: last + 1] == [True] * last + [False], psi
            assert check_prime(psi) == PrimalityResult(False, False), psi


class TestStrongLucas:
    """Above psi_13, check_prime takes base 2 and one strong Lucas test with
    Selfridge's parameters: the Baillie-PSW test."""

    def test_base_2_alone_above_psi_13(self, monkeypatch):
        bases = []
        real = arith._strong_probable
        monkeypatch.setattr(arith, "_strong_probable", lambda n, a: bases.append(a) or real(n, a))
        # psi_13 passes base 2, so the Lucas test decides it
        assert check_prime(DETERMINISTIC_PRIMALITY_BOUND) == PrimalityResult(False, False)
        assert bases == [2]
        bases.clear()
        assert check_prime(2**89 - 1) == PrimalityResult(True, True)
        assert bases == [2]

    def test_lucas_pseudoprimes_below_3e4(self):
        # OEIS A217255, the strong Lucas pseudoprimes, which base 2 catches;
        # every odd prime passes
        pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
        primes = set(primes_upto(30_000))
        passing = [n for n in range(3, 30_000, 2) if _strong_lucas_probable(n)]
        assert [n for n in passing if n not in primes] == pseudoprimes
        assert len(passing) == len(primes) - 1 + len(pseudoprimes)
        assert not any(_strong_probable(n, 2) for n in pseudoprimes)

    def test_no_odd_composite_passes_base_2_and_lucas_below_2e5(self):
        primes = set(primes_upto(200_000))
        base_2 = [n for n in range(3, 200_000, 2) if n not in primes and _strong_probable(n, 2)]
        assert base_2[:4] == [2047, 3277, 4033, 4681]
        assert [n for n in base_2 if _strong_lucas_probable(n)] == []

    def test_psi_13_is_caught_by_lucas(self):
        psi_13 = PSI[-1]
        assert all(naive_strong_test(a, psi_13) for a in primes_upto(41))
        assert not _strong_lucas_probable(psi_13)
        assert check_prime(psi_13) == PrimalityResult(False, False)

    def test_squares_end_the_parameter_search(self):
        # no D has (D/n) = -1 for a square n; 1093^2 and 3511^2 pass base 2
        for n in (9, 25, 1093**2, 3511**2, (2**89 - 1) ** 2):
            assert not _strong_lucas_probable(n), n
        assert check_prime((2**89 - 1) ** 2) == PrimalityResult(False, False)

    def test_jacobi_above_100_bits(self):
        # Euler's criterion for a 127-bit prime, multiplicativity for a
        # 216-bit semiprime, over the first Selfridge candidates D
        p, q = 2**127 - 1, 2**89 - 1
        for D in (5, -7, 9, -11, 13, -15, 17, -19, 21):
            euler = pow(D, (p - 1) // 2, p)
            assert jacobi(D, p) == (-1 if euler == p - 1 else euler), D
            assert jacobi(D, p * q) == jacobi(D, p) * jacobi(D, q), D

    def test_same_verdicts_as_seeded_rounds_above_psi_13(self):
        rng = random.Random(2203)

        def prime(bits):
            while not seeded_rounds_test(n := rng.randrange(1 << (bits - 1), 1 << bits) | 1):
                pass
            return n

        primes = [prime(rng.randint(83, 400)) for _ in range(16)]
        semiprimes = [prime(rng.randint(83, 400)) * prime(rng.randint(83, 400)) for _ in range(16)]
        for n in primes:
            assert check_prime(n) == PrimalityResult(True, True), n
        for n in semiprimes:
            assert not seeded_rounds_test(n), n
            assert check_prime(n) == PrimalityResult(False, False), n


class TestFactorization:
    def test_examples(self):
        assert factorize(2047).factors == ((23, 1), (89, 1))
        assert factorize(2**35 - 1).factors == (
            (31, 1),
            (71, 1),
            (127, 1),
            (122921, 1),
        )
        assert factorize(4294967297).factors == ((641, 1), (6700417, 1))

    def test_small_and_powers(self):
        assert factorize(2).factors == ((2, 1),)
        assert factorize(1024).factors == ((2, 10),)
        assert factorize(600).factors == ((2, 3), (3, 1), (5, 2))

    def test_square_of_large_prime(self):
        p = 1000003
        assert factorize(p * p).factors == ((p, 2),)

    def test_trial_division_edges(self):
        primes = primes_upto(20_000)
        cases = (
            2,
            3,
            2**40,
            7919,
            2 * 3 * 7919,
            9973**2 * 10007,
            10007**2,
            prod(primes_upto(100)) * 1009 * 7919 * 9973,  # all below 10^4
            2**5 * 3**7 * 5**3 * 7919**2,
            3**20 * 7**3 * 11,
            # across the end of the first trial block, 1024 primes in
            primes[1022] * primes[1023] ** 2 * primes[1024] * primes[1025],
        )
        for n in cases:
            assert factorize(n).factors == naive_factor(n), n

    def test_random_recompose_and_primality(self):
        rng = random.Random(20250821)
        for _ in range(10_000):
            n = rng.randrange(2, 10**12)
            f = factorize(n)
            assert prod(p**e for p, e in f.factors) == n
            assert all(is_prime(p) for p, _ in f.factors)

    def test_budget_exhaustion_carries_partial(self):
        hard = 7 * 1000003 * 1000033
        with pytest.raises(IncompleteFactorizationError) as info:
            with use_config(Config(rho_budget=10)):
                factorize(hard)
        err = info.value
        assert err.subject == hard
        assert err.partial == {7: 1}
        assert err.remainder == 1000003 * 1000033
        assert err.partial != {}  # budget failures are not smaller factorizations

    def test_split_order_after_rho_splits_once(self):
        # rho's first split of p * q * r, 128 charged steps in, gives the
        # prime q; the cofactor p * r comes next and needs 383 steps in all
        p, q, r = 2579179, 3911221, 4155079
        outcomes = {}
        for budget in (127, 128, 382):
            with pytest.raises(IncompleteFactorizationError) as info:
                with use_config(Config(rho_budget=budget)):
                    factorize(7 * p * q * r)
            outcomes[budget] = (info.value.partial, info.value.remainder)
        assert outcomes == {
            127: ({7: 1}, p * q * r),
            128: ({7: 1, q: 1}, p * r),
            382: ({7: 1, q: 1}, p * r),
        }
        with use_config(Config(rho_budget=383)):
            assert factorize(7 * p * q * r).factors == ((7, 1), (p, 1), (q, 1), (r, 1))

    def test_invalid_subject(self):
        for bad in (1, 0, -6):
            with pytest.raises(DomainError):
                factorize(bad)

    def test_type_invariants(self):
        with pytest.raises(DomainError):
            Factorization(12, ((3, 1), (2, 2)))  # out of order
        with pytest.raises(DomainError):
            Factorization(12, ((2, 2), (3, 0)))  # zero exponent
        with pytest.raises(DomainError):
            Factorization(13, ((2, 2), (3, 1)))  # wrong product

    def test_unit_factorization(self):
        one = Factorization(1, ())
        assert euler_phi(one) == 1

    def test_divisors(self):
        f = factorize(600)
        assert f.divisor_count() == 24
        assert f.divisors() == naive_divisors(600)
        with pytest.raises(TooManyDivisorsError):
            f.divisors(cap=10)

    def test_str_rendering(self):
        assert str(factorize(600)) == "2^3 * 3 * 5^2"

    @pytest.mark.parametrize("limit", [*range(0, 201), 1023, 1024, 1025])
    def test_smallest_factor_table_against_naive(self, limit):
        naive = [n if n < 2 else next(d for d in range(2, n + 1) if n % d == 0)
                 for n in range(limit + 1)]
        assert smallest_factor_table(limit) == naive


def random_prime(rng, bits):
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(p):
            return p


def semiprime_sample(seed, count, small_bits, large_bits):
    """count seeded products p * q of two primes, p of a bit length drawn
    from small_bits and q from large_bits, with the factors they must give."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = random_prime(rng, rng.choice(small_bits))
        q = random_prime(rng, rng.choice(large_bits))
        out.append((p * q, ((p, 2),) if p == q else tuple(sorted(((p, 1), (q, 1))))))
    return out


class TestPollardPMinus1:
    # P - 1 = 2 * 3 * 5 * 751 * 881 * 27697: smooth to B1 = 2000 but for one
    # prime below B2 = 50000, so stage 2 finds P. Q - 1 = 2^3 * 3^2 * 1487 *
    # 10269667 is not smooth. Rho alone charges 412,927 steps to split P * Q.
    P, Q = 549755814211, 1099511627689

    def test_stage_two_splits_below_the_rho_budget(self, monkeypatch):
        assert factorize(self.P - 1).factors == ((2, 1), (3, 1), (5, 1), (751, 1), (881, 1), (27697, 1))
        n = self.P * self.Q
        # 1023 rho steps and the attempt's charge (about 12,500) fit in 20,000
        with use_config(Config(rho_budget=20_000)):
            assert factorize(n).factors == ((self.P, 1), (self.Q, 1))
        # a block of its own: in the first, the known-prime memo would split n
        monkeypatch.setattr(arith, "_pollard_pm1", lambda n, budget: 0)
        with use_config(Config(rho_budget=20_000)):
            with pytest.raises(IncompleteFactorizationError):
                factorize(n)

    def test_stage_one_gcd_of_the_whole_number_falls_back_to_rho(self):
        # both p - 1 are products of prime powers up to B1, so 3^E = 1 mod n
        p, q = 1073742073, 1073742203
        assert factorize(p - 1).factors == ((2, 3), (3, 1), (13, 1), (37, 1), (47, 1), (1979, 1))
        assert factorize(q - 1).factors == ((2, 1), (13, 1), (17, 1), (1297, 1), (1873, 1))
        assert arith._pollard_pm1(p * q, [10**6]) == 0
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_base_three_cyclotomic_value_splits_from_base_two(self):
        # every prime of Phi_194(3) has 3^194 = 1 and 194 | E, so stage 1
        # from base 3 gives the gcd n; base 2 then splits it
        n = cyclotomic_value(3, cyclotomic_terms(194, (2, 97)))
        exponent = arith._pm1_tables()[0]
        assert gcd(pow(3, exponent, n) - 1, n) == n
        d = arith._pollard_pm1(n, [10**6])
        assert 1 < d < n and n % d == 0
        assert factorize(n).factors == (
            (459991849, 1), (503803759819, 1), (20591603926857377806745611, 1)
        )

    def test_stage_two_pairs_cover_every_prime(self):
        _, first, rows, top, _ = arith._pm1_tables()
        d = arith._PM1_D
        covered = set()
        for k, js in enumerate(rows, first):
            assert all(j % 2 and gcd(j, d) == 1 and j < d // 2 for j in js)
            covered.update(k * d + s * j for j in js for s in (-1, 1))
        stage2 = [q for q in primes_upto(50_000) if q > 2000]
        assert covered.issuperset(stage2)
        assert (first, len(rows), top) == (1, 22, 1153)
        assert sum(map(len, rows)) == 3727 and len(stage2) == 4830

    def test_five_beside_base_three_primes_falls_back_to_base_two(self):
        # p divides Phi_194(3) and q Phi_142(3), so 3^E = 1 modulo 5, p and
        # q, and stage 1 falls back to base 2. 2^E is invertible modulo any
        # number trial division leaves; 5^E would not be, and the inverse
        # stage 2 takes would raise, as 5^E is not 1 modulo p or q
        p, q = 503803759819, 4052490063499
        d = arith._pollard_pm1(5 * p * q, [10**6])
        assert 1 < d < 5 * p * q and 5 * p * q % d == 0

    def test_budget_below_the_first_rounds_never_reaches_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(arith, "_pollard_pm1", lambda n, budget: calls.append(n) or 0)
        n = 7 * self.P * self.Q
        for budget in (1, 10, 500, 1023):
            with pytest.raises(IncompleteFactorizationError) as info:
                with use_config(Config(rho_budget=budget)):
                    factorize(n)
            assert (info.value.partial, info.value.remainder) == ({7: 1}, self.P * self.Q)
        assert calls == []

    def test_charge_above_what_is_left_raises_before_the_attempt(self):
        # rho's rounds up to r = 512 charge 1023 steps, the attempt 12,538
        assert arith._pm1_tables()[4] == 12_538
        n = 7 * self.P * self.Q
        for budget in (1024, 1023 + 12_538):
            with pytest.raises(IncompleteFactorizationError) as info:
                with use_config(Config(rho_budget=budget)):
                    factorize(n)
            assert (info.value.partial, info.value.remainder) == ({7: 1}, self.P * self.Q)
        with use_config(Config(rho_budget=1023 + 12_538 + 1)):
            assert factorize(n).factors == ((7, 1), (self.P, 1), (self.Q, 1))

    def test_readme_budget_example_still_raises(self):
        # 193707721 - 1 = 2^3 * 3^3 * 5 * 67 * 2677: p - 1 alone would split
        # 2^67 - 1, but a budget of 1000 runs out inside rho's first rounds
        assert arith._pollard_pm1(2**67 - 1, [10**6]) == 193707721
        with use_config(Config(rho_budget=1000)):
            with pytest.raises(IncompleteFactorizationError):
                classify(2, 2**67 - 1)

    def test_semiprimes_factor_exactly(self):
        # the smaller prime has at most 32 bits, so rho's ~sqrt(p) steps keep
        # this to about 5 s (p - 1 splits 74 of the 200); the deep twin draws
        # both primes from 30-44 bits and takes about a minute
        for n, factors in semiprime_sample(2020, 200, range(30, 33), range(30, 45)):
            assert factorize(n).factors == factors, n

    @pytest.mark.deep
    def test_semiprimes_of_30_to_44_bits_factor_exactly(self):
        for n, factors in semiprime_sample(2020, 200, range(30, 45), range(30, 45)):
            assert factorize(n).factors == factors, n


class TestECM:
    """Past rho's second checkpoint, elliptic curves on the p - 1 tables."""

    # P - 1 = 2^2 * 3^2 * 5^2 * 749219519 is not smooth, so the p - 1
    # attempt fails; the fourth curve finds P. Rho alone charges more than
    # 400,000 steps to split P * Q.
    P, Q = 674297567101, 4349310587946781583389
    # rho's rounds up to r = 1024 and the p - 1 attempt charge 14,585 steps
    # before the first curve
    BEFORE = 1023 + 12_538 + 1024

    def count_curves(self, monkeypatch):
        calls = []
        real = arith._ecm_curve
        monkeypatch.setattr(arith, "_ecm_curve", lambda n, sigma: calls.append(sigma) or real(n, sigma))
        return calls

    def test_splits_a_40_bit_prime_that_rho_alone_cannot(self, monkeypatch):
        n = self.P * self.Q
        assert arith._pollard_pm1(n, [10**6]) == 0
        budget = self.BEFORE + 4 * arith._ECM_CURVE + 1
        with use_config(Config(rho_budget=budget)):
            assert factorize(n).factors == ((self.P, 1), (self.Q, 1))
        # a block of its own: in the first, the known-prime memo would split n
        monkeypatch.setattr(arith, "_ECM_FROM", 10**9)
        with use_config(Config(rho_budget=400_000)):
            with pytest.raises(IncompleteFactorizationError):
                factorize(n)

    def test_budget_below_the_checkpoint_never_runs_a_curve(self, monkeypatch):
        calls = self.count_curves(monkeypatch)
        n = 7 * self.P * self.Q
        for budget in (1024, 1023 + 12_538 + 1, self.BEFORE):
            with pytest.raises(IncompleteFactorizationError) as info:
                with use_config(Config(rho_budget=budget)):
                    factorize(n)
            assert (info.value.partial, info.value.remainder) == ({7: 1}, self.P * self.Q)
        assert calls == []

    def test_charge_above_what_is_left_raises_before_the_curve(self, monkeypatch):
        # the first curve splits p * q; p - 1 = 2^5 * 43 * 2004647 is not smooth
        p, q = 2758394273, 12294706719084473861
        assert arith._pollard_pm1(p * q, [10**6]) == 0
        calls = self.count_curves(monkeypatch)
        with pytest.raises(IncompleteFactorizationError) as info:
            with use_config(Config(rho_budget=self.BEFORE + arith._ECM_CURVE)):
                factorize(7 * p * q)
        assert (info.value.partial, info.value.remainder) == ({7: 1}, p * q)
        assert calls == []
        with use_config(Config(rho_budget=self.BEFORE + arith._ECM_CURVE + 1)):
            assert factorize(7 * p * q).factors == ((7, 1), (p, 1), (q, 1))
        assert len(calls) == 1

    def test_two_runs_try_the_same_curves(self, monkeypatch):
        calls = self.count_curves(monkeypatch)
        n = self.P * self.Q
        runs = []
        for _ in range(2):
            budget = [10**6]
            runs.append((arith._ecm(n, budget), budget[0], list(calls)))
            calls.clear()
        assert runs[0] == runs[1]
        assert runs[0][0] == self.P and runs[0][1] == 10**6 - 4 * arith._ECM_CURVE
        sigma = 6 + n % 2**32
        assert runs[0][2] == [sigma, sigma + 1, sigma + 2, sigma + 3]

    def test_gcd_of_the_whole_number_moves_to_the_next_sigma(self):
        # the first curve finds both primes at once, the second only one
        p, q = 2956819, 2447723
        sigma = 6 + p * q % 2**32
        assert arith._ecm_curve(p * q, sigma) == p * q
        assert arith._ecm_curve(p * q, sigma + 1) in (p, q)
        budget = [10**6]
        assert arith._ecm(p * q, budget) == arith._ecm_curve(p * q, sigma + 1)
        assert budget[0] == 10**6 - 2 * arith._ECM_CURVE

    def test_checkpoint_hands_over_only_what_pays_for_a_curve(self, monkeypatch):
        # exactly one curve's charge left: rho goes on; one step more: _ecm
        entered = []
        real = arith._ecm
        monkeypatch.setattr(arith, "_ecm", lambda n, budget: entered.append(budget[0]) or real(n, budget))
        for extra in (0, 1):
            with pytest.raises(IncompleteFactorizationError):
                with use_config(Config(rho_budget=self.BEFORE + arith._ECM_CURVE + extra)):
                    factorize(7 * self.P * self.Q)
        assert entered == [arith._ECM_CURVE + 1]

    @pytest.mark.parametrize("a, n", [(2, 363), (6, 123)])
    def test_rho_goes_on_where_no_curve_fits(self, monkeypatch, a, n):
        # at rho's second checkpoint less than one curve's charge is left
        # of the 30,000 steps, so rho goes on and splits the number
        calls = self.count_curves(monkeypatch)
        value = primitive_cofactor_value(a, n).value
        with use_config(Config(rho_budget=30_000)):
            f = factorize(value)
        assert prod(p**e for p, e in f.factors) == value
        assert all(is_prime(p) for p, _ in f.factors)
        assert calls == []


class TestKnownPrimes:
    """At rho's checkpoint, one gcd with the primes the run has proved."""

    @staticmethod
    def sharing_semiprimes():
        # three 26-bit primes, each in two semiprimes with a fresh 26-bit
        # prime: rho leaves every one whole after its first 1023 steps
        rng = random.Random(2424)
        shared = [random_prime(rng, 26) for _ in range(3)]
        first = [(p, random_prime(rng, 26)) for p in shared]
        later = [(p, random_prime(rng, 26)) for p in shared]
        return first, later

    def count_attempts(self, monkeypatch):
        calls = []
        real = arith._pollard_pm1
        monkeypatch.setattr(arith, "_pollard_pm1", lambda n, budget: calls.append(n) or real(n, budget))
        return calls

    def test_later_semiprimes_split_from_the_memo(self, monkeypatch):
        first, later = self.sharing_semiprimes()
        calls = self.count_attempts(monkeypatch)
        with use_config(Config()):
            fresh = [factorize(p * q) for p, q in later]
        assert len(calls) == len(later)  # without the memo, each needs p - 1
        calls.clear()
        with use_config(Config()):
            for p, q in first:
                assert factorize(p * q).factors == tuple(sorted(((p, 1), (q, 1))))
            assert len(calls) == len(first)
            for (p, q), f in zip(later, fresh):
                assert factorize(p * q) == f
                assert f.factors == tuple(sorted(((p, 1), (q, 1))))
        assert len(calls) == len(first)

    def test_memo_prime_dividing_the_whole_number(self):
        first, _ = self.sharing_semiprimes()
        (p, q), (r, s) = first[:2]
        with use_config(Config()):
            factorize(p * q)
            factorize(r * s)
            # every prime of p * r is known, so the gcd is p * r itself
            assert arith._RUN.get().known.divisor(p * r) == min(p, r)
            assert factorize(p * r).factors == tuple(sorted(((p, 1), (r, 1))))

    def test_memo_does_not_reach_a_fresh_block(self, monkeypatch):
        n = TestPollardPMinus1.P * TestPollardPMinus1.Q
        with use_config(Config()):
            factorize(n)
            # 1024 reaches the checkpoint, where the outer memo splits n ...
            monkeypatch.setattr(arith, "_pollard_pm1", lambda n, budget: 0)
            assert len(factorize(n).factors) == 2
            # ... but a fresh block starts with an empty one
            for budget in (10, 1024):
                with use_config(Config(rho_budget=budget)):
                    with pytest.raises(IncompleteFactorizationError):
                        factorize(n)

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(arith, "_KNOWN_MAX", 4)
        memo = arith._KnownPrimes()
        primes = [p for p in primes_upto(20_000) if p > 10_000][:11]
        for i, p in enumerate(primes):
            memo.learn([p, p])
            assert 1 <= len(memo._primes) <= 4
            assert memo.divisor(p * 3) == p, i
        assert memo.divisor(primes[0] * 3) == 0  # dropped when the memo started over
        memo.learn([2**64 + 13])  # above 64 bits: not kept
        assert len(memo._primes) == 3


class TestTotients:
    def test_phi_examples(self):
        assert euler_phi(factorize(70)) == 24
        assert euler_phi(factorize(25)) == 20

    def test_phi_brute_force(self):
        for n in range(1, 2001):
            f = Factorization(1, ()) if n == 1 else factorize(n)
            assert euler_phi(f) == naive_phi(n), n


class TestMultOrder:
    def test_examples(self):
        assert mult_order(2, 7) == 3
        assert mult_order(2, 9) == 6
        assert mult_order(2, 641) == 64
        assert mult_order(2, 6700417) == 64

    def test_against_naive_search(self):
        # full sweep of the documented invariant range
        for a in (2, 3, 5, 7):
            for n in range(2, 10_001):
                if gcd(a, n) != 1:
                    continue
                assert mult_order(a, n) == naive_order(a, n), (a, n)

    def test_order_divides_phi(self):
        for a in (2, 3, 5):
            for n in range(3, 2000):
                if gcd(a, n) != 1:
                    continue
                f = factorize(n)
                assert euler_phi(f) % mult_order(a, n) == 0

    def test_order_is_minimal(self):
        h = mult_order(3, 1000)
        assert pow(3, h, 1000) == 1
        for d in naive_divisors(h)[:-1]:
            assert pow(3, d, 1000) != 1

    def test_shared_factor_rejected(self):
        with pytest.raises(DomainError):
            mult_order(2, 12)
        with pytest.raises(DomainError):
            mult_order(1, 7)
        with pytest.raises(DomainError, match="modulus must be at least 2"):
            mult_order(2, 1)

    def test_order_tower_wieferich(self):
        # the two known Wieferich primes keep their order at the square
        assert order_tower(2, 1093, 2) == (364, 364)
        assert order_tower(2, 3511, 2) == (1755, 1755)
        # a garden-variety prime picks up a factor p at the square
        assert order_tower(2, 5, 3) == (4, 20, 100)

    def test_prime_power_orders_listing(self):
        f = factorize(1194649)  # 1093^2
        assert prime_power_orders(2, f) == ((1093, 1, 364), (1093, 2, 364))

    def test_reuses_supplied_factorization(self):
        f = factorize(2047)
        assert mult_order(2, 2047, factorization=f) == 11

    def test_factorization_of_another_subject_rejected(self):
        # 341's factors would give order 10; the order mod 2047 is 11
        with pytest.raises(DomainError, match="341"):
            mult_order(2, 2047, factorization=factorize(341))


class TestPrimesUpto:
    def test_counts(self):
        assert len(primes_upto(10)) == 4
        assert len(primes_upto(3000)) == 430
        assert len(primes_upto(10**6)) == 78498

    def test_empty(self):
        assert primes_upto(1) == []


class TestPrimeCount:
    def test_matches_sieve_to_5000(self):
        primes = primes_upto(5000)
        for x in range(5001):
            assert prime_count(x) == bisect_right(primes, x), x

    def test_matches_sieve_at_powers_of_2_and_prime_squares(self):
        primes = primes_upto((1 << 22) + 1)
        points = [(1 << k) + d for k in range(23) for d in (-1, 0, 1)]
        points += [p * p + d for p in primes_upto(2039) for d in (-1, 0)]
        # the start values wrap around the wheel 30030 = 2 * 3 * 5 * 7 * 11 * 13
        points += [k * 30030 + d for k in range(1, (1 << 22) // 30030 + 1) for d in (-1, 0, 1)]
        for x in points:
            assert prime_count(x) == bisect_right(primes, x), x

    def test_matches_sieve_at_cubes(self):
        # the passes stop at y = icbrt(x), which moves at each cube
        primes = primes_upto((1 << 22) + 2)
        points = [k**3 + d for k in range(1, 162) for d in (-1, 0, 1)]
        assert 161**3 <= (1 << 22) + 1 < 162**3
        for x in points:
            assert prime_count(x) == bisect_right(primes, x), x

    def test_matches_sieve_at_semiprimes_of_the_first_skipped_prime(self):
        # p * q with p the first prime above icbrt(p * q), the first prime
        # whose pass is skipped and the first term of the P2 sum: every one
        # up to 2^20, and the least and the greatest for each p up to 2^22
        primes = primes_upto(1 << 22)
        points = set()
        for qs in semiprimes_of_the_first_skipped_prime(primes, 1 << 22).values():
            points.update(x for x in qs if x <= 1 << 20)
            points.update((qs[0], qs[-1]))
        assert len(points) == 1851
        for x in sorted(points):
            assert prime_count(x) == bisect_right(primes, x), x

    @pytest.mark.deep
    def test_matches_sieve_at_every_semiprime_of_the_first_skipped_prime(self):
        primes = primes_upto(1 << 22)
        points = semiprimes_of_the_first_skipped_prime(primes, 1 << 22).values()
        assert sum(map(len, points)) == 4159
        for x in (x for qs in points for x in qs):
            assert prime_count(x) == bisect_right(primes, x), x

    def test_published_values(self):
        # pi(10^k), OEIS A006880
        published = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534)
        for k, pi in enumerate(published, 1):
            assert prime_count(10**k) == pi, k
        assert prime_count(1 << 32) == 203_280_221


def semiprimes_of_the_first_skipped_prime(primes, bound):
    """{p: the ascending p * q <= bound, q >= p prime, with p the least prime
    above the integer cube root of p * q}; primes holds every prime up to
    bound."""
    cubes = [k**3 for k in range(round(bound ** (1 / 3)) + 2)]
    found = {}
    for i, p in enumerate(primes):
        if p * p > bound:
            break
        for q in primes[i:]:
            if p * q > bound:
                break
            y = bisect_right(cubes, p * q) - 1
            if primes[bisect_right(primes, y)] == p:
                found.setdefault(p, []).append(p * q)
    return found


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_roundtrip_property(n):
    f = factorize(n)
    assert prod(p**e for p, e in f.factors) == n
    assert all(e >= 1 for _, e in f.factors)
    assert list(f.primes) == sorted(set(f.primes))
