from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primover.classification
from primover.arith import factorize, is_prime, mult_order
from primover.classification import Status
from primover.construct import (
    CofactorProduct,
    cofactor_bound_report,
    cofactor_terms,
    exponent_identity,
    generalized_fermat,
    primitive_cofactor,
    primitive_cofactor_value,
    prime_power_cofactor,
    two_prime_cofactor,
    two_prime_power_cofactor,
    verify_generalized_fermat,
)
from primover.errors import DomainError, ResourceError
from oracles import moebius_cofactor, naive_phi


class TestCofactorTerms:
    def test_70(self):
        terms = cofactor_terms(factorize(70))
        numerator = sorted(e for e, s in terms if s == 1)
        denominator = sorted(e for e, s in terms if s == -1)
        assert numerator == [2, 5, 7, 70]
        assert denominator == [1, 10, 14, 35]

    def test_prime_power(self):
        assert cofactor_terms(factorize(9)) == ((9, 1), (3, -1))

    def test_every_exponent_divides_n(self):
        for n in (12, 45, 70, 90, 126):
            for e, _ in cofactor_terms(factorize(n)):
                assert n % e == 0

    def test_squarefree_terms_match_divisor_parity_form(self):
        # for squarefree n the vector split reduces to: divisor d gets sign
        # +1 when n/d has an even number of prime factors, -1 when odd
        cases = (6, 15, 35, 30, 105, 385, 210, 1155, 2310)
        for n in cases:
            f = factorize(n)
            assert all(e == 1 for _, e in f.factors)
            assert len(f.primes) <= 4 or n == 2310
            expected = set()
            for d in f.divisors():
                omega = sum(1 for p in f.primes if (n // d) % p == 0)
                expected.add((d, 1 if omega % 2 == 0 else -1))
            assert set(cofactor_terms(f)) == expected, n


class TestTwoPrimeCofactor:
    def test_5_7(self):
        v = two_prime_cofactor(2, 5, 7)
        assert v.product.value == 8727391
        assert v.coprimality_holds
        assert v.classification.status is Status.OVERPSEUDOPRIME
        assert v.classification.evidence.factorization.factors == (
            (71, 1),
            (122921, 1),
        )

    def test_3_5(self):
        v = two_prime_cofactor(2, 3, 5)
        assert v.product.value == 151
        assert v.classification.status is Status.PRIME

    def test_negative_witness_3_7(self):
        v = two_prime_cofactor(2, 3, 7)
        assert v.product.value == 2359
        assert not v.coprimality_holds
        assert v.classification.status is Status.COMPOSITE_NOT_PRIMOVER
        assert gcd(2359, (2**3 - 1) * (2**7 - 1)) == 7

    def test_rejections(self):
        with pytest.raises(DomainError):
            two_prime_cofactor(2, 4, 7)
        with pytest.raises(DomainError):
            two_prime_cofactor(2, 7, 5)
        with pytest.raises(DomainError):
            two_prime_cofactor(2, 5, 5)


class TestPrimePowerCofactor:
    def test_5_squared(self):
        v = prime_power_cofactor(2, 5, 2)
        assert v.product.value == 1082401
        assert v.coprimality_holds
        assert v.classification.evidence.factorization.factors == (
            (601, 1),
            (1801, 1),
        )
        assert v.classification.evidence.h == 25

    def test_3_squared(self):
        v = prime_power_cofactor(2, 3, 2)
        assert v.product.value == 73
        assert v.classification.status is Status.PRIME

    def test_2_squared(self):
        assert prime_power_cofactor(2, 2, 2).product.value == 5

    def test_rejections(self):
        with pytest.raises(DomainError):
            prime_power_cofactor(2, 5, 1)
        with pytest.raises(DomainError):
            prime_power_cofactor(2, 6, 2)


class TestTwoPrimePowerCofactor:
    def test_45(self):
        v = two_prime_power_cofactor(2, 3, 2, 5, 1)
        assert v.product.value == 14709241
        assert v.product.value == primitive_cofactor_value(2, 45).value
        assert v.coprimality_holds

    def test_reduces_to_two_prime_case(self):
        a = two_prime_power_cofactor(2, 5, 1, 7, 1)
        b = two_prime_cofactor(2, 5, 7)
        assert a.product.value == b.product.value == 8727391
        assert a.product.terms == b.product.terms

    def test_3_1_5_1(self):
        assert two_prime_power_cofactor(2, 3, 1, 5, 1).product.value == 151

    def test_rejections(self):
        with pytest.raises(DomainError):
            two_prime_power_cofactor(2, 5, 1, 3, 1)  # p must be smaller
        with pytest.raises(DomainError):
            two_prime_power_cofactor(2, 3, 0, 5, 1)


class TestPrimitiveCofactor:
    def test_70(self):
        v = primitive_cofactor(2, 70)
        assert v.product.value == 24214051
        assert v.coprimality_holds
        assert v.classification.status is Status.OVERPSEUDOPRIME
        assert v.classification.evidence.h == 70

    def test_35(self):
        assert primitive_cofactor_value(2, 35).value == 8727391

    def test_smallest_composite(self):
        assert primitive_cofactor_value(2, 4).value == 5

    def test_moebius_oracle_agreement(self):
        for n in range(4, 131):
            if is_prime(n):
                continue
            assert primitive_cofactor_value(2, n).value == moebius_cofactor(2, n), n

    def test_specializes_to_prime_power_form(self):
        for p, m in ((2, 2), (3, 2), (5, 2), (3, 3), (2, 4)):
            assert (
                primitive_cofactor_value(2, p**m).value
                == prime_power_cofactor(2, p, m).product.value
            )

    def test_specializes_to_two_prime_forms(self):
        for p, q in ((3, 5), (3, 7), (5, 7), (3, 11)):
            assert (
                primitive_cofactor_value(2, p * q).value
                == two_prime_cofactor(2, p, q).product.value
            )
        for p, alpha, q, beta in ((3, 2, 5, 1), (2, 2, 3, 2), (2, 1, 7, 2)):
            assert (
                primitive_cofactor_value(2, p**alpha * q**beta).value
                == two_prime_power_cofactor(2, p, alpha, q, beta).product.value
            )

    def test_rejects_primes_and_small(self):
        for bad in (7, 3, 2, 1, 0):
            with pytest.raises(DomainError):
                primitive_cofactor_value(2, bad)

    def test_distinct_prime_cap(self):
        overloaded = 1
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            overloaded *= p
        with pytest.raises(ResourceError):
            primitive_cofactor_value(2, overloaded)
        # the term build itself is capped, so the identity refuses it too
        with pytest.raises(ResourceError):
            exponent_identity(overloaded)

    def test_biconditional_through_120(self):
        # coprime to complement exactly when classified primover, with the
        # single degenerate exception at n = 6 where the value is the bare
        # intrinsic prime 3 (prime, hence primover, yet 3 | 63/3)
        for n in range(4, 121):
            if is_prime(n):
                continue
            v = primitive_cofactor(2, n)
            if n == 6:
                assert v.product.value == 3
                assert not v.coprimality_holds
                assert v.classification.status is Status.PRIME
            else:
                assert v.coprimality_holds == v.classification.primover, n

    @pytest.mark.parametrize("a", (3, 5, 6, 10))
    def test_coprimality_matches_complement_gcd(self, a):
        # gcd(value, n) == 1 decides coprimality with the full complement
        n = 4
        while a**n <= 2**128:
            if not is_prime(n):
                v = moebius_cofactor(a, n)
                got = primitive_cofactor(a, n).coprimality_holds
                assert got == (gcd(v, (a**n - 1) // v) == 1), (a, n)
            n += 1

    def test_named_constructors_match_their_complements(self):
        # each named form's flag against the gcd with its complementary
        # product, spelled out longhand
        a = 2
        for p, q in ((5, 7), (3, 5), (3, 7), (3, 11)):
            v = two_prime_cofactor(a, p, q)
            other = (a**p - 1) * (a**q - 1)
            assert v.coprimality_holds == (gcd(v.product.value, other) == 1), (p, q)
        for p, m in ((5, 2), (3, 2), (2, 2), (3, 3), (2, 4)):
            v = prime_power_cofactor(a, p, m)
            other = a ** (p ** (m - 1)) - 1
            assert v.coprimality_holds == (gcd(v.product.value, other) == 1), (p, m)
        for p, alpha, q, beta in (
            (3, 2, 5, 1), (5, 1, 7, 1), (3, 1, 5, 1), (2, 2, 3, 2), (2, 1, 7, 2)
        ):
            v = two_prime_power_cofactor(a, p, alpha, q, beta)
            low = p ** (alpha - 1) * q ** (beta - 1)
            other, rem = divmod((a ** (low * q) - 1) * (a ** (low * p) - 1), a**low - 1)
            assert rem == 0
            assert v.coprimality_holds == (gcd(v.product.value, other) == 1), (p, q)
        for a, n in [(2, k) for k in range(1, 8)] + [(4, 2), (6, 2)]:
            v = verify_generalized_fermat(a, n)
            other = a ** (2 ** (n - 1)) - 1
            assert v.coprimality_holds == (gcd(v.product.value, other) == 1), (a, n)

    def test_divisor_orders_equal_n_when_coprime(self):
        for n in (35, 45, 70):
            v = primitive_cofactor(2, n)
            assert v.coprimality_holds
            for p, _, h in v.classification.evidence.orders:
                assert h == n, (n, p)

    @pytest.mark.deep
    def test_1155_is_decided_by_the_certificate(self):
        # the order criterion runs out of rho budget factoring p - 1 for a
        # prime p of this value; the certificate needs no order computation
        v = primitive_cofactor(2, 1155)
        assert v.coprimality_holds
        c = v.classification
        assert c.status is Status.OVERPSEUDOPRIME
        assert c.evidence.factorization.primes[:3] == (2311, 6250631311, 494224324441)
        assert c.evidence.factorization.primes[3].bit_length() == 397
        assert c.evidence.orders == tuple((p, 1, 1155) for p in c.evidence.factorization.primes)


class TestVerdictRoute:
    """Which values the order criterion decides, counted at prime_power_orders."""

    @pytest.fixture
    def criterion_calls(self, monkeypatch):
        calls = []
        real = primover.classification.prime_power_orders

        def counting(a, f):
            calls.append(f.subject)
            return real(a, f)

        monkeypatch.setattr(primover.classification, "prime_power_orders", counting)
        return calls

    def test_coprime_values_skip_the_order_criterion(self, criterion_calls):
        assert primitive_cofactor(2, 35).classification.status is Status.OVERPSEUDOPRIME
        # F_5 and F_6: the paper's theorem, certified with order 2^n
        for n in (6, 7):
            v = verify_generalized_fermat(2, n)
            assert v.classification.status is Status.OVERPSEUDOPRIME
        assert criterion_calls == []

    def test_non_coprime_value_takes_the_order_criterion(self, criterion_calls):
        v = two_prime_cofactor(2, 3, 7)
        assert v.classification.status is Status.COMPOSITE_NOT_PRIMOVER
        assert criterion_calls == [2359]


class TestCofactorProductType:
    def test_invariant_rejections(self):
        with pytest.raises(DomainError):
            CofactorProduct(2, 6, ((4, 1),), 15)  # 4 does not divide 6
        with pytest.raises(DomainError):
            CofactorProduct(2, 6, ((6, 2),), 63)  # bad sign
        with pytest.raises(ArithmeticError):
            CofactorProduct(2, 6, ((6, 1),), 63)  # signed sum 6 != phi(6)

    def test_complement(self):
        product = primitive_cofactor_value(2, 35)
        assert product.value * product.complement() == 2**35 - 1


class TestGeneralizedFermat:
    def test_values(self):
        assert generalized_fermat(2, 1) == 3
        assert generalized_fermat(2, 6) == 4294967297
        assert generalized_fermat(4, 2) == 17
        assert generalized_fermat(6, 2) == 37

    def test_rejections(self):
        with pytest.raises(DomainError):
            generalized_fermat(3, 2)  # odd base not covered
        with pytest.raises(DomainError):
            generalized_fermat(2, 0)

    def test_verified_prime_cases(self):
        for n in range(1, 6):
            v = verify_generalized_fermat(2, n)
            assert v.classification.status is Status.PRIME
            assert mult_order(2, v.product.value) == 2**n

    def test_verified_composite_cases(self):
        v6 = verify_generalized_fermat(2, 6)
        assert v6.classification.status is Status.OVERPSEUDOPRIME
        assert all(h == 64 for _, _, h in v6.classification.evidence.orders)
        v7 = verify_generalized_fermat(2, 7)
        assert v7.classification.status is Status.OVERPSEUDOPRIME
        assert v7.classification.evidence.factorization.factors == (
            (274177, 1),
            (67280421310721, 1),
        )
        assert all(h == 128 for _, _, h in v7.classification.evidence.orders)

    def test_even_bases(self):
        assert verify_generalized_fermat(4, 2).classification.status is Status.PRIME
        assert verify_generalized_fermat(6, 2).classification.status is Status.PRIME


class TestExponentIdentity:
    def test_known_values(self):
        assert exponent_identity(70) == (70, 24, 24, True)
        assert exponent_identity(9) == (9, 6, 6, True)
        assert exponent_identity(15) == (15, 8, 8, True)

    def test_primes_and_small(self):
        assert exponent_identity(2) == (2, 1, 1, True)
        assert exponent_identity(7) == (7, 6, 6, True)
        assert exponent_identity(4) == (4, 2, 2, True)
        assert exponent_identity(100) == (100, 40, 40, True)

    def test_rejects_below_2(self):
        with pytest.raises(DomainError):
            exponent_identity(1)

    @settings(max_examples=300)
    @given(st.integers(min_value=2, max_value=50_000))
    def test_identity_property(self, n):
        ident = exponent_identity(n)
        assert ident.holds
        assert ident.phi == naive_phi(n) if n <= 3000 else ident.phi > 0


class TestBoundReport:
    def test_example_70(self):
        rep = cofactor_bound_report(2, 70)
        assert rep.value == 24214051
        assert abs(rep.implied_constant - 0.507) < 1e-3
        assert rep.asymptotic_regime

    def test_example_9(self):
        rep = cofactor_bound_report(2, 9)
        assert rep.value == 73
        assert not rep.asymptotic_regime
        assert rep.implied_constant > 0

    def test_example_35(self):
        assert cofactor_bound_report(2, 35).value == 8727391

    def test_constant_stays_positive(self):
        for n in range(16, 121):
            if is_prime(n):
                continue
            assert cofactor_bound_report(2, n).implied_constant > 0.2, n
