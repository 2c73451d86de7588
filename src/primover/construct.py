"""Constructing primover divisors of a^n - 1.

Every construction is the cyclotomic value Phi_n(a), written as an
inclusion-exclusion quotient of numbers a^d - 1 over divisors d of n. The
exponent n/d comes from each squarefree divisor d of n: d with an even
number of primes (an evil vector of exponents) gives a numerator term, odd
(odious) a denominator term. The named constructions (two-prime, prime-power,
two-prime-power, generalized Fermat) are this one quotient at particular
shapes of n. The value divides a^n - 1, and it is primover exactly when it
is coprime to n (see _verdict), except at the lone degenerate point where
the value collapses to a bare intrinsic prime (base 2, exponent 6, value 3).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log
from typing import NamedTuple

from primover.arith import (
    Factorization,
    cyclotomic_terms,
    cyclotomic_value,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
    require_base,
)
from primover.classification import Classification, Status, classify
from primover.errors import DomainError, ResourceError

MAX_DISTINCT_PRIMES = 16


@dataclass(frozen=True)
class CofactorProduct:
    """A signed product prod (base^e - 1)^sign with its evaluated value.

    terms holds (exponent, sign) pairs, sign +1 for numerator and -1 for
    denominator, numerator first. Invariants checked at construction time:
    every exponent divides modulus_exponent, the signed exponent sum equals
    phi(modulus_exponent), and value divides base^modulus_exponent - 1.
    """

    base: int
    modulus_exponent: int
    terms: tuple[tuple[int, int], ...]
    value: int

    def __post_init__(self) -> None:
        n = self.modulus_exponent
        signed = 0
        for e, sign in self.terms:
            if sign not in (1, -1) or e < 1 or n % e:
                raise DomainError(f"bad term ({e}, {sign}) for exponent {n}")
            signed += sign * e
        if signed != euler_phi(factorize(n)):
            raise ArithmeticError(
                f"signed exponent sum {signed} misses phi({n})"
            )
        if (self.base**n - 1) % self.value:
            raise ArithmeticError(f"value does not divide base^{n} - 1")

    def complement(self) -> int:
        """(base^modulus_exponent - 1) // value."""
        return (self.base**self.modulus_exponent - 1) // self.value


@dataclass(frozen=True)
class ConstructionVerdict:
    product: CofactorProduct
    coprimality_holds: bool
    classification: Classification


def cofactor_terms(f: Factorization) -> tuple[tuple[int, int], ...]:
    """Exponent/sign pairs for the primitive cofactor of base^f.subject - 1.

    Phi_n(a) = prod over d | n of (a^(n/d) - 1)^mu(d), so the terms are
    (n/d, mu(d)) over the squarefree divisors d of n: the numerator holds
    the d with an even number of primes, the denominator the rest. k, the
    number of distinct primes of n, is capped at MAX_DISTINCT_PRIMES.
    """
    if len(f.factors) > MAX_DISTINCT_PRIMES:
        raise ResourceError(
            f"{f.subject} has {len(f.factors)} distinct primes; "
            f"the term count 2^k is capped at k = {MAX_DISTINCT_PRIMES}"
        )
    terms = cyclotomic_terms(f.subject, f.primes)
    terms.sort(key=lambda t: (-t[1], t[0]))
    return tuple(terms)


def _evaluate(base: int, n: int) -> CofactorProduct:
    """Phi_n(base) as the evil/odious quotient; n >= 2, prime or not."""
    terms = cofactor_terms(factorize(n))
    return CofactorProduct(base, n, terms, cyclotomic_value(base, terms))


def _require_prime_pair(p: int, q: int) -> None:
    if not (is_prime(p) and is_prime(q)):
        raise DomainError("p and q must be prime")
    if p >= q:
        raise DomainError("need p < q")


def _verdict(product: CofactorProduct) -> ConstructionVerdict:
    """Attach the coprimality flag and a full classification, cross-checked.

    The value V = Phi_n(a) is coprime to its complement (a^n - 1) / V exactly
    when gcd(V, n) = 1. A prime p dividing V with p not dividing n gives a
    the order n exactly, so it divides no a^d - 1 for a proper divisor d of
    n. A prime p dividing both V and n makes n = ord_p(a) * p^k with k >= 1,
    so p divides a^(n/p) - 1, which divides the complement.

    V is classified with the order hint n. A V coprime to n passes the
    order certificate, and classify skips the order computations; any other
    V is judged by the order criterion. The flag comes from gcd(V, n) alone
    and the classification from the certificate or the criterion, never
    from the flag, so the cross-check compares two independent
    computations: coprime values must classify as primover, and non-coprime
    composites must not; any other combination is a contradiction and
    raises.  One shape is
    genuinely possible and allowed through: a non-coprime *prime* value.  That
    happens when the cofactor degenerates to the bare intrinsic prime with no
    primitive part, e.g. the value 3 built from 2^6 - 1 (by Bang's theorem,
    the only such point for base 2).  The prime is primover on its own merits
    while still sharing a factor with the complement.
    """
    holds = gcd(product.value, product.modulus_exponent) == 1
    cls = classify(product.base, product.value, order=product.modulus_exponent)
    if holds != cls.primover:
        if not holds and cls.status is Status.PRIME:
            return ConstructionVerdict(product, holds, cls)
        raise ArithmeticError(
            f"coprimality and classification disagree for {product.value} "
            f"to base {product.base}"
        )
    return ConstructionVerdict(product, holds, cls)


def two_prime_cofactor(a: int, p: int, q: int) -> ConstructionVerdict:
    """(a - 1)(a^pq - 1) / ((a^p - 1)(a^q - 1)) for primes p < q."""
    require_base(a)
    _require_prime_pair(p, q)
    return _verdict(_evaluate(a, p * q))


def prime_power_cofactor(a: int, p: int, m: int) -> ConstructionVerdict:
    """(a^(p^m) - 1) / (a^(p^(m-1)) - 1) for prime p, m >= 2."""
    require_base(a)
    if not is_prime(p):
        raise DomainError("p must be prime")
    if m < 2:
        raise DomainError("need m >= 2")
    return _verdict(_evaluate(a, p**m))


def two_prime_power_cofactor(
    a: int, p: int, alpha: int, q: int, beta: int
) -> ConstructionVerdict:
    """Cofactor at exponent p^alpha * q^beta for primes p < q.

    The four evil/odious terms of the exponent pair: with
    l = p^(alpha-1) q^(beta-1), the quotient
    (a^l - 1)(a^(lpq) - 1) / ((a^(lp) - 1)(a^(lq) - 1)).
    """
    require_base(a)
    _require_prime_pair(p, q)
    if alpha < 1 or beta < 1:
        raise DomainError("need alpha, beta >= 1")
    return _verdict(_evaluate(a, p**alpha * q**beta))


def primitive_cofactor_value(a: int, n: int) -> CofactorProduct:
    """The full evil/odious cofactor of a^n - 1 for composite n >= 4."""
    require_base(a)
    if n < 4 or is_prime(n):
        raise DomainError("n must be composite (so n >= 4)")
    return _evaluate(a, n)


def primitive_cofactor(a: int, n: int) -> ConstructionVerdict:
    """Evil/odious cofactor of a^n - 1 with its primover verdict."""
    return _verdict(primitive_cofactor_value(a, n))


def generalized_fermat(a: int, n: int) -> int:
    """a^(2^(n-1)) + 1 for even a, n >= 1."""
    if a < 2 or a % 2:
        raise DomainError("base must be even and at least 2")
    if n < 1:
        raise DomainError("need n >= 1")
    return a ** (2 ** (n - 1)) + 1


def verify_generalized_fermat(a: int, n: int) -> ConstructionVerdict:
    """a^(2^(n-1)) + 1 as the cofactor (a^(2^n) - 1)/(a^(2^(n-1)) - 1).

    For even a this is always primover, and the base has order exactly 2^n
    modulo every prime power divisor; both facts are checked, and a failure
    raises rather than returning a verdict.
    """
    value = generalized_fermat(a, n)
    hi = 2**n
    product = _evaluate(a, hi)
    if product.value != value:
        raise ArithmeticError("cofactor form disagrees with a^(2^(n-1)) + 1")
    verdict = _verdict(product)
    cls = verdict.classification
    if not cls.primover:
        raise ArithmeticError(f"{value} failed the primover guarantee")
    if cls.status == Status.PRIME:
        if mult_order(a, value) != hi:
            raise ArithmeticError(f"prime {value} gives the base order != 2^{n}")
    elif any(h != hi for _, _, h in cls.evidence.orders or ()):
        raise ArithmeticError(f"a prime power divisor of {value} has order != 2^{n}")
    return verdict


class ExponentIdentity(NamedTuple):
    n: int
    signed_sum: int
    phi: int
    holds: bool


def exponent_identity(n: int) -> ExponentIdentity:
    """Signed exponent sum of the cofactor terms against phi(n).

    Defined for any n >= 2; for primes the single evil/odious pair gives
    n - 1 on the nose.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    f = factorize(n)
    terms = cofactor_terms(f)
    signed = sum(sign * e for e, sign in terms)
    phi = euler_phi(f)
    return ExponentIdentity(n, signed, phi, signed == phi)


class CofactorBoundReport(NamedTuple):
    base: int
    n: int
    value: int
    implied_constant: float
    asymptotic_regime: bool


def cofactor_bound_report(a: int, n: int) -> CofactorBoundReport:
    """Size of the primitive cofactor against (a^n - 1)^(1 / ln ln n).

    implied_constant is ln(value) * ln(ln n) / ln(a^n - 1); the lower-bound
    reading only makes sense once ln ln n >= 1, flagged by
    asymptotic_regime (n >= 16).
    """
    product = primitive_cofactor_value(a, n)
    constant = log(product.value) * log(log(n)) / log(a**n - 1)
    return CofactorBoundReport(a, n, product.value, constant, n >= 16)
