"""Primover classification.

An odd composite n coprime to a is overpseudoprime to base a when
n = r * h + 1, with r the number of cyclotomic cosets of a mod n and h the
multiplicative order of a mod n. Equivalently, every prime power dividing n
gives a the same order h. "Primover" covers primes and overpseudoprimes
together. The module gives the verdicts, the strong and super pseudoprime
predicates, and range scans and ordinals over primover.enumeration's strong
pseudoprimes; it re-exports that module's census, overpseudoprimes_upto.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm
from typing import NamedTuple

from primover.arith import (
    DETERMINISTIC_PRIMALITY_BOUND,
    Factorization,
    _strong_probable,
    check_prime,
    factorize,
    mult_order,
    prime_power_orders,
    prime_count,
    require_base,
    settings,
)
from primover.cosets import coset_count
from primover.enumeration import Progress, overpseudoprimes_upto, strong_pseudoprimes
from primover.errors import DomainError, IncompleteFactorizationError


class Status(str, Enum):
    PRIME = "prime"
    OVERPSEUDOPRIME = "overpseudoprime"
    COMPOSITE_NOT_PRIMOVER = "composite-not-primover"


@dataclass(frozen=True)
class Evidence:
    """Support for a classification; fields are None when not applicable."""

    r: int | None = None
    h: int | None = None
    factorization: Factorization | None = None
    orders: tuple[tuple[int, int, int], ...] | None = None
    reason: str | None = None


@dataclass(frozen=True)
class Classification:
    subject: int
    base: int
    status: Status
    evidence: Evidence
    probabilistic: bool = False

    @property
    def primover(self) -> bool:
        return self.status in (Status.PRIME, Status.OVERPSEUDOPRIME)


class CosetCountTest(NamedTuple):
    ok: bool
    r: int
    h: int


class OrderCriterionTest(NamedTuple):
    ok: bool
    factorization: Factorization
    orders: tuple[tuple[int, int, int], ...]
    h: int


def _require_odd_composite(a: int, n: int) -> None:
    require_base(a)
    if n <= 2 or n % 2 == 0:
        raise DomainError("subject must be odd and exceed 2")
    if gcd(a, n) != 1:
        raise DomainError(f"subject {n} shares a factor with base {a}")
    if check_prime(n).value:
        raise DomainError(f"subject {n} is prime; the test needs a composite")


def overpseudoprime_by_coset_count(a: int, n: int) -> CosetCountTest:
    """The defining test: does n equal r * h + 1?

    Inherits the run's coset enumeration ceiling; past it, use the order
    criterion instead.
    """
    _require_odd_composite(a, n)
    f = factorize(n)
    r = coset_count(a, n, factorization=f)
    h = mult_order(a, n, factorization=f)
    return CosetCountTest(n == r * h + 1, r, h)


def overpseudoprime_by_order_criterion(a: int, n: int) -> OrderCriterionTest:
    """Criterion form: one shared order across every prime power dividing n.

    Checking prime powers suffices; the order mod a product of coprime
    prime powers is the lcm of the orders, so agreement there forces the
    same order at every divisor > 1.
    """
    _require_odd_composite(a, n)
    return _order_criterion(a, n)


def _order_criterion(a: int, n: int) -> OrderCriterionTest:
    """overpseudoprime_by_order_criterion for an odd composite n coprime to a."""
    f = factorize(n)
    orders = prime_power_orders(a, f)
    h = lcm(*(t[2] for t in orders))
    ok = all(t[2] == h for t in orders)
    return OrderCriterionTest(ok, f, orders, h)


def _certified(a: int, n: int, h: int, h_primes: tuple[int, ...]) -> bool:
    """The order certificate: a^h = 1 (mod n) and gcd(a^(h/r) - 1, n) = 1
    for every prime r | h, given h's primes.

    When it holds, a has order exactly h modulo every prime power dividing
    n: the order mod each prime divides h and no h/r, and the order mod a
    prime power is a multiple of that order dividing h. So n is primover.
    """
    return pow(a, h, n) == 1 and all(gcd(pow(a, h // r, n) - 1, n) == 1 for r in h_primes)


def _two_orders(a: int, n: int, h: int, h_primes: tuple[int, ...]) -> bool:
    """True when n is shown to have primes of two orders, given h's primes:
    some prime q of h divides n, and W, n with every such q divided out,
    exceeds 1 and passes the order certificate for h.

    Every prime of W then gives a the order h, while ord_q(a) divides
    q - 1 < q <= h. So n is not primover, and no factor of W is needed.
    """
    w = n
    for q in h_primes:
        while w % q == 0:
            w //= q
    return 1 < w < n and _certified(a, w, h, h_primes)


def classify(a: int, n: int, *, order: int | None = None) -> Classification:
    """Full classification of n to base a; a base below 2 or a subject
    below 2 raises DomainError.

    Composites are judged by the order criterion; when n is within the run's
    coset_ceiling the coset-count definition is evaluated too and any
    disagreement raises (it would mean a bug, not a property of n).

    order is a hint: a candidate for the order of a mod n. When it passes
    the order certificate (see _certified; the hint is factored for it),
    every prime power of n gives a that order, so n is still factored for
    the evidence but the order criterion's order computations are skipped;
    if that factorization runs out of budget, the certified verdict comes
    back without factors or orders. A hint that fails the certificate is
    ignored and the order criterion decides, so a hint changes only the
    cost of a verdict, never the verdict. When the criterion's
    factorization runs out of budget, a failed hint can still decide: if
    stripping the primes of gcd(n, order) from n leaves a part that passes
    the certificate (see _two_orders), n is composite-not-primover, and the
    verdict comes back without factors or orders.

    probabilistic flags a verdict that rests on a probable prime: n, or a
    prime of the factorization reported, at or above psi_13.
    """
    require_base(a)
    if n <= 1:
        raise DomainError("subject must exceed 1")
    verdict = check_prime(n)
    if verdict.value:
        return Classification(
            n, a, Status.PRIME, Evidence(), probabilistic=verdict.probabilistic
        )
    if n % 2 == 0:
        return Classification(
            n,
            a,
            Status.COMPOSITE_NOT_PRIMOVER,
            Evidence(reason="even composites are never overpseudoprime"),
        )
    g = gcd(a, n)
    if g > 1:
        return Classification(
            n,
            a,
            Status.COMPOSITE_NOT_PRIMOVER,
            Evidence(reason=f"shares the factor {g} with the base"),
        )
    h_primes = factorize(order).primes if order is not None and order > 1 else None
    if h_primes is not None and _certified(a, n, order, h_primes):
        try:
            f = factorize(n)
        except IncompleteFactorizationError:
            reason = f"order certificate for h = {order} holds; the factorization budget ran out"
            return Classification(n, a, Status.OVERPSEUDOPRIME, Evidence(h=order, reason=reason))
        orders = tuple((p, j, order) for p, e in f.factors for j in range(1, e + 1))
        crit = OrderCriterionTest(True, f, orders, order)
    else:
        try:
            crit = _order_criterion(a, n)
        except IncompleteFactorizationError:
            if h_primes is None or not _two_orders(a, n, order, h_primes):
                raise
            reason = (
                f"the primes of gcd(n, {order}) have orders below {order}, and the rest "
                f"of n passes the order certificate for h = {order}; "
                "the factorization budget ran out"
            )
            return Classification(n, a, Status.COMPOSITE_NOT_PRIMOVER, Evidence(reason=reason))
    r = None
    if n <= settings().coset_ceiling:
        r = coset_count(a, n, factorization=crit.factorization)
        if (n == r * crit.h + 1) != crit.ok:
            raise ArithmeticError(
                f"coset count and order criterion disagree at base {a}, n {n}"
            )
    if crit.ok:
        status, reason = Status.OVERPSEUDOPRIME, None
    else:
        status, reason = (
            Status.COMPOSITE_NOT_PRIMOVER,
            "prime power divisors give the base different orders",
        )
    return Classification(
        n,
        a,
        status,
        Evidence(
            r=r,
            h=crit.h,
            factorization=crit.factorization,
            orders=crit.orders,
            reason=reason,
        ),
        probabilistic=crit.factorization.primes[-1] >= DETERMINISTIC_PRIMALITY_BOUND,
    )


def is_strong_pseudoprime(a: int, n: int) -> bool:
    """Composite n passing the strong probable-prime test to base a.

    A base below 2, even or tiny n, primes, and multiples of the base all
    return False.
    """
    if a < 2 or n < 3 or n % 2 == 0 or gcd(a, n) > 1:
        return False
    if check_prime(n).value:
        return False
    return _strong_probable(n, a)


# is_superpseudoprime refuses a subject with more divisors than this
_MAX_DIVISORS = 10_000


def is_superpseudoprime(a: int, n: int) -> bool:
    """Does every divisor d > 1 of composite n satisfy a^(d-1) = 1 mod d?

    Fermat's test passed by n and all of its parts at once.
    """
    _require_odd_composite(a, n)
    divisors = factorize(n).divisors(cap=_MAX_DIVISORS)
    return all(pow(a, d - 1, d) == 1 for d in divisors if d > 1)


class ScanReport(NamedTuple):
    base: int
    bound: int
    strong_pseudoprimes: tuple[int, ...]
    overpseudoprime_count: int
    prime_count: int
    primover_count: int


def scan(
    a: int, bound: int, *, workers: int | None = None, progress: Progress | None = None
) -> ScanReport:
    """Census up to bound: strong pseudoprimes, overpseudoprimes among them,
    primes, and the primover total.

    The strong pseudoprimes come from the enumeration; workers (None: the
    run's setting) and progress(done, total) apply to its walk. pi(bound)
    comes from arith.prime_count. Nothing is factored, so the run's budget
    and cache take no part: each n carries the order h of one of its
    atoms, and n is overpseudoprime exactly when it passes the order
    certificate for h (_certified, which classify shares), as then every
    prime of n gives a the order h.
    """
    require_base(a)
    if bound < 3:
        raise DomainError("bound must be at least 3")
    found = strong_pseudoprimes(a, bound, workers=workers, progress=progress)
    over = sum(1 for n, h, h_primes in found if _certified(a, n, h, h_primes))
    pi = prime_count(bound)
    return ScanReport(a, bound, tuple(n for n, _, _ in found), over, pi, pi + over)


def strong_pseudoprime_ordinal(
    a: int, n: int, *, workers: int | None = None, progress: Progress | None = None
) -> int:
    """1-based position of n in the ordered strong pseudoprimes to base a.

    Enumerates the strong pseudoprimes up to n and counts no primes. The
    walk above isqrt(n) plans about 0.012 * n steps for base 2 near 10^9
    and tests about a ninth of them; workers and progress(done, total)
    apply to it, as in scan.
    """
    require_base(a)
    if not is_strong_pseudoprime(a, n):
        raise DomainError(f"{n} is not a strong pseudoprime to base {a}")
    found = strong_pseudoprimes(a, n, workers=workers, progress=progress)
    if not found or found[-1][0] != n:
        raise ArithmeticError(f"enumeration to {n} failed to end at {n}")
    return len(found)
