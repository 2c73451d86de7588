"""Primover classification.

An odd composite n coprime to a is overpseudoprime to base a when
n = r * h + 1, with r the number of cyclotomic cosets of a mod n and h the
multiplicative order of a mod n. Equivalently, every prime power dividing n
gives a the same order h. "Primover" covers primes and overpseudoprimes
together; the module also provides the classical strong and super
pseudoprime predicates, range scans, and ordinal queries.
"""
from __future__ import annotations

import multiprocessing
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from math import gcd, isqrt, lcm
from typing import Callable, NamedTuple

from primover.arith import (
    Factorization,
    _strong_probable,
    check_prime,
    factor_with_table,
    factorize,
    mult_order,
    order_descent,
    order_tower,
    prime_power_orders,
    require_subject,
    settings,
    smallest_factor_table,
)
from primover.cosets import coset_count
from primover.errors import DomainError


class Status(str, Enum):
    PRIME = "prime"
    OVERPSEUDOPRIME = "overpseudoprime"
    COMPOSITE_NOT_PRIMOVER = "composite-not-primover"
    OUT_OF_DOMAIN = "out-of-domain"


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
    if a < 2:
        raise DomainError("base must be at least 2")
    if n <= 2 or n % 2 == 0:
        raise DomainError("subject must be odd and exceed 2")
    if gcd(a, n) != 1:
        raise DomainError(f"subject {n} shares a factor with base {a}")
    if check_prime(n).value:
        raise DomainError(f"subject {n} is prime; the test needs a composite")


def overpseudoprime_by_coset_count(
    a: int,
    n: int,
    *,
    ceiling: int | None = None,
    factorization: Factorization | None = None,
) -> CosetCountTest:
    """The defining test: does n equal r * h + 1?

    Inherits the coset enumeration ceiling; past it, use the order
    criterion instead.
    """
    _require_odd_composite(a, n)
    f = factorization if factorization is not None else factorize(n)
    r = coset_count(a, n, ceiling=ceiling, factorization=f)
    h = mult_order(a, n, factorization=f).order
    return CosetCountTest(n == r * h + 1, r, h)


def overpseudoprime_by_order_criterion(
    a: int,
    n: int,
    *,
    factorization: Factorization | None = None,
) -> OrderCriterionTest:
    """Criterion form: one shared order across every prime power dividing n.

    Checking prime powers suffices; the order mod a product of coprime
    prime powers is the lcm of the orders, so agreement there forces the
    same order at every divisor > 1.
    """
    _require_odd_composite(a, n)
    f = factorize(n) if factorization is None else require_subject(factorization, n)
    orders = prime_power_orders(a, f)
    h = lcm(*(t[2] for t in orders))
    ok = all(t[2] == h for t in orders)
    return OrderCriterionTest(ok, f, orders, h)


def classify(
    a: int,
    n: int,
    *,
    factorization: Factorization | None = None,
) -> Classification:
    """Full classification of n to base a.

    Composites are judged by the order criterion; when n is within the run's
    coset_ceiling the coset-count definition is evaluated too and any
    disagreement raises (it would mean a bug, not a property of n).
    """
    if a < 2:
        return Classification(
            n, a, Status.OUT_OF_DOMAIN, Evidence(reason="base must be at least 2")
        )
    if n <= 1:
        return Classification(
            n, a, Status.OUT_OF_DOMAIN, Evidence(reason="subject must exceed 1")
        )
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
    crit = overpseudoprime_by_order_criterion(a, n, factorization=factorization)
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
    )


def is_strong_pseudoprime(a: int, n: int) -> bool:
    """Composite n passing the strong probable-prime test to base a.

    Even or tiny n, primes, and multiples of the base all return False.
    """
    if n < 3 or n % 2 == 0 or gcd(a, n) > 1:
        return False
    if check_prime(n).value:
        return False
    return _strong_probable(n, a)


def is_superpseudoprime(
    a: int,
    n: int,
    *,
    factorization: Factorization | None = None,
    divisor_cap: int = 10_000,
) -> bool:
    """Does every divisor d > 1 of composite n satisfy a^(d-1) = 1 mod d?

    Fermat's test passed by n and all of its parts at once.
    """
    _require_odd_composite(a, n)
    f = factorize(n) if factorization is None else require_subject(factorization, n)
    return all(
        pow(a, d - 1, d) == 1 for d in f.divisors(cap=divisor_cap) if d > 1
    )


# --- range scanning -------------------------------------------------------

_SEGMENT = 1 << 22

# mark states: 0 prime, 1 composite that may be a pseudoprime, 2 ruled out
_RULED_OUT = b"\x02"
_LIFT = bytes.maketrans(b"\x00", b"\x01")
_MAY_PASS = bytes.maketrans(b"\x02", b"\x00")


def _sieve_table(a: int, bound: int) -> list[tuple[int, int]]:
    """Odd sieving primes q <= isqrt(bound) + 1, each with ord_q(a).

    The order is 0 when q divides a. Orders come from a local factor table
    of q - 1, so no factorization cache or order cache is touched.
    """
    limit = isqrt(bound) + 1
    table = smallest_factor_table(limit)
    return [
        (q, order_descent(a, q, factor_with_table(q - 1, table).primes) if a % q else 0)
        for q in range(3, limit + 1, 2)
        if table[q] == q
    ]


def _segment_survivors(
    base: int, lo: int, hi: int, sieve: list[tuple[int, int]]
) -> tuple[list[int], int]:
    """Strong pseudoprimes to base in [lo, hi), plus the prime count there.

    The segment sieve proves compositeness, so survivors are certified
    strong pseudoprimes, not merely probable ones. While it marks the
    multiples of each sieving prime q it also rules out most of them
    (Pomerance-Selfridge-Wagstaff). A strong pseudoprime n is a Fermat
    pseudoprime, so h = ord_q(base) divides n - 1 for every prime q | n.
    As h | q - 1, q and h are coprime, so by CRT n = q (mod q*h), and as n
    is odd, n = q (mod q*lcm(2, h)). Multiples of q outside that class are
    marked ruled out; multiples of a q dividing the base are all ruled out,
    since a strong pseudoprime is coprime to its base. Only the composites
    that no sieving prime rules out get the full strong test.
    """
    prime_count = 1 if lo <= 2 < hi else 0
    start = max(3, lo) | 1
    if start >= hi:
        return [], prime_count
    m = (hi - start + 1) // 2
    marks = bytearray(m)
    for q, h in sieve:
        if q * q >= hi:
            break
        first = max(q * q, (start + q - 1) // q * q)
        if first % 2 == 0:
            first += q
        if first >= hi:
            continue
        j0 = (first - start) // 2
        ruled_out = _RULED_OUT * len(range(j0, m, q))
        if h == 0:
            marks[j0::q] = ruled_out
            continue
        step = q * lcm(2, h)
        may_pass = slice((first + (q - first) % step - start) // 2, m, step // 2)
        kept = marks[may_pass]
        marks[j0::q] = ruled_out
        marks[may_pass] = kept.translate(_LIFT)
    prime_count += marks.count(0)
    pseudo = [
        n
        for n in compress(range(start, start + 2 * m, 2), marks.translate(_MAY_PASS))
        if _strong_probable(n, base)
    ]
    return pseudo, prime_count


def _segment_job(
    args: tuple[int, int, int, list[tuple[int, int]]]
) -> tuple[list[int], int]:
    return _segment_survivors(*args)


def strong_pseudoprimes_upto(
    a: int,
    bound: int,
    *,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[list[int], int]:
    """All strong pseudoprimes to base a up to bound, and pi(bound).

    Work is split into fixed segments; with workers > 1 the segments run in
    a process pool of at most one process per segment and are merged in
    order, so the output is identical either way.
    """
    if bound < 2:
        return [], 0
    sieve = _sieve_table(a, bound)
    jobs = [
        (a, lo, min(lo + _SEGMENT, bound + 1), sieve)
        for lo in range(0, bound + 1, _SEGMENT)
    ]
    found: list[int] = []
    prime_count = 0
    parallel = workers > 1 and len(jobs) > 1
    with multiprocessing.Pool(min(workers, len(jobs))) if parallel else nullcontext() as pool:
        results = pool.imap(_segment_job, jobs) if parallel else map(_segment_job, jobs)
        for job, (pseudo, count) in zip(jobs, results):
            found.extend(pseudo)
            prime_count += count
            if progress is not None:
                progress(job[2] - 1, bound)
    return found, prime_count


class ScanReport(NamedTuple):
    base: int
    bound: int
    strong_pseudoprimes: tuple[int, ...]
    overpseudoprime_count: int
    prime_count: int
    primover_count: int


def scan(
    a: int,
    bound: int,
    *,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> ScanReport:
    """Census up to bound: strong pseudoprimes, overpseudoprimes among them,
    primes, and the primover total."""
    if a < 2:
        raise DomainError("base must be at least 2")
    if bound < 3:
        raise DomainError("bound must be at least 3")
    pseudo, prime_count = strong_pseudoprimes_upto(
        a, bound, workers=workers, progress=progress
    )
    over = sum(
        1 for n in pseudo if overpseudoprime_by_order_criterion(a, n).ok
    )
    return ScanReport(
        a, bound, tuple(pseudo), over, prime_count, prime_count + over
    )


def strong_pseudoprime_ordinal(
    a: int,
    n: int,
    *,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """1-based position of n in the ordered strong pseudoprimes to base a.

    Runs a full certified scan up to n, so cost is linear in n.
    """
    if not is_strong_pseudoprime(a, n):
        raise DomainError(f"{n} is not a strong pseudoprime to base {a}")
    pseudo, _ = strong_pseudoprimes_upto(a, n, workers=workers, progress=progress)
    if not pseudo or pseudo[-1] != n:
        raise ArithmeticError(f"scan to {n} failed to end at {n}")
    return len(pseudo)


# --- direct overpseudoprime census ---------------------------------------


def overpseudoprimes_upto(a: int, bound: int) -> tuple[int, ...]:
    """Every overpseudoprime to base a up to bound, by direct construction.

    All prime power factors of an overpseudoprime share one order h, so the
    census groups prime powers by the order they give the base and
    multiplies within each class. A composite n <= bound has its smallest
    prime p <= isqrt(bound), so only those primes seed classes. A larger
    prime q | n has exponent 1, and in class h, q = 1 (mod lcm(2, h)),
    q | a^h - 1 and q <= bound // p_min(h), the smallest seed of the class;
    walking that progression for primes of order exactly h loses no class
    member. No pseudoprime scan is involved: an independent check on scans.
    """
    if a < 2:
        raise DomainError("base must be at least 2")
    if bound < 9:
        return ()
    root = isqrt(bound)
    table = smallest_factor_table(root)

    # atom = (prime, max exponent keeping the same order within bound)
    classes: dict[int, list[tuple[int, int]]] = {}
    for p in range(3, root + 1, 2):
        if table[p] != p or a % p == 0:
            continue
        h = order_descent(a, p, factor_with_table(p - 1, table).primes)
        e = 1
        pk = p
        while pk * p <= bound and pow(a, h, pk * p) == 1:
            pk *= p
            e += 1
        classes.setdefault(h, []).append((p, e))

    for h, atoms in classes.items():
        limit = bound // atoms[0][0]
        if h < limit.bit_length():
            limit = min(limit, a**h - 1)
        step = lcm(2, h)
        h_primes = factor_with_table(h, table).primes
        atoms.extend(
            (q, 1)
            for q in range(root + 1 + -root % step, limit + 1, step)
            if pow(a, h, q) == 1
            and check_prime(q).value
            and all(pow(a, h // r, q) != 1 for r in h_primes)
        )

    found: list[int] = []

    def grow(atoms: list[tuple[int, int]], i: int, value: int, parts: int) -> None:
        for j in range(i, len(atoms)):
            p, e_max = atoms[j]
            if value * p > bound:
                break  # atoms ascend, so every later prime overshoots too
            v = value
            for e in range(1, e_max + 1):
                v *= p
                if v > bound:
                    break
                if parts + e >= 2:
                    found.append(v)
                grow(atoms, j + 1, v, parts + e)

    for atoms in classes.values():  # atoms ascend: seeds, then walked primes
        if len(atoms) == 1 and atoms[0][1] == 1:
            continue  # nothing composite can come from a single bare prime
        grow(atoms, 0, 1, 0)
    return tuple(sorted(found))
