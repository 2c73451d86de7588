"""Primover classification.

An odd composite n coprime to a is overpseudoprime to base a when
n = r * h + 1, with r the number of cyclotomic cosets of a mod n and h the
multiplicative order of a mod n. Equivalently, every prime power dividing n
gives a the same order h. "Primover" covers primes and overpseudoprimes
together; the module also provides the classical strong and super
pseudoprime predicates, range scans, and ordinal queries.
"""
from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from math import gcd, isqrt, lcm
from typing import Callable, NamedTuple

from primover.arith import (
    Factorization,
    _strong_probable,
    check_prime,
    cyclotomic_terms,
    cyclotomic_value,
    factorize,
    mult_order,
    order_descent,
    prime_power_orders,
    prime_count,
    require_base,
    settings,
    smallest_factor_table,
)
from primover.cosets import coset_count
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
    cost of a verdict, never the verdict.
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
    if order is not None and order > 1 and _certified(a, n, order, factorize(order).primes):
        try:
            f = factorize(n)
        except IncompleteFactorizationError:
            reason = f"order certificate for h = {order} holds; the factorization budget ran out"
            return Classification(n, a, Status.OVERPSEUDOPRIME, Evidence(h=order, reason=reason))
        orders = tuple((p, j, order) for p, e in f.factors for j in range(1, e + 1))
        crit = OrderCriterionTest(True, f, orders, order)
    else:
        crit = _order_criterion(a, n)
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


# --- order atoms -----------------------------------------------------------
# A prime power dividing a Fermat pseudoprime n to base a gives a an order
# that divides n - 1. The strong-pseudoprime enumeration and the
# overpseudoprime census build their numbers from the same atoms: every odd
# prime up to isqrt(bound) with its order tower, and primes above it found by
# walking a progression for each order h.


def _prime_divisors(n: int, table: list[int]) -> tuple[int, ...]:
    """The primes of n in ascending order, read from a smallest-factor table."""
    primes = []
    while n > 1:
        primes.append(p := table[n])
        while n % p == 0:
            n //= p
    return tuple(primes)


def _seeds(a: int, bound: int, table: list[int]) -> list[tuple[int, int, int]]:
    """(p, e, h) for every odd prime p <= isqrt(bound) not dividing a.

    h = ord_p(a), and e is the largest exponent with p^e <= bound at which
    the order is still h. Beyond it the order gains the factor p, which no
    pseudoprime allows, as p cannot divide n - 1. table is a smallest-factor
    table up to isqrt(bound).
    """
    seeds = []
    for p in range(3, isqrt(bound) + 1, 2):
        if table[p] != p or a % p == 0:
            continue
        h = order_descent(a, p, _prime_divisors(p - 1, table))
        e = 1
        pk = p
        while pk * p <= bound and pow(a, h, pk * p) == 1:
            pk *= p
            e += 1
        seeds.append((p, e, h))
    return seeds


def _progression(a: int, h: int, lo: int, limit: int) -> range:
    """The candidates in [lo, limit] for a prime q of order h.

    Such a q divides a^h - 1, and q = 1 (mod lcm(2, h)).
    """
    if h < limit.bit_length():
        limit = min(limit, a**h - 1)
    step = lcm(2, h)
    return range(lo + (1 - lo) % step, limit + 1, step)


# while a^h - 1 has at most about this many bits, one reduction of it is
# cheaper than pow(a, h, q)
_SMALL_POWER_BITS = 2048
# _walk splits into at most _CLASSES classes of over _CLASS_LENGTH candidates
_CLASSES, _CLASS_LENGTH = 64, 16


@lru_cache(maxsize=1 << 12)
def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _primitive_part(a: int, h: int, h_primes: tuple[int, ...], seeds: tuple[int, ...]) -> int:
    """Phi_h(a) with 2, h's largest prime and the seeds divided out, given
    h's primes.

    A prime p | Phi_h(a) does not divide a, and h = ord_p(a) * p^j, so p
    has order h or is h's largest prime (2 for h = 2^j). With seeds every
    odd prime of order h up to some x >= 2, the primes left all have order
    h and exceed x.
    """
    rest = cyclotomic_value(a, cyclotomic_terms(h, h_primes))
    for p in (2, *h_primes[-1:], *seeds):
        while rest % p == 0:
            rest //= p
    return rest


def _walk(
    a: int, h: int, candidates: range, h_primes: tuple[int, ...], seeds: tuple[int, ...]
) -> list[int]:
    """The primes among candidates at which a has order exactly h, ascending,
    given h's primes and the seeds, every odd prime of order h below them.

    As (a/q) = a^((q-1)/2) mod q, a prime q of order h has (a/q) = 1
    exactly when 2h | q - 1; (a/q) depends only on q mod 4a, so the classes
    mod lcm(2h, 4a) whose Jacobi symbol disagrees are skipped.

    A progression long enough to split, with a^h of at most
    _SMALL_POWER_BITS bits, is walked against R = _primitive_part(a, h,
    h_primes, seeds), whose primes are exactly those sought, and only up to
    isqrt(R). With the primes found divided out of R, what is left is 1 or
    a single prime above isqrt(R), listed when it is a candidate.
    """
    rest = 0
    if len(candidates) > 2 * _CLASS_LENGTH and a.bit_length() * h <= _SMALL_POWER_BITS:
        rest = _primitive_part(a, h, h_primes, seeds)
        whole, candidates = candidates, candidates[: bisect_right(candidates, isqrt(rest))]
    classes = (candidates,)
    if len(candidates) > 2 * _CLASS_LENGTH:  # count >= 2, so no shorter one splits
        count = lcm(2 * h, 4 * a) // candidates.step
        if count <= _CLASSES and count * _CLASS_LENGTH < len(candidates):
            kept = [
                candidates[i::count]
                for i, r in enumerate(candidates[:count])
                if _jacobi(a, r % (4 * a)) == (1 if (r - 1) % (2 * h) == 0 else -1)
            ]
            if len(kept) < count:
                classes = kept
    if a.bit_length() * h <= _SMALL_POWER_BITS:
        power = rest or a**h - 1
        divisors = [q for c in classes for q in c if power % q == 0]
    else:
        divisors = [q for c in classes for q in c if pow(a, h, q) == 1]
    if len(classes) > 1:
        divisors.sort()
    if rest:
        for q in divisors:  # ascending, so a composite q no longer divides
            while rest % q == 0:
                rest //= q
        if rest > 1 and rest in whole:
            divisors.append(rest)
    return [
        q
        for q in divisors
        if all(pow(a, h // r, q) != 1 for r in h_primes) and check_prime(q).value
    ]


# --- strong pseudoprimes by enumeration ------------------------------------

# the walk's progressions are dealt into this many jobs, the unit of the
# pool and of progress reports
_JOBS = 64


def _seed_products(seeds: list[int], bits: int) -> list[int]:
    """products[k] for k <= bits: the product of the seeds below
    2^((k + 1) // 2), the next power of two above isqrt(m) for every m of k
    bits. So every seed up to isqrt(m) divides products[m.bit_length()].
    seeds ascend.
    """
    products, product, i = [], 1, 0
    for k in range(bits + 1):
        while i < len(seeds) and seeds[i] < 1 << (k + 1) // 2:
            product *= seeds[i]
            i += 1
        products.append(product)
    return products


def _walk_job(
    a: int, walks: list[tuple[int, tuple[int, ...], tuple[int, ...], range]]
) -> list[tuple[int, int, int]]:
    return [
        (q, 1, h) for h, h_primes, seeds, c in walks for q in _walk(a, h, c, h_primes, seeds)
    ]


def _enumerate_strong_pseudoprimes(
    a: int,
    bound: int,
    *,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every strong pseudoprime n to base a up to bound, in order, as
    (n, h, the primes of h), where h is the order of a modulo one atom of n.

    Pinch's method. A strong pseudoprime n is a Fermat pseudoprime, so the
    order of a modulo each of its prime powers divides n - 1. Hence no
    prime of n divides one of those orders, and n = 1 (mod L) with
    L = lcm(2, orders). A prime P > isqrt(bound) of n has exponent 1, and
    n = k * P with 1 < k <= isqrt(bound). With h = ord_P(a), k = 1
    (mod lcm(2, h)); every prime q | k is a seed whose order has the 2-adic
    valuation of h (see below); and q does not divide h, which k = 1
    (mod h) already ensures. Walking P = 1 (mod lcm(2, h)) up to
    bound // k_min(h), k_min(h) the least such k by the table, finds every
    such P; no k, no walk. k_min(h) is read from one slice of cls, the
    list of each k's class, so each h is planned in one pass. Each walk
    gets the seeds of order h, so a long small-power progression is tested
    only up to the square root of Phi_h(a) with its primes up to
    isqrt(bound) divided out (see _walk).

    The progressions, as (h, primes of h, seeds of order h, candidates),
    are dealt into at most _JOBS interleaved jobs. With workers > 1 (None:
    the run's setting) they run in a process pool of at most one process
    per job.
    progress(done, total) is called once per job, in order, counts walk
    steps and ends with done == total.

    An odd n is a strong pseudoprime exactly when it is a Fermat
    pseudoprime and every prime of n gives a an order with the same 2-adic
    valuation (Pomerance, Selfridge and Wagstaff); the order mod p^j has
    the valuation of the order mod p. So the atoms are grouped by h & -h,
    and each class is searched on its own. A depth-first search multiplies
    the class's atoms from the largest down, keeping the product s and L.
    It tests s when s is composite and s = 1 (mod L). With m = bound // s,
    it goes on to the atoms below s's smallest prime q and up to m only
    when m > isqrt(bound) and the completions t = s^-1 (mod L),
    1 < t <= m, outnumber those atoms; otherwise it tests the completions
    and stops. A completion t <= isqrt(bound) needs lam[t], the lcm of its
    primes' orders by the table, in the class and dividing s * t - 1.
    Of the larger t only products of two or more seeds of the class below
    q matter: every other n is found on the path of its own primes. Such a
    t has such a seed up to isqrt(t), so t is skipped when it is coprime to
    the product of the class's seeds below the next power of two above
    isqrt(m) (_seed_products), or when, with the primes it shares with
    that product divided out, what is left is a k with
    1 < k <= isqrt(bound) whose primes are not all seeds of the class.
    Every number listed is composite by construction and passed the strong
    test, so the list is certified. Each n carries the order h of the last
    atom multiplied in, factored by the table.

    Base 2 / 3 / 5 / 7 to 2^20 takes 212 / 237 / 226 / 223 strong tests,
    and base 2 to 10^9 8,547.
    """
    root = isqrt(bound)
    table = smallest_factor_table(root)
    atoms = _seeds(a, bound, table)
    seeds: dict[int, list[int]] = {}  # the seeds of each order
    # lam[k]: the lcm of k's primes' seed orders if all are in one class, or 0
    lam = [0] * (root + 1)
    for q, _, h in atoms:
        seeds.setdefault(h, []).append(q)
        lam[q] = h
    for k in range(3, root + 1, 2):
        q = table[k]
        if q < k:
            h, rest = lam[q], lam[k // q]
            lam[k] = lcm(rest, h) if h and rest & -rest == h & -h else 0
    cls = [lam_k & -lam_k for lam_k in lam]  # the class of k's primes, or 0
    walks = []
    for h in range(1, root + 1):
        step, c = lcm(2, h), h & -h
        row = cls[step + 1 :: step]  # the classes of k = step + 1, 2 * step + 1, ...
        if c not in row:
            continue
        k_min = step * (row.index(c) + 1) + 1
        if candidates := _progression(a, h, root + 1, bound // k_min):
            walks.append((h, _prime_divisors(h, table), tuple(seeds.get(h, ())), candidates))
    jobs = [walks[j::_JOBS] for j in range(min(_JOBS, len(walks)))]
    walk_job = partial(_walk_job, a)
    total = sum(len(candidates) for _, _, _, candidates in walks)
    done = 0
    workers = settings().workers if workers is None else workers
    parallel = workers > 1 and len(jobs) > 1
    if parallel:
        import multiprocessing  # not at the top: a serial walk never pays for it
    with multiprocessing.Pool(min(workers, len(jobs))) if parallel else nullcontext() as pool:
        results = pool.imap(walk_job, jobs) if parallel else map(walk_job, jobs)
        for job, walked in zip(jobs, results):
            atoms.extend(walked)
            done += sum(len(candidates) for _, _, _, candidates in job)
            if progress is not None:
                progress(done, total)

    classes: dict[int, list[tuple[int, int, int]]] = {}
    for atom in atoms:
        classes.setdefault(atom[2] & -atom[2], []).append(atom)
    found: dict[int, int] = {}

    def search(
        atoms: list[tuple[int, int, int]],
        primes: list[int],
        c: int,
        products: list[int],
        top: int,
        s: int,
        L: int,
    ) -> None:
        # atoms[:top] are the atoms at most bound // s and below every prime of s
        for i in range(top - 1, -1, -1):
            q, e_max, h = atoms[i]
            if L % q == 0 or gcd(h, s) != 1:
                continue
            L_q = lcm(L, h)
            v = s
            for e in range(1, e_max + 1):
                v *= q
                if v > bound:
                    break
                if (s > 1 or e > 1) and v % L_q == 1 and _strong_probable(v, a):
                    found[v] = h
                m = bound // v
                if m > root:
                    below = bisect_right(primes, m, 0, i)
                    if m // L_q > below:
                        search(atoms, primes, c, products, below, v, L_q)
                        continue
                # t = 1 (n = v, tested above) has cls[1] = 0; most leaves have
                # no completion, or one, where a while loop beats a range
                t = pow(v, -1, L_q)
                last = min(m, root)
                while t <= last:
                    if cls[t] == c and (v * t - 1) % lam[t] == 0 and _strong_probable(v * t, a):
                        found[v * t] = h
                    t += L_q
                if m <= root:
                    continue
                product = products[m.bit_length()]
                for t in range(t, m + 1, L_q):
                    if (g := gcd(t, product)) == 1:
                        continue
                    k = t // g
                    while (d := gcd(k, g)) > 1:
                        k //= d
                    if 1 < k <= root and cls[k] != c:
                        continue
                    if _strong_probable(v * t, a):
                        found[v * t] = h

    for c, members in classes.items():
        members.sort()
        primes = [q for q, _, _ in members]
        products = _seed_products([q for q in primes if q <= root], bound.bit_length())
        search(members, primes, c, products, len(members), 1, 2)
    return [(n, h, _prime_divisors(h, table)) for n, h in sorted(found.items())]


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
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
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
    found = _enumerate_strong_pseudoprimes(a, bound, workers=workers, progress=progress)
    over = sum(1 for n, h, h_primes in found if _certified(a, n, h, h_primes))
    pi = prime_count(bound)
    return ScanReport(a, bound, tuple(n for n, _, _ in found), over, pi, pi + over)


def strong_pseudoprime_ordinal(
    a: int,
    n: int,
    *,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
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
    found = _enumerate_strong_pseudoprimes(a, n, workers=workers, progress=progress)
    if not found or found[-1][0] != n:
        raise ArithmeticError(f"enumeration to {n} failed to end at {n}")
    return len(found)


# --- direct overpseudoprime census ---------------------------------------


def overpseudoprimes_upto(a: int, bound: int) -> tuple[int, ...]:
    """Every overpseudoprime to base a up to bound, by direct construction.

    All prime power factors of an overpseudoprime share one order h, so the
    census groups the seeds by the order they give the base and multiplies
    within each class. A composite n <= bound has its smallest prime
    p <= isqrt(bound), so only those primes seed classes. A larger prime
    q | n has exponent 1, and in class h, q = 1 (mod lcm(2, h)),
    q | a^h - 1 and q <= bound // p_min(h), the smallest seed of the class;
    walking that progression for primes of order exactly h loses no class
    member. The class's seeds go to the walk, which then tests a long
    small-power progression only up to the square root of Phi_h(a) with
    its primes up to isqrt(bound) divided out (see _walk); a class whose
    progression is empty is not walked. No strong test is involved: an
    independent check on the strong-pseudoprime list, whose enumeration
    shares only these atoms.
    """
    require_base(a)
    if bound < 9:
        return ()
    root = isqrt(bound)
    table = smallest_factor_table(root)

    # atom = (prime, max exponent keeping the same order within bound)
    classes: dict[int, list[tuple[int, int]]] = {}
    for p, e, h in _seeds(a, bound, table):
        classes.setdefault(h, []).append((p, e))
    for h, atoms in classes.items():
        if candidates := _progression(a, h, root + 1, bound // atoms[0][0]):
            seeds = tuple(p for p, _ in atoms)
            walked = _walk(a, h, candidates, _prime_divisors(h, table), seeds)
            atoms.extend((q, 1) for q in walked)

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
