"""Strong pseudoprimes and overpseudoprimes built from order atoms.

A prime power dividing a Fermat pseudoprime n to base a gives a an order
that divides n - 1. The strong-pseudoprime enumeration and the
overpseudoprime census build their numbers from the same atoms: every odd
prime up to isqrt(bound) with its order tower, and primes above it found by
walking a progression for each order h.
"""
from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from functools import lru_cache, partial
from math import gcd, isqrt, lcm
from typing import Callable, NamedTuple

from primover.arith import (
    _strong_probable,
    check_prime,
    cyclotomic_terms,
    cyclotomic_value,
    jacobi,
    order_descent,
    require_base,
    settings,
    smallest_factor_table,
)

Atom = tuple[int, int, int]  # (p, e, h): a prime, its largest exponent, its order (see _seeds)
Walk = tuple[int, tuple[int, ...], tuple[int, ...], range]
Progress = Callable[[int, int], None]


def _prime_divisors(n: int, table: list[int]) -> tuple[int, ...]:
    """The primes of n in ascending order, read from a smallest-factor table."""
    primes = []
    while n > 1:
        primes.append(p := table[n])
        while n % p == 0:
            n //= p
    return tuple(primes)


def _seeds(a: int, bound: int, table: list[int]) -> list[Atom]:
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


_jacobi = lru_cache(maxsize=1 << 12)(jacobi)  # the walk's residues r < 4a repeat


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


class Plan(NamedTuple):
    a: int
    bound: int
    root: int  # isqrt(bound)
    table: list[int]  # smallest factors up to root
    lam: list[int]  # lam[k]: the lcm of k's primes' seed orders if all are in one class, or 0
    cls: list[int]  # cls[k] = lam[k] & -lam[k], the class of k's primes, or 0
    seeds: list[Atom]  # the atoms up to root
    walks: list[Walk]  # the progressions, as (h, primes of h, seeds of order h, candidates)


def plan(a: int, bound: int) -> Plan:
    """The seeds, order tables and walks of the enumeration to bound.

    Pinch's method. A strong pseudoprime n is a Fermat pseudoprime, so the
    order of a modulo each of its prime powers divides n - 1. Hence no
    prime of n divides one of those orders, and n = 1 (mod L) with
    L = lcm(2, orders). A prime P > isqrt(bound) of n has exponent 1, and
    n = k * P with 1 < k <= isqrt(bound). With h = ord_P(a), k = 1
    (mod lcm(2, h)); every prime q | k is a seed whose order has the 2-adic
    valuation of h (see search); and q does not divide h, which k = 1
    (mod h) already ensures. Walking P = 1 (mod lcm(2, h)) up to
    bound // k_min(h), k_min(h) the least such k by the table, finds every
    such P; no k, no walk. k_min(h) is read from one slice of cls, the
    list of each k's class, so each h is planned in one pass. Each walk
    gets the seeds of order h, so a long small-power progression is tested
    only up to the square root of Phi_h(a) with its primes up to
    isqrt(bound) divided out (see _walk).
    """
    root = isqrt(bound)
    table = smallest_factor_table(root)
    seeds = _seeds(a, bound, table)
    of_order: dict[int, list[int]] = {}  # the seeds of each order
    lam = [0] * (root + 1)
    for q, _, h in seeds:
        of_order.setdefault(h, []).append(q)
        lam[q] = h
    for k in range(3, root + 1, 2):
        q = table[k]
        if q < k:
            h, rest = lam[q], lam[k // q]
            lam[k] = lcm(rest, h) if h and rest & -rest == h & -h else 0
    cls = [lam_k & -lam_k for lam_k in lam]
    walks = []
    for h in range(1, root + 1):
        step, c = lcm(2, h), h & -h
        row = cls[step + 1 :: step]  # the classes of k = step + 1, 2 * step + 1, ...
        if c not in row:
            continue
        k_min = step * (row.index(c) + 1) + 1
        if candidates := _progression(a, h, root + 1, bound // k_min):
            walks.append((h, _prime_divisors(h, table), tuple(of_order.get(h, ())), candidates))
    return Plan(a, bound, root, table, lam, cls, seeds, walks)


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


def _walk_job(a: int, walks: list[Walk]) -> list[Atom]:
    return [
        (q, 1, h) for h, h_primes, seeds, c in walks for q in _walk(a, h, c, h_primes, seeds)
    ]


def walk(plan: Plan, workers: int | None, progress: Progress | None) -> list[Atom]:
    """The atoms (q, 1, h) that the plan's walks find. The walks are dealt
    into at most _JOBS interleaved jobs; with workers > 1 (None: the run's
    setting) they run in a process pool of at most one process per job.
    progress(done, total) is called once per job, in order, counts walk
    steps and ends with done == total.
    """
    jobs = [plan.walks[j::_JOBS] for j in range(min(_JOBS, len(plan.walks)))]
    walk_job = partial(_walk_job, plan.a)
    total = sum(len(candidates) for _, _, _, candidates in plan.walks)
    done = 0
    atoms: list[Atom] = []
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
    return atoms


def search(plan: Plan, c: int, atoms: list[Atom]) -> dict[int, int]:
    """{n: h}: the strong pseudoprimes n <= plan.bound made of atoms, the
    atoms of the 2-adic class c (h & -h == c), h the order of n's last atom.

    An odd n is a strong pseudoprime exactly when it is a Fermat
    pseudoprime and every prime of n gives a an order with the same 2-adic
    valuation (Pomerance, Selfridge and Wagstaff); the order mod p^j has
    the valuation of the order mod p. So each class is searched on its
    own. A depth-first search multiplies the class's atoms from the largest
    down, keeping the product s and L. It tests s when s is composite and
    s = 1 (mod L). With m = bound // s, it goes on to the atoms below s's
    smallest prime q and up to m only when m > isqrt(bound) and the
    completions t = s^-1 (mod L), 1 < t <= m, outnumber those atoms;
    otherwise it tests the completions and stops. A completion
    t <= isqrt(bound) needs lam[t], the lcm of its primes' orders by the
    table, in the class and dividing s * t - 1. Of the larger t only
    products of two or more seeds of the class below q matter: every other
    n is found on the path of its own primes. Such a t has such a seed up
    to isqrt(t), so t is skipped when it is coprime to the product of the
    class's seeds below the next power of two above isqrt(m)
    (_seed_products), or when, with the primes it shares with that product
    divided out, what is left is a k with 1 < k <= isqrt(bound) whose
    primes are not all seeds of the class. Every number found is composite
    by construction and passed the strong test, so it is certified.
    """
    a, bound, root, lam, cls = plan.a, plan.bound, plan.root, plan.lam, plan.cls
    atoms = sorted(atoms)
    primes = [q for q, _, _ in atoms]
    products = _seed_products([q for q in primes if q <= root], bound.bit_length())
    found: dict[int, int] = {}

    def descend(top: int, s: int, L: int) -> None:
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
                        descend(below, v, L_q)
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

    descend(len(atoms), 1, 2)
    del descend  # frees the recursive closure now, not in a later cycle collection
    return found


def strong_pseudoprimes(
    a: int, bound: int, *, workers: int | None = None, progress: Progress | None = None
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every strong pseudoprime n to base a up to bound, in order, as
    (n, h, the primes of h), where h is the order of a modulo one atom of n:
    the plan, its walk (workers and progress as in walk) and one search per
    2-adic class of the atoms' orders. Base 2 / 3 / 5 / 7 to 2^20 takes
    212 / 237 / 226 / 223 strong tests, and base 2 to 10^9 8,547.
    """
    planned = plan(a, bound)
    classes: dict[int, list[Atom]] = {}
    for atom in planned.seeds + walk(planned, workers, progress):
        classes.setdefault(atom[2] & -atom[2], []).append(atom)
    found = {n: h for c, atoms in classes.items() for n, h in search(planned, c, atoms).items()}
    return [(n, h, _prime_divisors(h, planned.table)) for n, h in sorted(found.items())]


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
    del grow  # frees the recursive closure now, not in a later cycle collection
    return tuple(sorted(found))
