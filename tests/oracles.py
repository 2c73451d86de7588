"""Brute-force reference implementations used to check the library.

Nothing here imports the package; each function is the slowest, most
obvious computation of its quantity.
"""
from __future__ import annotations

import random
from math import gcd, isqrt


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_factor(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 2, by trial division by every d >= 2."""
    counts: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        counts[n] = counts.get(n, 0) + 1
    return tuple(sorted(counts.items()))


def naive_order(a: int, n: int) -> int:
    assert gcd(a, n) == 1 and n > 1
    x = a % n
    h = 1
    while x != 1:
        x = x * a % n
        h += 1
    return h


def naive_cosets(a: int, n: int) -> list[list[int]]:
    """Orbits of multiplication by a on {1, ..., n-1}, least element first."""
    remaining = set(range(1, n))
    out = []
    while remaining:
        s = min(remaining)
        orbit = [s]
        x = s * a % n
        while x != s:
            orbit.append(x)
            x = x * a % n
        remaining -= set(orbit)
        out.append(orbit)
    return out


def naive_phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_mu(n: int) -> int:
    if n == 1:
        return 1
    count = 0
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            count += 1
        d += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def moebius_cofactor(a: int, n: int) -> int:
    """prod over divisors d of n of (a^d - 1)^mu(n/d), as an exact integer."""
    num = den = 1
    for d in naive_divisors(n):
        mu = naive_mu(n // d)
        if mu == 1:
            num *= a**d - 1
        elif mu == -1:
            den *= a**d - 1
    value, rem = divmod(num, den)
    assert rem == 0, f"Moebius product not integral at a={a}, n={n}"
    return value


def naive_strong_test(a: int, n: int) -> bool:
    """The strong probable-prime test, written out longhand. n odd, > 2."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def seeded_rounds_test(n: int) -> bool:
    """The slow probable-prime reference above psi_13: the strong test to
    the first thirteen prime bases, then to 48 bases drawn from a generator
    seeded with n. n odd, above 41."""
    if not all(naive_strong_test(a, n) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)):
        return False
    rng = random.Random(n)
    return all(naive_strong_test(rng.randrange(2, n - 1), n) for _ in range(48))


def longhand_census(a: int, bound: int) -> tuple[int, ...]:
    """Overpseudoprimes to base a up to bound, from an order for every prime
    up to bound/3 (the smallest possible cofactor is 3).

    Each prime p gets h = ord_p(a), by descent from p - 1 over a
    smallest-factor table, and the largest exponent that keeps that order
    within bound; the primes of each class are multiplied together in every
    way that stays within bound. Time and memory grow with bound/3.
    """
    assert a >= 2
    if bound < 9:
        return ()
    prime_limit = bound // 3
    table = list(range(prime_limit + 1))
    for p in range(2, isqrt(prime_limit) + 1):
        if table[p] == p:
            for m in range(p * p, prime_limit + 1, p):
                if table[m] == m:
                    table[m] = p

    # atom = (prime, max exponent keeping the same order within bound)
    classes: dict[int, list[tuple[int, int]]] = {}
    for p in range(3, prime_limit + 1, 2):
        if table[p] != p or a % p == 0:
            continue
        h = m = p - 1
        while m > 1:
            q = table[m]
            while m % q == 0:
                m //= q
            while h % q == 0 and pow(a, h // q, p) == 1:
                h //= q
        e = 1
        pk = p
        while pk * p <= bound and pow(a, h, pk * p) == 1:
            pk *= p
            e += 1
        classes.setdefault(h, []).append((p, e))

    found: list[int] = []

    def grow(atoms: list[tuple[int, int]], i: int, value: int, parts: int) -> None:
        for j in range(i, len(atoms)):
            p, e_max = atoms[j]
            v = value * p
            e = 1
            while v <= bound:
                if parts + e >= 2:
                    found.append(v)
                grow(atoms, j + 1, v, parts + e)
                if e == e_max:
                    break
                v *= p
                e += 1

    for h in sorted(classes):
        atoms = sorted(classes[h])
        if len(atoms) == 1 and atoms[0][1] == 1:
            continue  # nothing composite can come from a single bare prime
        grow(atoms, 0, 1, 0)
    return tuple(sorted(found))


def longhand_strong_pseudoprimes(a: int, lo: int, hi: int) -> list[int]:
    """Strong pseudoprimes to base a in [lo, hi), by an order-filtered
    segment sieve and the strong test.

    The sieve proves compositeness, and it rules out a multiple n of a
    sieving prime q unless n = q (mod q * lcm(2, ord_q(a))); a q dividing a
    rules out all of its multiples. Every composite left gets the strong
    test. Time grows with hi - lo, plus a table of the primes up to
    isqrt(hi - 1) with their orders.
    """
    assert a >= 2
    limit = isqrt(max(hi - 1, 0))
    sieve = []  # (q, ord_q(a)), with 0 for a q dividing a
    for q in range(3, limit + 1, 2):
        if not naive_is_prime(q):
            continue
        h = 0
        if a % q:
            h = m = q - 1
            r = 2
            while m > 1:
                if r * r > m:
                    r = m
                if m % r == 0:
                    while m % r == 0:
                        m //= r
                    while h % r == 0 and pow(a, h // r, q) == 1:
                        h //= r
                r += 1
        sieve.append((q, h))

    # marks: 0 prime, 1 composite that may pass, 2 ruled out
    start = max(3, lo) | 1
    if start >= hi:
        return []
    m = (hi - start + 1) // 2
    marks = bytearray(m)
    for q, h in sieve:
        first = max(q * q, (start + q - 1) // q * q)
        if first % 2 == 0:
            first += q
        if first >= hi:
            continue
        j0 = (first - start) // 2
        ruled_out = b"\x02" * len(range(j0, m, q))
        if h == 0:
            marks[j0::q] = ruled_out
            continue
        step = q * h * (2 // gcd(2, h))
        may_pass = slice((first + (q - first) % step - start) // 2, m, step // 2)
        kept = marks[may_pass]
        marks[j0::q] = ruled_out
        marks[may_pass] = kept.replace(b"\x00", b"\x01")
    return [
        start + 2 * j
        for j, mark in enumerate(marks)
        if mark == 1 and naive_strong_test(a, start + 2 * j)
    ]
