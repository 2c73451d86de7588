"""Brute-force reference implementations used to check the library.

Nothing here imports the package; each function is the slowest, most
obvious computation of its quantity.
"""
from __future__ import annotations

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
