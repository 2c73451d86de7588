"""Independent arithmetic used to generate inputs and check answers.

Nothing here imports primover: every answer the program gives is checked
against these routines and against what the generator put into the input.
"""
from __future__ import annotations

import random
from math import gcd, isqrt, lcm

# Below this bound the first twelve prime bases decide primality exactly.
DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
# classify cross-checks against the coset count at or below this subject size.
COSET_CEILING = 10_000_000
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class WrongAnswer(Exception):
    """The program's output disagrees with the benchmark's own knowledge."""


def prime_sieve(limit: int) -> bytearray:
    """sieve[n] == 1 exactly when n <= limit is prime."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return sieve


def primes_upto(limit: int) -> list[int]:
    return [i for i, b in enumerate(prime_sieve(limit)) if b]


SMALL_PRIMES = primes_upto(4000)
_PRIMORIAL = 1
for _p in SMALL_PRIMES[:168]:  # primes below 1000
    _PRIMORIAL *= _p


def strong_test(n: int, a: int) -> bool:
    """Longhand strong probable-prime test of odd n > 2 to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact below DETERMINISTIC_BOUND; above it, 16 extra random rounds."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    if not all(strong_test(n, a) for a in _BASES):
        return False
    if n < DETERMINISTIC_BOUND:
        return True
    rng = random.Random(n ^ 0x5EED)
    return all(strong_test(n, rng.randrange(2, n - 1)) for _ in range(16))


def random_prime(rng: random.Random, bits: int) -> int:
    """A random probable prime with exactly the given bit length.

    It passes the strong test to the first four fixed bases. The answer
    checks re-test every generated prime with is_prime, so a composite
    here would abort the run, not pass it.
    """
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if gcd(n, _PRIMORIAL) == 1 and all(strong_test(n, a) for a in _BASES[:4]):
            return n


def factor(n: int) -> dict[int, int]:
    """Trial division; only for n whose second-largest prime is small."""
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = SMALL_PRIMES[-1] + 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order_mod(a: int, modulus: int, multiple: int) -> int:
    """Exact order of a mod modulus, given a multiple of it (a^multiple == 1)."""
    h = multiple
    for q in factor(multiple):
        while h % q == 0 and pow(a, h // q, modulus) == 1:
            h //= q
    return h


def shared_order(a: int, factors: dict[int, int]) -> int | None:
    """The common order of a modulo every prime power dividing n, or None.

    Every p^j with j <= e counts, not only the full p^e. A common order h
    divides each p - 1, hence their gcd G; so a^G must be 1 modulo every p^e
    before G is factored at all.
    """
    g = 0
    for p in factors:
        g = gcd(g, p - 1)
    if any(pow(a, g, p**e) != 1 for p, e in factors.items()):
        return None
    powers = [p**j for p, e in factors.items() for j in range(1, e + 1)]
    orders = {order_mod(a, q, g) for q in powers}
    return orders.pop() if len(orders) == 1 else None


def moebius(n: int) -> int:
    f = factor(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def cyclotomic_value(a: int, n: int) -> int:
    """prod over d | n of (a^d - 1)^mu(n/d)."""
    num = den = 1
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = moebius(n // d)
        if mu == 1:
            num *= a**d - 1
        elif mu == -1:
            den *= a**d - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Moebius product not integral at {a}, {n}")
    return value


def coset_count(a: int, factors: dict[int, int]) -> int:
    """Sum over divisors d > 1 of phi(d) / ord_d(a), from n's factorization."""
    items = [(1, 1, 1)]  # (d, phi(d), ord_d(a))
    for p, e in factors.items():
        grown = list(items)
        for d, phi, h in items:
            pk = 1
            for _ in range(e):
                pk *= p
                lam = pk // p * (p - 1)
                grown.append((d * pk, phi * lam, lcm(h, order_mod(a, pk, lam))))
        items = grown
    return sum(phi // h for d, phi, h in items if d > 1)


# --- answer checks ---------------------------------------------------------


def _fail(message: str) -> None:
    raise WrongAnswer(message)


def check_classify(a: int, n: int, truth: dict, got: list) -> None:
    """got = [status, factors or None, h, r, probabilistic] from classify."""
    status, factors, h, r, probabilistic = got
    if truth["kind"] == "prime":
        if status != "prime" or not is_prime(n):
            _fail(f"classify({a}, {n}): {status}, expected prime")
        if probabilistic != (n >= DETERMINISTIC_BOUND):
            _fail(f"classify({a}, {n}): probabilistic flag {probabilistic}")
        return
    known = {int(p): e for p, e in truth["factors"]}
    if {p: e for p, e in factors or ()} != known:
        _fail(f"classify({a}, {n}): factors {factors}, expected {sorted(known.items())}")
    common = shared_order(a, known)
    expected = "overpseudoprime" if common is not None else "composite-not-primover"
    if truth["kind"] == "overpseudoprime" and common is None:
        _fail(f"generator built {n} to base {a} as an overpseudoprime, but it is not")
    if status != expected:
        _fail(f"classify({a}, {n}): {status}, expected {expected}")
    if pow(a, h, n) != 1 or (common is not None and h != common):
        _fail(f"classify({a}, {n}): order {h} is wrong")
    if r is not None:
        if r != coset_count(a, known):
            _fail(f"classify({a}, {n}): coset count {r} is wrong")
        if (r * h + 1 == n) != (common is not None):
            _fail(f"classify({a}, {n}): r*h+1 test disagrees with the orders")
    elif n <= COSET_CEILING:
        _fail(f"classify({a}, {n}): no coset count below the cross-check ceiling")


def check_cofactor(a: int, n: int, got: list) -> None:
    """got = [value, coprime, status, factors or None] from primitive_cofactor."""
    value, coprime, status, factors = got
    if value != cyclotomic_value(a, n):
        _fail(f"primitive_cofactor({a}, {n}): value differs from the Moebius product")
    whole = a**n - 1
    if whole % value:
        _fail(f"primitive_cofactor({a}, {n}): value does not divide a^n - 1")
    if coprime != (gcd(value, whole // value) == 1):
        _fail(f"primitive_cofactor({a}, {n}): coprimality flag {coprime} is wrong")
    prime = is_prime(value)
    if (status == "prime") != prime:
        _fail(f"primitive_cofactor({a}, {n}): status {status}, primality {prime}")
    primover = status in ("prime", "overpseudoprime")
    if primover != coprime and not (prime and not coprime):
        _fail(f"primitive_cofactor({a}, {n}): status {status} vs coprimality {coprime}")
    # Certificate: V | a^n - 1 and gcd(V, a^(n/q) - 1) = 1 for each prime q | n
    # give every prime power of V the order n, so a composite V is overpseudoprime.
    certified = all(gcd(value, a ** (n // q) - 1) == 1 for q in factor(n))
    if certified and not primover:
        _fail(f"primitive_cofactor({a}, {n}): certified primover, classified {status}")
    if factors is not None:
        product = 1
        for p, e in factors:
            if not is_prime(p):
                _fail(f"primitive_cofactor({a}, {n}): listed factor {p} is composite")
            product *= p**e
        if product != value:
            _fail(f"primitive_cofactor({a}, {n}): factors do not recompose the value")


def range_truth(a: int, bound: int) -> tuple[int, list[int], list[int]]:
    """Longhand census to bound: the prime count, every strong pseudoprime to
    base a (an odd composite passing the strong test) and the
    overpseudoprimes among them."""
    sieve = prime_sieve(bound)
    spsp = [n for n in range(9, bound + 1, 2) if not sieve[n] and strong_test(n, a)]
    over = [n for n in spsp if shared_order(a, factor(n)) is not None]
    return sieve.count(1), spsp, over


def check_range(a: int, bound: int, truth: tuple, got: list) -> None:
    """got = [strong pseudoprimes, overpseudoprime count, prime count,
    primover count, census]; truth from range_truth(a, bound)."""
    spsp, over_count, primes, primover, census = got
    true_primes, true_spsp, true_over = truth
    if primes != true_primes:
        _fail(f"scan({a}, {bound}): {primes} primes, expected {true_primes}")
    if spsp != true_spsp:
        missing = sorted(set(true_spsp) - set(spsp))[:5]
        extra = sorted(set(spsp) - set(true_spsp))[:5]
        _fail(f"scan({a}, {bound}): strong pseudoprimes differ; missing {missing}, extra {extra}")
    if over_count != len(true_over):
        _fail(f"scan({a}, {bound}): {over_count} overpseudoprimes, expected {len(true_over)}")
    if primover != true_primes + len(true_over):
        _fail(f"scan({a}, {bound}): primover count {primover}, expected {true_primes + len(true_over)}")
    if census != true_over:
        _fail(f"overpseudoprimes_upto({a}, {bound}) differs from the longhand overpseudoprimes")
