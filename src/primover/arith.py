"""Integer arithmetic kernel: primality, factorization, totients, orders.

Everything operates on Python's arbitrary-precision ints and is a pure
function of its inputs and the run's settings: one context variable holds
the Config, the factorization cache opened from its cache_path and the
known-prime memo that factorize hands rho, and use_config installs them for
a block. Outside any such block the defaults apply with no cache and one memo.
"""
from __future__ import annotations

import threading
import warnings
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Iterator, NamedTuple

from primover.config import Config
from primover.errors import (
    DomainError,
    IncompleteFactorizationError,
    TooManyDivisorsError,
    format_powers,
)

# The first thirteen prime bases are a proven-deterministic witness set below
# this bound (Sorenson & Webster, https://arxiv.org/abs/1509.00864).
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_t, t): the first t bases decide every n below psi_t, the least strong
# pseudoprime to all of them (OEIS A014233); psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11, so t = 8, 10 and 11 never have a tier of their own.
_WITNESS_TIERS = (
    (2047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (DETERMINISTIC_PRIMALITY_BOUND, 13),
)


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit by a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, b in enumerate(sieve) if b]


# Lucy's recurrence starts past the primes of this wheel, 2 * 3 * 5 * 7 * 11 * 13
_WHEEL, _WHEEL_PHI = 30030, 5760
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_PI_BELOW_13 = (0, 0, 1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 5)  # pi(v) for v <= 12


@lru_cache(maxsize=1)
def _wheel_counts() -> array:
    """T[m] = #{1 <= x <= m : gcd(x, 30030) = 1} for 0 <= m < 30030.

    60 KB as an array('H'); built on first use, not at import.
    """
    sieve = bytearray([1]) * _WHEEL
    sieve[0] = 0
    for p in _WHEEL_PRIMES:
        sieve[p::p] = bytes(len(range(p, _WHEEL, p)))
    return array("H", accumulate(sieve))


def prime_count(n: int) -> int:
    """pi(n), the number of primes <= n, by Lucy's recurrence and
    Meissel's P2 term.

    S(v) counts 2..v less the composites with a prime factor below p. Each
    prime p <= y = icbrt(n) takes S(v) -= S(v // p) - S(p - 1) for every
    value v = n // i with v >= p^2, largest first. The passes for the
    primes of the wheel 30030 = 2 * 3 * 5 * 7 * 11 * 13 are skipped: S(v)
    starts as the count of 2..v coprime to 30030 plus the wheel primes up
    to v, read from a table of one wheel turn, and the passes begin at
    p = 17. After them S(v) = pi(v) for v < (y + 1)^2, which holds for
    every v <= isqrt(n) and every n // p with p > y; and S(n) also counts
    each p * q <= n with p <= q primes above y and 13 (three such primes
    exceed n). So pi(n) = S(n) - sum over the primes p <= isqrt(n) above y
    and 13 of S(n // p) - S(p) + 1. About n^(3/4) / log(n) steps in O(sqrt(n))
    memory.
    """
    if n < 2:
        return 0
    r = isqrt(n)
    y = round(n ** (1 / 3))
    while y**3 > n:
        y -= 1
    while (y + 1) ** 3 <= n:
        y += 1
    W, phi, T = _WHEEL, _WHEEL_PHI, _wheel_counts()

    def start(values: Iterable[int]) -> list[int]:
        # S(v) before the passes: 2..v coprime to the wheel, plus its primes <= v
        return [v // W * phi + T[v % W] + 5 if v > 12 else _PI_BELOW_13[v] for v in values]

    small = start(range(r + 1))  # small[v] = S(v) for v <= r
    large = [0] + start(n // i for i in range(1, r + 1))  # large[i] = S(n // i)
    for p in range(17, y + 1, 2):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below, p2, n_p = small[p - 1], p * p, n // p
        top = min(r, n // p2)
        mid = min(top, r // p)
        # each right side reads the values of the previous prime only;
        # n // (i * p) == n_p // i
        large[1 : mid + 1] = [large[i] - large[i * p] + below for i in range(1, mid + 1)]
        large[mid + 1 : top + 1] = [
            large[i] - small[n_p // i] + below for i in range(mid + 1, top + 1)
        ]
        small[p2:] = [small[v] - small[v // p] + below for v in range(p2, r + 1)]
    return large[1] - sum(
        large[p] - small[p] + 1
        for p in range(max(y, 13) + 1, r + 1)
        if small[p] != small[p - 1]
    )


def smallest_factor_table(limit: int) -> list[int]:
    """table[n] = smallest prime factor of n, for 2 <= n <= limit."""
    table = list(range(limit + 1))
    for p in reversed(primes_upto(isqrt(limit))):  # the smallest prime writes last
        table[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    return table


@dataclass(frozen=True)
class PrimalityResult:
    value: bool
    probabilistic: bool


_SMALL_PRIMES = frozenset(primes_upto(1000))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
# 1009 is the least prime above 1000: below its square, a number with no
# prime factor under 1000 is prime
_SCREENED = 1009 * 1009


def _strong_probable(n: int, a: int) -> bool:
    # n odd, n > 2; True means n passes the strong test to base a
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a: int, n: int) -> int:
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


def _strong_lucas_probable(n: int) -> bool:
    """True when odd n > 2 passes the strong Lucas test with Selfridge's
    parameters (method A): D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4. Write n + 1 = d * 2^s with d odd;
    n passes when U_d = 0 or V_(d * 2^r) = 0 (mod n) for some 0 <= r < s.
    Every prime passes (Baillie & Wagstaff, Math. Comp. 35 (1980)).
    """
    if isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1, so the search would never end
    D = 5
    while (symbol := jacobi(D, n)) != -1:
        if symbol == 0:
            return abs(D) == n  # gcd(D, n) > 1; when |D| = n, no smaller D shared a prime
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k and Q^k mod n from k = 1 along the bits of d: k -> 2k is
    # U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k; k -> k + 1 is
    # U_(k+1) = (U_k + V_k) / 2, V_(k+1) = (D U_k + V_k) / 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) % n, (D * U + V) % n, Qk * Q % n
            U, V = (U + n if U & 1 else U) >> 1, (V + n if V & 1 else V) >> 1
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def check_prime(n: int) -> PrimalityResult:
    """Primality verdict plus a flag for whether it relied on unproven witnesses.

    One gcd with the product of the primes below 1000 screens n first. Past
    the screen, n below DETERMINISTIC_PRIMALITY_BOUND = psi_13 is decided by
    the strong test to the first t prime bases, t the least with n < psi_t
    in _WITNESS_TIERS: one base below 2047, four below 3215031751, thirteen
    from psi_12 = 318665857834031151167461 up (Jaeschke, Math. Comp. 61
    (1993); Sorenson & Webster, Math. Comp. 86 (2017), arXiv 1509.00864;
    OEIS A014233), so the verdict is deterministic (flag False). From
    psi_13 up, n takes the Baillie-PSW test: the strong test to base 2, then
    one strong Lucas test. No known composite passes it, but none is proven
    to fail (Baillie, Fiori & Wagstaff, Math. Comp. 90 (2021), arXiv
    2006.14425), so a "prime" answer there is flagged. Composites are exact.
    """
    if n < 2:
        return PrimalityResult(False, False)
    if gcd(n, _SMALL_PRODUCT) != 1:
        return PrimalityResult(n in _SMALL_PRIMES, False)
    if n < _SCREENED:
        return PrimalityResult(True, False)
    if n >= DETERMINISTIC_PRIMALITY_BOUND:
        probable = _strong_probable(n, 2) and _strong_lucas_probable(n)
        return PrimalityResult(probable, probable)  # only a "prime" answer is unproven
    t = next(t for psi, t in _WITNESS_TIERS if n < psi)
    return PrimalityResult(all(_strong_probable(n, a) for a in _WITNESSES[:t]), False)


def is_prime(n: int) -> bool:
    return check_prime(n).value


@dataclass(frozen=True)
class Factorization:
    """A complete factorization: (prime, exponent) pairs in increasing order.

    Construction checks shape and recomposition, not primality of the parts;
    factorize() only ever builds these from proven-or-tested primes, and the
    cache re-tests entries read from disk.
    """

    subject: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        value = 1
        prev = 1
        for p, e in self.factors:
            if e < 1:
                raise DomainError("exponents must be positive")
            if p <= prev:
                raise DomainError("primes must be distinct and increasing")
            prev = p
            value *= p**e
        if value != self.subject:
            raise DomainError(f"factors do not recompose to {self.subject}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisor_count(self) -> int:
        return prod(e + 1 for _, e in self.factors)

    def divisors(self, cap: int | None = None) -> list[int]:
        """All positive divisors, ascending. Raises if more than cap."""
        count = self.divisor_count()
        if cap is not None and count > cap:
            raise TooManyDivisorsError(
                f"{self.subject} has {count} divisors, above the cap {cap}"
            )
        divs = [1]
        for p, e in self.factors:
            powers = [p**k for k in range(1, e + 1)]
            divs += [d * pk for d in divs for pk in powers]
        return sorted(divs)

    def __str__(self) -> str:
        return format_powers(self.factors) if self.factors else str(self.subject)


_TRIAL_BLOCK = 1024


@lru_cache(maxsize=8)
def _trial_blocks(bound: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The primes up to bound, in blocks of _TRIAL_BLOCK, each with its product.

    One product per block, not one over all the primes: at a bound of 10^6
    that one product takes about 3 s to build and a gcd with it over 1 ms.
    """
    primes = primes_upto(bound)
    starts = range(0, len(primes), _TRIAL_BLOCK)
    blocks = [tuple(primes[i : i + _TRIAL_BLOCK]) for i in starts]
    return tuple((prod(block), block) for block in blocks)


# built at import for the default bound, so that a process's first
# factorization does not pay for the sieve
_trial_blocks(Config().trial_bound)


class _BudgetExhausted(Exception):
    pass


# Rho's charge on a number before its one Pollard p - 1 attempt, and the
# attempt's bounds. A prime p of a certified Phi_n(a) is 1 mod lcm(2, n), so
# p - 1 has the factor n and is often smooth, also for the large p where rho
# is slowest. Stage 2 pairs the primes around the multiples of _PM1_D.
_RHO_FIRST = 1024
_PM1_B1, _PM1_B2 = 2000, 50_000
_PM1_D = 2 * 3 * 5 * 7 * 11


@lru_cache(maxsize=1)
def _pm1_tables() -> tuple[int, int, tuple[tuple[int, ...], ...], int, int]:
    """(E, first, rows, top, cost) for _pollard_pm1, built on first use,
    not at import.

    E = lcm(1..B1), 2,878 bits. Each prime B1 < q <= B2 is kD - j or kD + j
    for one k and one odd j < D/2 coprime to D = 2310; rows[i] holds the j
    so paired with k = first + i (first is 1, the last k 22): 3,727 pairs
    for the 4,830 primes. The rows share the j's int objects, about 40 KB.
    top is the largest j, 1153. cost, the attempt's fixed charge, is one
    step per bit of E and two per stage-2 prime: 12,538.
    """
    exponent = lcm(*range(1, _PM1_B1 + 1))
    stage2 = bytearray(_PM1_B2 + _PM1_D)  # 1 at each prime B1 < q <= B2
    for q in primes_upto(_PM1_B2):
        stage2[q] = q > _PM1_B1
    units = [j for j in range(1, _PM1_D // 2, 2) if gcd(j, _PM1_D) == 1]
    first, last = ((b + _PM1_D // 2) // _PM1_D for b in (_PM1_B1, _PM1_B2))
    rows = tuple(
        tuple(j for j in units if stage2[k * _PM1_D - j] or stage2[k * _PM1_D + j])
        for k in range(first, last + 1)
    )
    top = max(js[-1] for js in rows)
    cost = exponent.bit_length() + 2 * stage2.count(1)
    return exponent, first, rows, top, cost


def _pollard_pm1(n: int, budget: list[int]) -> int:
    """A nontrivial factor of n, which is coprime to 6, by Pollard's p - 1,
    or 0 when it finds none.

    Stage 1 is x = 3^E mod n with E = lcm(1..B1), and x = 2^E mod n when
    gcd(3^E - 1, n) is n: every prime of Phi_m(3) has 3^m = 1, and m | E
    for m <= B1. Stage 2 is Montgomery's pairing. With V_t = x^t + x^(-t),
    V_kD - V_j = 0 mod p exactly when x^(kD - j) or x^(kD + j) is 1 mod p,
    so the product of the V_kD - V_j over the pairs of _pm1_tables, one
    product a pair, and one gcd cover every prime B1 < q <= B2. The V_j
    come from V_(j+2) = V_j * V_2 - V_(j-2), the V_kD from
    V_(k+1)D = V_kD * V_D - V_(k-1)D. A gcd of 1 or of n is a failure. The
    cost is charged to budget before the attempt starts.
    """
    exponent, first, rows, top, cost = _pm1_tables()
    budget[0] -= cost
    if budget[0] <= 0:
        raise _BudgetExhausted
    for base in 3, 2:
        x = pow(base, exponent, n)
        g = gcd(x - 1, n)
        if g != n:
            break
    else:
        return 0
    if g == 1:
        inverse = pow(x, -1, n)
        v = [0] * (top + 1)  # v[j] = V_j for every odd j
        v[1] = (x + inverse) % n
        v2 = (v[1] * v[1] - 2) % n
        v[3] = (v[1] * v2 - v[1]) % n  # V_(-1) = V_1
        for j in range(5, top + 1, 2):
            v[j] = (v[j - 2] * v2 - v[j - 4]) % n
        vd = (pow(x, _PM1_D, n) + pow(inverse, _PM1_D, n)) % n
        before, vk = vd, 2  # V_(k-1)D and V_kD at k = 0
        for _ in range(first):
            before, vk = vk, (vk * vd - before) % n
        acc = 1
        for js in rows:
            for j in js:
                acc = acc * (vk - v[j]) % n
            before, vk = vk, (vk * vd - before) % n
        g = gcd(acc, n)
    return g if 1 < g < n else 0


# Rho's charge on a number, the p - 1 attempt's included, past which rho
# hands the number to ECM, and the fixed charge of each curve: one curve on
# a number of 50-160 bits takes as long as 19,000-29,000 rho steps on it
_ECM_FROM = 16_384
_ECM_CURVE = 25_000


def _ecm_curve(n: int, sigma: int) -> int:
    """gcd(n, what one elliptic curve finds): 1 when the curve finds no
    prime of n, n when it finds them all, a factor of n otherwise.

    The curve is By^2 = x^3 + Ax^2 + x in Montgomery's x-only form, with
    Suyama's parametrization: u = sigma^2 - 5, v = 4 sigma, the point
    P = (u^3 : v^3) and (A + 2) / 4 = (v - u)^3 (3u + v) / (16 u^3 v), so
    12 divides the group order mod every prime. Stage 1 is one Montgomery
    ladder, Q = E * P with the E of _pm1_tables. Stage 2 pairs as
    _pollard_pm1 does: x(kD Q) = x(j Q) mod p exactly when (kD - j) Q or
    (kD + j) Q is the identity mod p, so the product of X_kD - x_j Z_kD over
    the pairs, one product a pair, with the x_j made affine by one batched
    inverse, and one gcd cover every prime B1 < q <= B2. An inverse that
    does not exist gives its gcd instead.
    """
    exponent, first, rows, top, _ = _pm1_tables()
    u, v = (sigma * sigma - 5) % n, 4 * sigma
    u3, v3 = u * u * u % n, v * v * v % n
    den = 16 * u3 * v % n
    g = gcd(den * v3, n)
    if g != 1:
        return g
    inverse = pow(den * v3, -1, n)
    a24 = (v - u) ** 3 * (3 * u + v) * inverse * v3 % n

    def double(X: int, Z: int) -> tuple[int, int]:
        s, d = (X + Z) ** 2, (X - Z) ** 2
        return s * d % n, (s - d) * (d + a24 * (s - d)) % n

    def add(P: tuple[int, int], Q: tuple[int, int], R: tuple[int, int]) -> tuple[int, int]:
        # P + Q from P, Q and R = P - Q
        a, b = (P[0] - P[1]) * (Q[0] + Q[1]), (P[0] + P[1]) * (Q[0] - Q[1])
        return R[1] * (a + b) ** 2 % n, R[0] * (a - b) ** 2 % n

    def ladder(k: int, x: int) -> tuple[int, int]:
        # k (x : 1) as (X1 : Z1), with (X2 : Z2) one multiple ahead; double
        # and add are written out, as this loop is most of a curve's time
        X1, Z1 = x, 1
        X2, Z2 = double(x, 1)
        for bit in bin(k)[3:]:
            a, b = (X1 - Z1) * (X2 + Z2), (X1 + Z1) * (X2 - Z2)
            if bit == "1":
                X1, Z1 = (a + b) ** 2 % n, x * (a - b) ** 2 % n
                s, d = (X2 + Z2) ** 2 % n, (X2 - Z2) ** 2 % n
                X2, Z2 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
            else:
                X2, Z2 = (a + b) ** 2 % n, x * (a - b) ** 2 % n
                s, d = (X1 + Z1) ** 2 % n, (X1 - Z1) ** 2 % n
                X1, Z1 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
        return X1, Z1

    X, Z = ladder(exponent, u3 * inverse * den % n)  # P = (u^3 / v^3 : 1)
    g = gcd(Z, n)
    if g != 1:
        return g
    q = (X * pow(Z, -1, n) % n, 1)  # Q, affine
    # baby steps: jQ for odd j, as (j - 2)Q + 2Q with difference (j - 4)Q
    # (x(-Q) = x(Q)), kept only for the j coprime to D that the pairs use
    two, back, last = double(*q), q, q
    units, points = [1], [q]
    for j in range(3, top + 1, 2):
        back, last = last, add(last, two, back)
        if gcd(j, _PM1_D) == 1:
            units.append(j)
            points.append(last)
    # x_j = X_j / Z_j with one inverse of the product of the Z_j; Q is affine already
    partial = list(accumulate((Z for _, Z in points), lambda c, z: c * z % n))
    g = gcd(partial[-1], n)
    if g != 1:
        return g
    inverse = pow(partial[-1], -1, n)
    xj = [0] * (top + 1)
    xj[1] = q[0]
    for i in range(len(units) - 1, 0, -1):
        X, Z = points[i]
        xj[units[i]], inverse = X * inverse * partial[i - 1] % n, inverse * Z % n
    # giant steps: (k + 1)DQ = kDQ + DQ with difference (k - 1)DQ
    dq = ladder(_PM1_D, q[0])
    here, ahead = dq, double(*dq)  # kDQ and (k + 1)DQ at k = 1
    acc = 1
    for js in ((),) * (first - 1) + rows:  # rows[0] is k = first
        X, Z = here
        for j in js:
            acc = acc * (X - xj[j] * Z) % n
        here, ahead = ahead, add(ahead, dq, here)
    return gcd(acc, n)


def _ecm(n: int, budget: list[int]) -> int:
    """A nontrivial factor of n, which is coprime to 6, by Lenstra's
    elliptic-curve method: _ecm_curve for sigma = 6 + (n mod 2^32) and up,
    one curve after another, until one gives a gcd other than 1 and n. So
    every run tries the same curves. Each curve charges _ECM_CURVE steps to
    budget before it starts, and the budget is the only bound on the curves.
    """
    sigma = 6 + n % (1 << 32)
    while True:
        budget[0] -= _ECM_CURVE
        if budget[0] <= 0:
            raise _BudgetExhausted
        g = _ecm_curve(n, sigma)
        if 1 < g < n:
            return g
        sigma += 1


# The known-prime memo keeps primes of at most _KNOWN_BITS bits, and at most
# _KNOWN_MAX of them, so the product rho takes a gcd with stays under 2^22 bits
_KNOWN_BITS = 64
_KNOWN_MAX = 1 << 16


class _KnownPrimes:
    """The primes above the trial bound that a run's completed
    factorizations have proved, those of at most _KNOWN_BITS bits.

    learn() records primes; a memo that would pass _KNOWN_MAX primes starts
    over empty. divisor() is rho's one look at the memo: it multiplies the
    primes learned since its last call into the product, then takes one gcd
    of n with it. A lock makes both safe for threads that share the memo.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._primes: set[int] = set()
        self._new: list[int] = []  # learned, not yet in _product
        self._product = 1

    def learn(self, primes: Iterable[int]) -> None:
        with self._lock:
            for p in primes:
                if p in self._primes or p.bit_length() > _KNOWN_BITS:
                    continue
                if len(self._primes) >= _KNOWN_MAX:
                    self._primes, self._new, self._product = set(), [], 1
                self._primes.add(p)
                self._new.append(p)

    def divisor(self, n: int) -> int:
        """A nontrivial factor of composite n from the memo, or 0: the gcd
        of n and the product when it is a proper factor, and n's least
        memo prime when n divides the product."""
        with self._lock:
            if self._new:
                self._product *= prod(self._new)
                self._new = []
            product = self._product
        g = gcd(n, product)
        if g == n:
            with self._lock:
                known = tuple(self._primes)
            return min((p for p in known if n % p == 0), default=0)
        return g if g > 1 else 0


def _brent_rho(n: int, budget: list[int], known: _KnownPrimes) -> int:
    """A nontrivial factor of odd composite n, Brent's cycle variant, with
    the known-prime check and the p - 1 attempt at its first checkpoint and
    ECM at its second.

    Rho charges budget one step for each pass of the accumulating loop,
    which applies f(y) = y^2 + c and multiplies x - y into q; the advance
    of y at the start of each round and the backtrack after a gcd of n are
    not charged. A checkpoint comes before the first round that would take
    the charge on n, the p - 1 attempt's included, past its constant. The
    first, _RHO_FIRST, comes for c = 1 after the rounds up to r = 512, 1023
    steps; when neither the memo nor the attempt finds a factor, the walk
    goes on where it stopped. The second, _ECM_FROM, comes after the round
    r = 1024, 14,585 steps with the attempt's; there rho hands n to _ecm
    and does not resume.
    """
    start = budget[0]
    pm1 = True  # the memo check and the p - 1 attempt are still to make
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            if pm1 and start - budget[0] + r > _RHO_FIRST:
                pm1 = False
                d = known.divisor(n) or _pollard_pm1(n, budget)
                if d:
                    return d
            if start - budget[0] + r > _ECM_FROM:
                return _ecm(n, budget)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                step = min(128, r - k)
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # a sign flip of q leaves gcd(q, n) alone
                budget[0] -= step
                if budget[0] <= 0:
                    raise _BudgetExhausted
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        c += 1  # degenerate cycle, retry with the next shift


def factorize(n: int) -> Factorization:
    """Fully factor n >= 2 under the run's trial bound, rho budget, cache
    and known-prime memo. Raises IncompleteFactorizationError, carrying the
    partial result, when the budget runs out.

    Trial division takes out the primes up to the trial bound. What is left
    is split depth first, a factor d before its cofactor: a prime is
    counted, a square is peeled, and any other composite goes to Brent's
    rho. The budget is one count of steps for the whole factorization. Rho
    charges it one step per pass of its accumulating loop. Before the round
    that would take its charge on a number past 1023 steps, rho takes one
    uncharged gcd with the product of the primes in the memo, and failing
    that makes one Pollard p - 1 attempt: stage 1 from base 3, and again
    from base 2 when base 3 gives the gcd of the whole number, then
    Montgomery's paired stage 2. The attempt charges 12,538 steps before it
    starts, whichever bases it runs. Before the round that would take the
    charge on the number past 16,384 steps, the attempt's included, rho
    hands it to elliptic curves on the attempt's tables (B1 = 2000, B2 =
    50,000), which charge 25,000 steps each before they start and run until
    one splits it or the budget runs out.

    The memo holds the primes of at most 64 bits, above the trial bound,
    that the run's completed factorizations proved. use_config starts an
    empty one, and outside any block one memo serves the process. It moves
    only cost: a completed factorization is the same with or without it.
    """
    if n < 2:
        raise DomainError("factorization needs n >= 2")
    config, cache, known = _RUN.get()
    if cache is not None:
        hit = cache.get(n)
        if hit is not None:
            return hit

    counts: dict[int, int] = {}
    m = n
    for product, block in _trial_blocks(max(config.trial_bound, 3)):
        if block[0] * block[0] > m:
            break
        g = gcd(m, product)  # the block's primes that divide m, once each
        for p in block:
            if g == 1 or p * p > m:
                break
            if g % p == 0:
                g //= p
                while m % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    m //= p
    if m > 1:
        budget, stack = [config.rho_budget], [m]
        try:
            while stack:
                m = stack.pop()
                if check_prime(m).value:
                    counts[m] = counts.get(m, 0) + 1
                    continue
                root = isqrt(m)
                if root * root == m:  # rho converges slowly on squares, peel them directly
                    stack += (root, root)
                    continue
                d = _brent_rho(m, budget, known)
                stack += (m // d, d)
        except _BudgetExhausted:
            done = prod(p**e for p, e in counts.items())
            raise IncompleteFactorizationError(n, counts, n // done) from None
        known.learn(p for p in counts if p > config.trial_bound)
    result = Factorization(n, tuple(sorted(counts.items())))
    if cache is not None:
        cache.put(result)
    return result


def euler_phi(f: Factorization) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in f.factors)


def cyclotomic_terms(n: int, primes: Iterable[int]) -> list[tuple[int, int]]:
    """(n // d, mu(d)) for every squarefree divisor d of n, given n's
    primes: Phi_n(a) = prod over them of (a^(n // d) - 1)^mu(d)."""
    terms = [(n, 1)]
    for p in primes:
        terms += [(e // p, -s) for e, s in terms]
    return terms


def cyclotomic_value(a: int, terms: Iterable[tuple[int, int]]) -> int:
    """The exact quotient prod (a^e - 1)^sign over terms, such as
    cyclotomic_terms(n, primes) for Phi_n(a); a remainder raises."""
    num = den = 1
    for e, sign in terms:
        if sign > 0:
            num *= a**e - 1
        else:
            den *= a**e - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"the denominator does not divide the numerator at base {a}")
    return value


def order_descent(a: int, p: int, primes: tuple[int, ...]) -> int:
    """Order of a modulo the prime p, by descent from p - 1 over its primes."""
    h = p - 1
    for q in primes:
        while h % q == 0 and pow(a, h // q, p) == 1:
            h //= q
    return h


@lru_cache(maxsize=1 << 16)
def order_tower(a: int, p: int, l: int) -> tuple[int, ...]:
    """Orders of a modulo p, p^2, ..., p^l.

    The order mod p descends from p - 1 over its primes; each lift either
    keeps the order or multiplies it by p, decided by one modular power.
    Requires p prime, p not dividing a. The memo is emptied as a use_config
    block opens and closes, so no order outlives the settings it ran under.
    """
    orders = [order_descent(a, p, factorize(p - 1).primes) if p > 2 else 1]
    pk = p
    for _ in range(l - 1):
        pk *= p
        h = orders[-1]
        if pow(a, h, pk) != 1:
            h *= p
        orders.append(h)
    return tuple(orders)


def require_base(a: int) -> None:
    """The one guard on a base that every entry taking one shares."""
    if a < 2:
        raise DomainError("base must be at least 2")


def mult_order(a: int, n: int, *, factorization: Factorization | None = None) -> int:
    """The multiplicative order of a modulo n: the least h > 0 with a^h = 1 mod n."""
    require_base(a)
    if n < 2:
        raise DomainError("modulus must be at least 2")
    if gcd(a, n) != 1:
        raise DomainError(f"order undefined: gcd({a}, modulus) > 1")
    f = factorize(n) if factorization is None else require_subject(factorization, n)
    return lcm(*(h for _, _, h in prime_power_orders(a, f)))


def require_subject(f: Factorization, n: int) -> Factorization:
    """f itself, once it is checked to factor n; a caller's mismatch raises."""
    if f.subject != n:
        raise DomainError(f"the factorization supplied is of {f.subject}, not {n}")
    return f


def prime_power_orders(
    a: int, f: Factorization
) -> tuple[tuple[int, int, int], ...]:
    """(p, j, order of a mod p^j) for every prime power p^j dividing f.subject."""
    out = []
    for p, e in f.factors:
        tower = order_tower(a, p, e)
        out.extend((p, j, tower[j - 1]) for j in range(1, e + 1))
    return tuple(out)


class FactorizationCache:
    """Line-oriented factor table: each record is "n p1^e1 p2^e2 ...".

    Records loaded from disk are re-validated (recomposition and primality);
    malformed or wrong lines are skipped with a warning. The table keeps
    each Factorization as it was checked when loaded or put, and get()
    returns it. put() appends under a lock so concurrent writers interleave
    whole lines. A file that cannot be read or written costs a warning,
    never an error: the cache goes on in memory only.
    """

    def __init__(self, path: str | None = None):
        self._table: dict[int, Factorization] = {}
        self._lock = threading.Lock()
        self._path = path
        if path is not None:
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path, encoding="ascii") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        except (OSError, UnicodeDecodeError) as exc:
            warnings.warn(f"ignoring cache file {path}: {exc}")
            self._path = None
            return
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            f = self._parse(line)
            if f is None:
                warnings.warn(f"{path}:{lineno}: skipping bad cache record")
                continue
            self._table[f.subject] = f

    @staticmethod
    def _parse(line: str) -> Factorization | None:
        fields = line.split()
        if len(fields) < 2:
            return None
        try:
            n = int(fields[0])
            pairs = []
            for field in fields[1:]:
                p, _, e = field.partition("^")
                pairs.append((int(p), int(e) if e else 1))
            f = Factorization(n, tuple(sorted(pairs)))
        except (ValueError, DomainError):
            return None
        if not all(check_prime(p).value for p in f.primes):
            return None
        return f

    def get(self, n: int) -> Factorization | None:
        return self._table.get(n)

    def put(self, f: Factorization) -> None:
        with self._lock:
            if f.subject in self._table:
                return
            self._table[f.subject] = f
            if self._path is not None:
                record = f"{f.subject} {format_powers(f.factors, ' ')}"
                try:
                    with open(self._path, "a", encoding="ascii") as fh:
                        fh.write(record + "\n")
                except OSError as exc:
                    warnings.warn(f"not writing cache file {self._path}: {exc}")
                    self._path = None

    def __len__(self) -> int:
        return len(self._table)


class _Run(NamedTuple):
    config: Config
    cache: FactorizationCache | None
    known: _KnownPrimes


_RUN: ContextVar[_Run] = ContextVar(
    "primover_run", default=_Run(Config(), None, _KnownPrimes())
)


@contextmanager
def use_config(config: Config) -> Iterator[None]:
    """Run the block under config, with the cache opened from its cache_path
    and an empty known-prime memo.

    Every setting reaches every call made inside the block, including the
    factorizations hidden under order computations, whose memo is emptied
    on entry and on exit. Blocks nest, and the previous settings and memo
    return on exit.
    """
    cache = FactorizationCache(config.cache_path) if config.cache_path else None
    token = _RUN.set(_Run(config, cache, _KnownPrimes()))
    order_tower.cache_clear()
    try:
        yield
    finally:
        order_tower.cache_clear()
        _RUN.reset(token)


def settings() -> Config:
    """The Config of the innermost use_config block, or the defaults."""
    return _RUN.get().config
