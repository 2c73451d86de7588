"""Cyclotomic cosets: orbits of multiplication by a on residues mod n.

For odd n coprime to a, multiplication by a permutes {1, ..., n-1}; the
orbits are the cyclotomic cosets of a modulo n. Their count r and the
multiplicative order h of a mod n drive the overpseudoprime test
n == r * h + 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from primover.arith import (
    Factorization,
    factorize,
    order_tower,
    require_base,
    require_subject,
    settings,
)
from primover.errors import DomainError, EnumerationCeilingError


def _require_args(a: int, n: int) -> None:
    require_base(a)
    if n <= 1:
        raise DomainError("modulus must exceed 1")
    if n % 2 == 0:
        raise DomainError("modulus must be odd")
    if gcd(a, n) != 1:
        raise DomainError(f"base {a} and modulus {n} must be coprime")
    ceiling = settings().coset_ceiling
    if n > ceiling:
        raise EnumerationCeilingError(
            f"modulus {n} is above the enumeration ceiling {ceiling}; "
            "large subjects should go through the order criterion"
        )


@dataclass(frozen=True)
class CosetDecomposition:
    base: int
    modulus: int
    cosets: tuple[tuple[int, ...], ...]
    r: int  # number of cosets
    h: int  # lcm of coset sizes == multiplicative order of base


def decompose(a: int, n: int) -> CosetDecomposition:
    """Enumerate every coset, each listed from its least element.

    Residues sharing a factor with n are included (their orbits are the
    cosets of a modulo the complementary divisor, scaled), so the cosets
    partition {1, ..., n-1} and the sizes sum to n - 1. Cost is linear in n;
    above the run's coset_ceiling it raises instead.
    """
    _require_args(a, n)
    a %= n
    seen = bytearray(n)
    cosets = []
    h = 1
    for s in range(1, n):
        if seen[s]:
            continue
        orbit = [s]
        seen[s] = 1
        x = s * a % n
        while x != s:
            orbit.append(x)
            seen[x] = 1
            x = x * a % n
        cosets.append(tuple(orbit))
        h = lcm(h, len(orbit))
    return CosetDecomposition(a, n, tuple(cosets), len(cosets), h)


def divisor_order_profile(
    a: int, f: Factorization
) -> list[tuple[int, int, int]]:
    """(d, phi(d), order of a mod d) for every divisor d of f.subject.

    Built multiplicatively across prime powers: phi multiplies, orders
    combine by lcm.
    """
    items = [(1, 1, 1)]
    for p, e in f.factors:
        tower = order_tower(a, p, e)
        grown = []
        for d, phi_d, h_d in items:
            grown.append((d, phi_d, h_d))
            pk = 1
            for j in range(1, e + 1):
                pk *= p
                grown.append((d * pk, phi_d * (pk - pk // p), lcm(h_d, tower[j - 1])))
        items = grown
    return items


def coset_count(
    a: int, n: int, *, factorization: Factorization | None = None
) -> int:
    """Number of cyclotomic cosets of a mod n, without enumerating them.

    A residue s with gcd(s, n) = n/d orbits with period equal to the order
    of a mod d, and exactly phi(d) residues share that gcd, so

        r = sum over divisors d > 1 of n of phi(d) / order_a(d).

    Each term divides exactly because the order divides phi. The sum runs
    off the factorization of n, but the count keeps decompose's ceiling
    contract anyway: the definitional route is reserved for moduli small
    enough to enumerate, larger ones should go through the order criterion.
    """
    _require_args(a, n)
    f = factorize(n) if factorization is None else require_subject(factorization, n)
    total = 0
    for d, phi_d, h_d in divisor_order_profile(a, f):
        if d == 1:
            continue
        total += phi_d // h_d
    return total
