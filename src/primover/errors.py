"""Exception types shared across the package, and the p^e notation their
messages share with factorizations.

DomainError signals a violated precondition on the mathematical inputs.
ResourceError signals a computation that refused to proceed because a
configured budget or ceiling would be exceeded; the work itself is well
defined, just too large for the current settings.
"""
from __future__ import annotations

from typing import Iterable


def format_powers(factors: Iterable[tuple[int, int]], sep: str = " * ") -> str:
    """(p, e) pairs as p^e joined by sep, an exponent of 1 left off."""
    return sep.join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


class DomainError(ValueError):
    """An argument is outside the domain of the requested operation."""


class ResourceError(RuntimeError):
    """A configured budget, ceiling, or cap stopped the computation."""


class EnumerationCeilingError(ResourceError):
    """A full residue enumeration was requested above the configured ceiling."""


class TooManyDivisorsError(ResourceError):
    """A divisor listing would exceed the caller's cap."""


class IncompleteFactorizationError(ResourceError):
    """Factoring ran out of budget; carries whatever was pulled out so far.

    ``partial`` maps primes to exponents for the part that did factor and
    ``remainder`` is the cofactor left unfactored (composite, > 1).
    """

    def __init__(self, subject: int, partial: dict[int, int], remainder: int):
        self.subject = subject
        self.partial = dict(partial)
        self.remainder = remainder
        done = format_powers(sorted(partial.items()))
        msg = f"factorization budget exhausted for {subject}"
        if done:
            msg += f" (found {done}, remainder {remainder})"
        super().__init__(msg)
