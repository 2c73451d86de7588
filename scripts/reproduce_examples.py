#!/usr/bin/env python3
"""Walk the named constructions and verify their classifications and ordinals.

Runs every worked example the library advertises: the Fermat number
4294967297, the two-prime cofactors at (5,7) and the sharing witness (3,7),
the prime-power cofactor at 5^2, the mixed cofactor at 3^2*5, and the
primitive cofactor of 2^70-1. For the primover outcomes it also locates the
value in the ordered list of strong pseudoprimes to base 2.

The Fermat ordinal (position 2315, an enumeration to 4.3e9 that takes
1.3-1.8 s on one core or two) only runs with --deep; it reports its walk on
stderr.
Exits 1 if any ordinal differs from the expected one, 0 otherwise.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from primover.classification import strong_pseudoprime_ordinal
from primover.construct import (
    primitive_cofactor,
    prime_power_cofactor,
    two_prime_cofactor,
    verify_generalized_fermat,
)


def show(label, verdict, expect_ordinal=None, workers=1, deep_progress=False):
    """Print one example; return False when its ordinal is not the expected one."""
    value = verdict.product.value
    cls = verdict.classification
    print(f"{label}")
    print(f"  value     : {value}")
    if cls.evidence.factorization is not None:
        print(f"  factors   : {cls.evidence.factorization}")
    print(f"  coprime   : {'yes' if verdict.coprimality_holds else 'no'}")
    print(f"  status    : {cls.status.value}{' (primover)' if cls.primover else ''}")
    if cls.evidence.orders:
        orders = ", ".join(f"{p}^{j}:{h}" for p, j, h in cls.evidence.orders)
        print(f"  orders    : {orders}")
    if expect_ordinal is not None:
        progress = None
        if deep_progress:
            def progress(done, total):
                print(f"    walked {done:,} / {total:,}", file=sys.stderr)
        t0 = time.perf_counter()
        k = strong_pseudoprime_ordinal(2, value, workers=workers, progress=progress)
        dt = time.perf_counter() - t0
        flag = "ok" if k == expect_ordinal else f"MISMATCH, expected {expect_ordinal}"
        print(f"  ordinal   : strong pseudoprime #{k} to base 2 ({dt:.1f}s) [{flag}]")
    print()
    return expect_ordinal is None or k == expect_ordinal


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--deep", action="store_true", help="include the 4.3e9 ordinal")
    ap.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1))
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    ok = [
        show(
            "Fermat number 2^(2^5)+1 = 4294967297",
            verify_generalized_fermat(2, 6),
            expect_ordinal=2315 if args.deep else None,
            workers=args.workers,
            deep_progress=args.deep,
        ),
        show("two-prime cofactor, exponent 35 = 5*7", two_prime_cofactor(2, 5, 7),
             expect_ordinal=150, workers=args.workers),
        show("prime-power cofactor, exponent 25 = 5^2", prime_power_cofactor(2, 5, 2),
             expect_ordinal=50, workers=args.workers),
        show("primitive cofactor, exponent 70 = 2*5*7", primitive_cofactor(2, 70),
             expect_ordinal=254, workers=args.workers),
        show("sharing witness, exponent 21 = 3*7", two_prime_cofactor(2, 3, 7)),
    ]
    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
