"""Seeded input generators for the three workloads.

Each generator returns the ops the program receives, plus, for classify-mix,
what the generator knows about each subject. The program sees only the ops.
"""
from __future__ import annotations

import random
from array import array
from math import isqrt, prod

from oracle import COSET_CEILING, factor, is_prime, primes_upto, random_prime

# --- classify-mix ------------------------------------------------------------

CLASSIFY_BASES = (2, 3, 5, 7)
# One round of subjects; shuffled per round, so every stretch of the stream
# has the same mix and a run's p99 does not hinge on how many slow kinds it drew.
ROUND = ("semiprime",) * 6 + ("overpseudoprime",) * 4 + ("small",) * 6 + ("prime",) * 4
# One semiprime of each size per round. Fixed sizes keep the slowest 1% of
# ops (the 64-bit semiprimes) one homogeneous group, so p99 varies with the
# luck of rho, not with how many near-64-bit sizes a run happened to draw.
SEMIPRIME_BITS = (32, 38, 45, 51, 58, 64)
PRIME_BITS = (64, 256)
REUSE_SHARE = 0.3  # of semiprimes: one factor is a prime an earlier subject used
SMALL_OVER_SHARE = 0.25  # of small subjects: an overpseudoprime below the ceiling
ORDER_POOL_LIMIT = 1 << 18
TRIAL_BOUND = 10_000  # the program's default trial-division bound


def order_classes(a: int) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Primes below ORDER_POOL_LIMIT grouped by the order a has modulo them.

    Returns the classes holding two or more primes (any product of distinct
    primes from one class is an overpseudoprime to base a), and the
    two-prime products from those classes at or below the coset ceiling.
    """
    limit = ORDER_POOL_LIMIT
    spf = array("I", range(limit + 1))
    for q in reversed(primes_upto(isqrt(limit))):
        spf[q * q :: q] = array("I", [q]) * len(range(q * q, limit + 1, q))
    classes: dict[int, list[int]] = {}
    for p in range(3, limit + 1, 2):
        if spf[p] != p or a % p == 0:
            continue
        h, m = p - 1, p - 1
        while m > 1:
            q = spf[m]
            while m % q == 0:
                m //= q
            while h % q == 0 and pow(a, h // q, p) == 1:
                h //= q
        classes.setdefault(h, []).append(p)
    groups = [classes[h] for h in sorted(classes) if len(classes[h]) > 1]
    small = []
    for primes in groups:
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                if p * q > COSET_CEILING:
                    break
                small.append((p, q))
    return groups, small


def _subject(a: int, kind: str, factors: dict[int, int]) -> tuple[list[int], dict]:
    n = prod(p**e for p, e in factors.items())
    truth = {"kind": kind, "factors": sorted(factors.items())}
    return [a, n], truth


def classify_mix(seed: int, rounds: int) -> tuple[list[list[int]], list[dict]]:
    rng = random.Random(seed)
    pools = {a: order_classes(a) for a in CLASSIFY_BASES}
    used = {a: [] for a in CLASSIFY_BASES}  # semiprime factors per base
    ops, truths = [], []
    for _ in range(rounds):
        kinds = list(ROUND)
        rng.shuffle(kinds)
        sizes = list(SEMIPRIME_BITS)
        rng.shuffle(sizes)
        for kind in kinds:
            a = rng.choice(CLASSIFY_BASES)
            if kind == "prime":
                n = random_prime(rng, rng.randint(*PRIME_BITS))
                op, truth = [a, n], {"kind": "prime"}
            elif kind == "semiprime":
                bits = sizes.pop()
                if used[a] and rng.random() < REUSE_SHARE:
                    p = rng.choice(used[a])
                    q_bits = min(max(bits - p.bit_length(), 16), 32)
                else:
                    p = random_prime(rng, bits // 2)
                    q_bits = bits - bits // 2
                q = p
                while q == p:
                    q = random_prime(rng, q_bits)
                used[a] += [p, q]
                op, truth = _subject(a, kind, {p: 1, q: 1})
            elif kind == "overpseudoprime":
                groups = pools[a][0]
                primes = groups[rng.randrange(len(groups))]
                k = 3 if len(primes) > 2 and rng.random() < 0.3 else 2
                op, truth = _subject(a, kind, dict.fromkeys(rng.sample(primes, k), 1))
            else:
                small = pools[a][1]
                if rng.random() < SMALL_OVER_SHARE:
                    p, q = small[rng.randrange(len(small))]
                    op, truth = _subject(a, "overpseudoprime", {p: 1, q: 1})
                else:
                    while True:
                        n = rng.randrange(9, COSET_CEILING, 2)
                        if n % a and not is_prime(n):
                            break
                    op, truth = _subject(a, kind, factor(n))
            ops.append(op)
            truths.append(truth)
    return ops, truths


def input_properties(ops: list[list[int]], truths: list[dict]) -> dict[str, float]:
    """Shares of the executed classify-mix subjects with the properties the
    program's caches and cross-check depend on."""
    seen: set[tuple[int, int]] = set()
    reuse = reuse_big = 0
    for (a, _), truth in zip(ops, truths):
        primes = [p for p, _ in truth.get("factors", ())]
        hits = [p for p in primes if (a, p) in seen]
        reuse += bool(hits)
        reuse_big += any(p > TRIAL_BOUND for p in hits)
        seen.update((a, p) for p in primes)
    count = max(len(ops), 1)
    return {
        "reuse_prime_share": reuse / count,
        "reuse_prime_above_trial_bound_share": reuse_big / count,
        "at_or_below_coset_ceiling_share": sum(n <= COSET_CEILING for _, n in ops) / count,
    }


# --- cofactor-sweep ----------------------------------------------------------

COFACTOR_BASES = (2, 3, 5, 6, 10)
COFACTOR_BITS = 400
# Pairs of the domain that the workload leaves out: at the commit that
# defined the benchmark each took 0.25 s or more, one after another in one
# process on a 2-vCPU host, and 158 of these 235 had no answer after 4 s.
# A workload must have no failing op, and an op near the 1 s deadline fails
# or not with the host's speed at the time.
HARD_PAIRS = {
    2: {
        125, 169, 185, 205, 206, 207, 209, 213, 215, 217, 219, 220, 235, 237,
        243, 244, 247, 253, 256, 265, 267, 272, 273, 274, 275, 276, 279, 284,
        285, 287, 288, 289, 292, 295, 299, 301, 302, 303, 304, 305, 306, 309,
        310, 314, 316, 319, 321, 323, 325, 326, 327, 328, 332, 333, 338, 339,
        341, 342, 343, 344, 346, 351, 352, 354, 355, 356, 357, 358, 360, 361,
        363, 364, 365, 368, 369, 371, 372, 376, 377, 378, 380, 381, 385, 386,
        387, 388, 391, 392, 393, 394, 395, 396,
    },
    3: {
        85, 115, 119, 121, 123, 125, 133, 136, 141, 153, 155, 158, 159, 169,
        175, 176, 177, 182, 183, 185, 187, 188, 189, 195, 196, 203, 205, 207,
        209, 213, 215, 217, 218, 221, 225, 226, 231, 235, 237, 243, 244, 245,
        246, 247, 248, 249, 252,
    },
    5: {
        65, 69, 77, 85, 87, 91, 94, 95, 99, 104, 105, 111, 118, 119, 122, 123,
        124, 125, 129, 130, 133, 135, 136, 142, 143, 145, 146, 147, 152, 153,
        154, 155, 158, 159, 164, 165, 166, 169, 171, 172,
    },
    6: {
        49, 74, 76, 77, 87, 91, 93, 95, 98, 99, 106, 111, 115, 116, 117, 119,
        121, 123, 125, 128, 129, 133, 134, 135, 136, 138, 140, 141, 142, 143,
        145, 148, 152, 153,
    },
    10: {
        65, 69, 74, 76, 81, 82, 85, 91, 92, 94, 95, 100, 102, 105, 111, 112,
        114, 115, 116, 117, 118, 119,
    },
}


def cofactor_domain() -> list[list[int]]:
    """Every composite-exponent pair with a^n <= 2^COFACTOR_BITS but the
    hard ones, in (base, n) order: 621 pairs."""
    pairs = []
    for a in COFACTOR_BASES:
        n = 4
        while a**n <= 1 << COFACTOR_BITS:
            if not is_prime(n) and n not in HARD_PAIRS[a]:
                pairs.append([a, n])
            n += 1
    return pairs


def cofactor_sweep(seed: int, passes: int) -> list[list[list[int]]]:
    """The fixed pair set in a new seeded order for each pass."""
    rng = random.Random(seed)
    domain = cofactor_domain()
    out = []
    for _ in range(passes):
        rng.shuffle(domain)
        out.append(list(domain))
    return out


# --- range -------------------------------------------------------------------

RANGE_BASES = (2, 3, 5, 7)
RANGE_BOUND = 1 << 20
PROBE_BOUND = 1 << 19


def range_ops(seed: int, count: int) -> list[list[int]]:
    """(base, bound) pairs; every four consecutive ops use each base once."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < count:
        bases = list(RANGE_BASES)
        rng.shuffle(bases)
        ops += [[a, RANGE_BOUND] for a in bases]
    return ops[:count]


def probe_ops(seed: int) -> list[list[int]]:
    """Two scans and censuses to PROBE_BOUND per base, in a seeded order;
    each half of the list uses every base once."""
    return [[a, PROBE_BOUND] for a, _ in range_ops(seed, 2 * len(RANGE_BASES))]
