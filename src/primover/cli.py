"""Command line front end: a thin shell over the library.

One verb per invocation; every verb can emit a human-readable text report
or a single JSON document (--format json) whose "result" is the fields of
the verb's result record. Numbers are accepted in decimal or as the
expressions a^n-1 / a^n+1; `classify` passes a subject written a^n+1, a the
--base, the order hint 2n. The run's Config is built once, from the
settings file and environment with the flags that override a setting
(--cache, --ceiling, --workers) replaced in, and every library call in the
verb reads it through arith.settings(); no handler passes a setting on.
`ordinal` refuses a subject above _DEEP_BOUND unless --deep is given. Exit
codes: 0 success, 1 domain or usage error, 2 resource limit (factoring
budget, enumeration ceiling).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from time import perf_counter
from typing import Callable

from primover import arith, construct
from primover.classification import (
    Classification,
    classify as classify_subject,
    scan as scan_range,
    strong_pseudoprime_ordinal,
)
from primover.config import ENV_PREFIX, Config, load_config
from primover.cosets import decompose
from primover.errors import DomainError, ResourceError

_EXPRESSION = re.compile(r"^(\d+)\^(\d+)([+-]1)$")

# construct kind -> (help, positionals, constructor taking the base first)
_KINDS = {
    "fermat": ("a^(2^(n-1)) + 1, even a", ["n"], construct.verify_generalized_fermat),
    "two-prime": (
        "(a-1)(a^pq-1) / ((a^p-1)(a^q-1))",
        ["p", "q"],
        construct.two_prime_cofactor,
    ),
    "prime-power": (
        "(a^(p^m)-1) / (a^(p^(m-1))-1), m >= 2",
        ["p", "m"],
        construct.prime_power_cofactor,
    ),
    "two-prime-power": (
        "cofactor at exponent p^alpha * q^beta",
        ["p", "alpha", "q", "beta"],
        construct.two_prime_power_cofactor,
    ),
}

# flag -> the Config field it overrides for this run
_SETTING_FLAGS = {"cache": "cache_path", "ceiling": "coset_ceiling", "workers": "workers"}

# ordinal needs --deep above this subject; `primover ordinal 999828727`
# (#1282) takes 0.75-0.85 s on one core of a 2-core Xeon
_DEEP_BOUND = 10**9


def parse_number(text: str) -> int:
    """Decimal literal, or the forms a^n-1 / a^n+1. Nothing more general."""
    text = text.strip()
    m = _EXPRESSION.match(text)
    if m:
        a, n, tail = int(m.group(1)), int(m.group(2)), m.group(3)
        return a**n + (1 if tail == "+1" else -1)
    if text.isdigit():
        return int(text)
    raise ValueError(f"not a number or a^n±1 expression: {text!r}")


class _Subject(argparse.Action):
    """Stores the subject's value, and as plus_one the (b, m) of a subject
    written b^m+1 (None otherwise), from which classify takes its hint."""

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            namespace.subject = parse_number(text)
        except ValueError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        m = _EXPRESSION.match(text.strip())
        plus_one = m is not None and m.group(3) == "+1"
        namespace.plus_one = (int(m.group(1)), int(m.group(2))) if plus_one else None


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        self.parser = parser
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here wants 1,
    # so route errors through an exception main() can catch
    def error(self, message: str):  # type: ignore[override]
        raise _UsageError(self, message)


def _number(text: str) -> int:
    try:
        return parse_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primover",
        description="Classify integers as prime / overpseudoprime / primover "
        "to a base, and build primover divisors of a^n - 1.",
        epilog="Settings come from --config / PRIMOVER_CONFIG (JSON) with "
        f"{ENV_PREFIX}<FIELD> environment overrides; defaults: "
        f"{Config().describe()}.",
    )
    parser.add_argument("--config", help="path to a JSON settings file")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output style (default text)",
    )
    parser.add_argument("--cache", help="factorization cache file")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb: str, help_text: str, base: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=help_text)
        if base:
            p.add_argument("--base", type=_number, default=2, help="the base a (default 2)")
        return p

    p = add("classify", "full primover classification of N")
    p.add_argument("subject", action=_Subject)

    p = add("cosets", "cyclotomic coset decomposition of a mod n")
    p.add_argument("modulus", type=_number)
    p.add_argument("--ceiling", type=int, help="enumeration ceiling override")

    p = add("cofactor", "primitive primover cofactor of a^n - 1 (composite n)")
    p.add_argument("exponent", type=_number)

    p = add("construct", "named cofactor constructions", base=False)
    kind = p.add_subparsers(dest="kind", required=True)
    for name, (help_text, positionals, _) in _KINDS.items():
        k = kind.add_parser(name, help=help_text)
        k.add_argument("--base", type=_number, default=2, help="the base a (default 2)")
        for arg in positionals:
            k.add_argument(arg, type=_number)

    p = add("ordinal", "position of N among strong pseudoprimes to the base")
    p.add_argument("subject", type=_number)
    deep_help = "allow subjects above 10^9; report the walk on stderr"
    p.add_argument("--deep", action="store_true", help=deep_help)
    p.add_argument("--workers", type=int, help="worker processes for the walk")

    p = add("scan", "census of pseudoprimes and primovers up to a bound")
    p.add_argument("bound", type=_number)
    p.add_argument("--workers", type=int, help="worker processes for the walk")

    p = add("identity", "signed exponent sum against phi(n)", base=False)
    p.add_argument("n", type=_number)

    p = add("bound", "primitive cofactor size report at exponent n")
    p.add_argument("n", type=_number)

    return parser


# --- payload builders -----------------------------------------------------


def _classification_payload(c: Classification) -> dict:
    ev = c.evidence
    return {
        "subject": c.subject,
        "base": c.base,
        "status": c.status.value,
        "primover": c.primover,
        "evidence": {
            "r": ev.r,
            "h": ev.h,
            "factorization": None if ev.factorization is None else ev.factorization.factors,
            "orders": ev.orders or None,
            "reason": ev.reason,
        },
    }


def _classification_lines(c: Classification) -> list[str]:
    tag = " (primover)" if c.primover else ""
    lines = [f"{c.subject} to base {c.base}: {c.status.value}{tag}"]
    ev = c.evidence
    if ev.factorization is not None:
        lines.append(f"  factors: {ev.factorization}")
    if ev.orders:
        shown = ", ".join(f"ord mod {p}^{j} = {h}" for p, j, h in ev.orders)
        lines.append(f"  {shown}")
    if ev.r is not None and ev.h is not None:
        lines.append(f"  r = {ev.r}, h = {ev.h}, r*h + 1 = {ev.r * ev.h + 1}")
    if ev.reason:
        lines.append(f"  reason: {ev.reason}")
    return lines


def _product_text(p: construct.CofactorProduct) -> str:
    num = " ".join(f"({p.base}^{e}-1)" for e, s in p.terms if s == 1)
    den = " ".join(f"({p.base}^{e}-1)" for e, s in p.terms if s == -1)
    return f"{num} / {den}" if den else num


def _verdict_report(v: construct.ConstructionVerdict):
    p, c = v.product, v.classification
    payload = {
        "product": vars(p),
        "coprimality_holds": v.coprimality_holds,
        "classification": _classification_payload(c),
    }
    lines = [
        f"value = {p.value}",
        f"  form: {_product_text(p)}  (exponent {p.modulus_exponent})",
        f"  coprime to complementary cofactor: {'yes' if v.coprimality_holds else 'no'}",
    ]
    return payload, lines + ["  " + s for s in _classification_lines(c)], c.probabilistic


# --- verb handlers --------------------------------------------------------


def _cmd_classify(args):
    # b^m + 1 divides b^(2m) - 1, so 2m is a candidate for the order of b;
    # classify ignores a hint that fails the order certificate
    b, m = args.plus_one or (None, None)
    c = classify_subject(args.base, args.subject, order=2 * m if b == args.base else None)
    return _classification_payload(c), _classification_lines(c), c.probabilistic


def _cmd_cosets(args):
    d = decompose(args.base, args.modulus)
    lines = [f"a = {d.base}, n = {d.modulus}: r = {d.r}, h = {d.h}"]
    for i, coset in enumerate(d.cosets, start=1):
        lines.append(f"  C{i} (size {len(coset)}): {' '.join(map(str, coset))}")
    return vars(d), lines, False


def _cmd_cofactor(args):
    return _verdict_report(construct.primitive_cofactor(args.base, args.exponent))


def _cmd_construct(args):
    _, positionals, build = _KINDS[args.kind]
    return _verdict_report(build(args.base, *(getattr(args, a) for a in positionals)))


def _progress_printer(every: int = 16) -> Callable[[int, int], None]:
    state = {"count": 0}

    def report(done: int, total: int) -> None:
        state["count"] += 1
        if state["count"] % every == 0 or done >= total:
            print(f"  walked {done:,} / {total:,}", file=sys.stderr)

    return report


def _cmd_ordinal(args):
    n = args.subject
    if n > _DEEP_BOUND and not args.deep:
        raise DomainError(
            f"ordinal up to {n} exceeds {_DEEP_BOUND}; pass --deep to run it"
        )
    progress = _progress_printer() if args.deep else None
    k = strong_pseudoprime_ordinal(args.base, n, progress=progress)
    payload = {"base": args.base, "subject": n, "ordinal": k}
    return payload, [f"{n} is strong pseudoprime #{k} to base {args.base}"], False


def _cmd_scan(args):
    report = scan_range(args.base, args.bound)
    listing = ", ".join(map(str, report.strong_pseudoprimes[:25]))
    if len(report.strong_pseudoprimes) > 25:
        listing += ", ..."
    lines = [
        f"base {report.base} up to {report.bound}:",
        f"  strong pseudoprimes: {len(report.strong_pseudoprimes)}"
        + (f"  [{listing}]" if listing else ""),
        f"  overpseudoprimes:    {report.overpseudoprime_count}",
        f"  primes:              {report.prime_count}",
        f"  primovers:           {report.primover_count}",
    ]
    return report._asdict(), lines, False


def _cmd_identity(args):
    ident = construct.exponent_identity(args.n)
    verdict = "holds" if ident.holds else "FAILS"
    lines = [
        f"signed exponent sum for n = {ident.n}: "
        f"{ident.signed_sum} vs phi = {ident.phi}: {verdict}"
    ]
    return ident._asdict(), lines, False


def _cmd_bound(args):
    rep = construct.cofactor_bound_report(args.base, args.n)
    regime = "" if rep.asymptotic_regime else "  (below the asymptotic regime n >= 16)"
    lines = [
        f"cofactor of {rep.base}^{rep.n}-1: {rep.value}",
        f"  implied constant {rep.implied_constant:.4f}{regime}",
    ]
    return rep._asdict(), lines, False


_HANDLERS = {
    "classify": _cmd_classify,
    "cosets": _cmd_cosets,
    "cofactor": _cmd_cofactor,
    "construct": _cmd_construct,
    "ordinal": _cmd_ordinal,
    "scan": _cmd_scan,
    "identity": _cmd_identity,
    "bound": _cmd_bound,
}


def _command_echo(args) -> dict:
    skip = {"verb", "config", "format", "cache", "kind", "plus_one"}
    arguments = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    echo = {"verb": args.verb, "arguments": arguments}
    if getattr(args, "kind", None):
        echo["kind"] = args.kind
    return echo


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc.message}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    overrides = {
        field: value
        for flag, field in _SETTING_FLAGS.items()
        if (value := getattr(args, flag, None)) is not None
    }
    cfg = dataclasses.replace(load_config(args.config), **overrides)

    start = perf_counter()
    try:
        with arith.use_config(cfg):
            payload, lines, probabilistic = _HANDLERS[args.verb](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (perf_counter() - start) * 1000.0

    if args.format == "json":
        report = {
            "command": _command_echo(args),
            "result": payload,
            "timing_ms": round(elapsed_ms, 3),
            "probabilistic": probabilistic,
        }
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)
        if probabilistic:
            print("note: primality beyond the deterministic range; result is probabilistic")
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
