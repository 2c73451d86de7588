"""CLI output pinned byte for byte against tests/data/cli_golden.json.

Each case keeps the exit code, stdout and stderr of the text report, and
stdout of the --format json report with its timing_ms field removed (the
one field that varies between runs). The cases cover `cofactor` for bases
2, 3, 5, 6 and 10 at every composite n with a^n <= 2^128, every `construct`
kind on the parameters used in test_construct.py, `identity` and `bound`
at n = 9, 35, 45 and 70, and `classify`, `cosets`, `scan` and `ordinal`
on a few subjects, among them 604562901, whose order computation needs rho.
The settings flags --ceiling and --workers and the --base of each
`construct` kind are covered too.

Add new cases to the file with

    PYTHONPATH=src python tests/test_cli_golden.py

It records only the cases the file lacks, and exits 1 without writing if
an existing case's output has changed. To change an intended output,
delete that entry first.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import naive_is_prime  # noqa: E402
from primover.cli import main  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
_TIMING = re.compile(r', "timing_ms": [-+.0-9e]+')


def cases() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for a in (2, 3, 5, 6, 10):
        n = 4
        while a**n <= 2**128:
            if not naive_is_prime(n):
                out.append(("cofactor", "--base", str(a), str(n)))
            n += 1
    construct = {
        "two-prime": [(5, 7), (3, 5), (3, 7), (3, 11), (4, 7), (7, 5), (5, 5)],
        "prime-power": [
            (5, 2), (3, 2), (2, 2), (3, 3), (2, 4), (5, 1), (6, 2),
        ],
        "two-prime-power": [
            (3, 2, 5, 1), (5, 1, 7, 1), (3, 1, 5, 1), (2, 2, 3, 2),
            (2, 1, 7, 2), (5, 1, 3, 1), (3, 0, 5, 1),
        ],
    }
    for kind, params in construct.items():
        out += [("construct", kind, *map(str, p)) for p in params]
    out += [("construct", "fermat", str(n)) for n in range(0, 8)]
    out += [("construct", "fermat", "--base", str(a), "2") for a in (3, 4, 6)]
    for n in (9, 35, 45, 70):
        out += [("identity", str(n)), ("bound", str(n))]
    for n in ("2047", "341", "2^32+1", "2^67-1", "8727391", "604562901", "65537", "10"):
        out.append(("classify", n))
    out += [("cosets", "--base", "2", "7"), ("scan", "3000"), ("ordinal", "2047")]
    out += [
        ("cosets", "--base", "2", "7", "--ceiling", "100"),
        ("cosets", "--base", "2", "101", "--ceiling", "50"),
        ("scan", "3000", "--workers", "2"),
        ("ordinal", "2047", "--workers", "2"),
        ("construct", "two-prime", "--base", "3", "5", "7"),
        ("construct", "prime-power", "--base", "3", "5", "2"),
        ("construct", "two-prime-power", "--base", "3", "3", "2", "5", "1"),
    ]
    # usage errors, top level and in a subparser: usage line, message, exit 1
    out += [
        ("frobnicate", "7"),
        ("classify",),
        ("classify", "xyz"),
        ("construct",),
        ("construct", "two-prime", "5"),
    ]
    return out


def run(argv: tuple[str, ...]) -> dict:
    """Run the CLI in-process on argv in text and in JSON form."""
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("PRIMOVER_")}
    try:
        record = {}
        for fmt in ("text", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--format", fmt, *argv])
            if fmt == "text":
                record.update(exit=code, text=out.getvalue(), stderr=err.getvalue())
            else:
                record["json"] = _TIMING.sub("", out.getvalue())
        return record
    finally:
        os.environ.update(saved)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_bytes_match_golden(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


def record() -> int:
    """Add the cases missing from the golden file; never rewrite one.

    An existing case whose output now differs is listed and nothing is
    written, so a changed output never becomes the baseline by accident.
    """
    data = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    changed = []
    for argv in cases():
        key = " ".join(argv)
        got = run(argv)
        if key not in data:
            data[key] = got
        elif data[key] != got:
            changed.append(key)
    if changed:
        print("outputs differ from the golden file:", *changed, sep="\n  ")
        return 1
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(data)} cases in {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(record())
