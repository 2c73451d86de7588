#!/usr/bin/env python3
"""Benchmark this checkout against a parent revision, in alternating pairs.

    python3 scripts/bench_pair.py --parent HEAD --out BENCH_7.json \\
        --run range:701-710 --run classify-mix:711-713 [--seconds 30]

The parent revision's files are extracted (git archive) into a temporary
directory, which is removed at the end. The change is this checkout,
uncommitted edits included. For every seed of a --run, perfbench/run.py
runs once on each side with the same seed; the side that goes first alternates from pair to pair. The output
file gets, per workload and end-to-end metric, each side's median and
quartiles and the number of pairs the change won, plus the seeds, both
revisions, the core count and the Python version; each run records its
ops attempted and failed. The file is written after every workload, and
workloads already in it and not run again are kept. Exits 1 when any run is
not correct, and 2, keeping the workloads finished before it, when a run
ends without a result.
"""
import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def parse_run(spec: str) -> tuple[str, list[int]]:
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


class BenchError(RuntimeError):
    """A perfbench run that ended without a result."""


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in tree; its final JSON line.

    perfbench/run.py exits 0 with a result, 1 with a result that is not
    correct, and 2 with none; anything but a result line last is an error.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        return json.loads(lines[-1])
    tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
    raise BenchError(
        f"{tree}: {workload} seed {seed} exited {proc.returncode} without a result\n{tail}"
    )


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        out[name] = {
            "better": direction,
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent revision")
    ap.add_argument("--out", required=True, help="output JSON file")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:FIRST-LAST",
                    help="a workload and its seed range; repeatable")
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}
    parent_rev = git("rev-parse", args.parent)
    change_rev = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change_rev += "+uncommitted"
    doc.update({
        "parent_rev": parent_rev,
        "change_rev": change_rev,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    })

    correct = True
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp) / "parent"
        archive = subprocess.run(
            ["git", "archive", parent_rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_tree)
        for spec_arg in args.run:
            workload, seeds = parse_run(spec_arg)
            pairs = []
            for i, seed in enumerate(seeds):
                sides = [("parent", parent_tree), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                pair = {"seed": seed, "first": sides[0][0]}
                for side, tree in sides:
                    pair[side] = bench(tree, workload, seed, args.seconds)
                    correct &= pair[side]["correct"]
                pairs.append(pair)
                print(f"{workload} seed {seed}: done", file=sys.stderr)
            doc["workloads"][workload] = {
                "seeds": seeds,
                "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                "metrics": summarize(pairs, better),
                "runs": [
                    {"seed": p["seed"], "first": p["first"],
                     **{s: {k: v["value"] for k, v in p[s]["metrics"].items()}
                        for s in ("parent", "change")},
                     **{k: {s: p[s][k] for s in ("parent", "change")}
                        for k in ("attempted", "failed")}}
                    for p in pairs
                ],
            }
            out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
