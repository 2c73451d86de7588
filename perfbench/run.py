"""primover benchmark: three seeded workloads against the checkout's src/.

    python3 perfbench/run.py --workload classify-mix|cofactor-sweep|range
                             --seed N --seconds S --trace 0|1 [--profile]

Each run generates its inputs from the seed, runs them in a fresh
single-threaded worker process (closed loop, one client), checks every
answer against the benchmark's own arithmetic, and prints its metrics. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics; --trace 1 runs the same ops once more with spans around
each layer and gives the per-layer metrics and the tracing overhead.
--profile prints a cProfile top-20 of the op loop instead.

A wrong answer prints a result with "correct": false and exits 1. A
checkout without src/primover exits 2 without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from oracle import WrongAnswer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # the whole invocation must end within 180 s
SETUP_SAMPLES = 9

# Per-op deadline in nominal seconds (see worker.py). No op of this commit
# comes near it (cofactor-sweep's slowest take about 0.25 s); an op that
# passes it is abandoned and counted as failed.
DEADLINE_S = {"classify-mix": 5.0, "cofactor-sweep": 1.0, "range": 60.0}

# The ops after which a worker reads its peak RSS; a run always completes
# them, whatever --seconds. About 10 s of op time at this commit; range's 8
# run each base twice. cofactor-sweep reads it after each whole pass.
RSS_OPS = {"classify-mix": 3000, "cofactor-sweep": None, "range": 8}

END_TO_END = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mib": "MiB",
    "scan.ints_per_s": "1/s",
    "census.ints_per_s": "1/s",
}


class BenchError(Exception):
    """The benchmark could not run (missing program, crashed worker)."""


def _environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRIMOVER_")}
    env.pop("PYTHONPATH", None)
    return env


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """A fresh worker process, timed from spawn until it reports ready."""

    def __init__(self, mode: str, deadline: float):
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-E", str(WORKER), mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=_environment(),
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            self.spawn_s = perf_counter() - start
            if not line:
                raise BenchError(f"worker ({mode}) exited before it was ready")
            self.ready = json.loads(line)
        except BaseException:
            self.close()
            raise

    def finish(self, job: dict | None = None) -> dict | None:
        try:
            out, _ = self.proc.communicate(
                None if job is None else json.dumps(job),
                timeout=max(self.deadline - perf_counter(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish within the run limit") from None
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(out.splitlines()[-1]) if job is not None else None

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _setup_samples(mode: str, deadline: float) -> tuple[list[float], list[float]]:
    spawn, imports = [], []
    for _ in range(SETUP_SAMPLES):
        w = Worker(mode, deadline)
        w.finish()
        spawn.append(w.spawn_s)
        imports.append(w.ready.get("import_ms", 0.0))
    return spawn, imports


# --- inputs ------------------------------------------------------------------

# cofactor-sweep runs whole passes; this caps the passes of one run
COFACTOR_MAX_PASSES = 20


def _job(workload: str, ops: list, seconds: float | None) -> dict:
    """One worker's job. With seconds None the worker runs every op."""
    return {
        "workload": workload,
        "ops": ops,
        "seconds": seconds,
        "rss_ops": RSS_OPS[workload] if seconds is not None else None,
        "deadline_s": DEADLINE_S[workload],
        "trace": False,
        "profile": False,
        "spans_path": None,
    }


def _plan(workload: str, seed: int, seconds: int) -> tuple[list[dict], list]:
    """The jobs of a run, each for a fresh worker, and what the checks need
    per op. Only cofactor-sweep has more than one job: one per pass."""
    truths: list = []
    if workload == "classify-mix":
        # about twice the rounds this commit completes in the time
        ops, truths = workloads.classify_mix(seed, rounds=25 * seconds)
        jobs = [_job(workload, ops, seconds)]
    elif workload == "cofactor-sweep":
        passes = workloads.cofactor_sweep(seed, COFACTOR_MAX_PASSES)
        jobs = [_job(workload, ops, None) for ops in passes]
    else:
        jobs = [_job(workload, workloads.range_ops(seed, count=40 * seconds), seconds)]
    return jobs, truths


def _run_jobs(jobs: list[dict], seconds: float, deadline: float, setup: list[float]) -> list:
    """Runs jobs, each in a fresh worker, while the nominal op time so far
    leaves room for one and a half more jobs as long as the last. The half
    job keeps the number of jobs from flipping between runs when a job
    takes about seconds/k. Returns (job, output) pairs."""
    done, measured = [], 0.0
    for job in jobs:
        worker = Worker("run", deadline)
        setup.append(worker.spawn_s)
        out = worker.finish(job)
        done.append((job, out))
        spent = sum(t * f for t, f in zip(out["times"], out["speed"]))
        measured += spent
        if measured + 1.5 * spent > seconds:
            break
    return done


def _merge(done: list) -> tuple[list, dict]:
    """The executed ops of several jobs and their outputs, end to end."""
    ops, merged = [], {"results": [], "times": [], "extras": [], "speed": [], "rss_mib": 0.0}
    for job, out in done:
        ops += job["ops"][: len(out["results"])]
        for key in ("results", "times", "extras", "speed"):
            merged[key] += out[key]
        merged["rss_mib"] = max(merged["rss_mib"], out["rss_mib"])
        if "layers" in out:
            layers = merged.setdefault("layers", {})
            for name, row in out["layers"].items():
                total = layers.setdefault(name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    total[key] += value
            cache = merged.setdefault("order_tower_cache", [0, 0])
            cache[0] += out["order_tower_cache"][0]
            cache[1] += out["order_tower_cache"][1]
    return ops, merged


def _check(workload: str, ops: list, truths: list, out: dict, range_truths: dict) -> None:
    for i, (outcome, answer) in enumerate(out["results"]):
        if outcome == "error":
            raise WrongAnswer(f"{workload} op {ops[i]} raised {answer}")
        if outcome != "ok":
            continue
        a, n = ops[i]
        if workload == "classify-mix":
            oracle.check_classify(a, n, truths[i], answer)
        elif workload == "cofactor-sweep":
            oracle.check_cofactor(a, n, answer)
        else:
            if (a, n) not in range_truths:
                range_truths[a, n] = oracle.range_truth(a, n)
            oracle.check_range(a, n, range_truths[a, n], answer)


# --- metrics -----------------------------------------------------------------

def _op_seconds(workload: str, out: dict) -> list[float]:
    """Per-op time in nominal seconds: measured seconds times the op's speed
    factor (see worker.REFERENCE_NOMINAL_S). An op that raised ResourceError
    before its deadline costs the deadline."""
    return [
        t * f if outcome != "resource" else max(t * f, DEADLINE_S[workload])
        for t, f, (outcome, _) in zip(out["times"], out["speed"], out["results"])
    ]


def _range_rates(ops: list, out: dict) -> tuple[float, float]:
    """Median integers per nominal second of the scans and of the censuses."""
    done = [(n, e, f) for (_, n), e, f in zip(ops, out["extras"], out["speed"]) if e is not None]
    return (
        statistics.median(b / (e["scan_s"] * f) for b, e, f in done),
        statistics.median(b / (e["census_s"] * f) for b, e, f in done),
    )


def _end_to_end(workload: str, out: dict, rates: tuple[float, float], setup: list[float]) -> dict:
    attempted = len(out["results"])
    ok = sum(outcome == "ok" for outcome, _ in out["results"])
    seconds = _op_seconds(workload, out)
    lat = [1000.0 * t for t in seconds]
    scan_rate, census_rate = rates
    values = {
        "setup_s": statistics.median(setup),
        "ok_ops_per_s": ok / sum(seconds),
        "p50_ms": statistics.median(lat),
        "p99_ms": statistics.quantiles(lat, n=100, method="inclusive")[98] if len(lat) > 1 else lat[0],
        "ok_frac": ok / attempted,
        "peak_rss_mib": out["rss_mib"],
        "scan.ints_per_s": scan_rate,
        "census.ints_per_s": census_rate,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _per_layer(workload: str, plain: dict, traced: dict, bare: list, imports: list) -> dict:
    from tracer import OP_SPAN, SPAN_NAMES

    ops = len(traced["results"])
    layers = traced["layers"]

    def row(name: str) -> dict:
        return layers.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})

    def per_op(x: float) -> float:
        return x / ops

    hits, misses = traced["order_tower_cache"]
    extras = [e for e in traced["extras"] if e is not None]
    segments = [s * 1000.0 for e in extras for s in e["segments_s"]]
    censuses = [e["census_s"] * 1000.0 for e in extras]
    spsp = [len(answer[0]) for outcome, answer in traced["results"] if outcome == "ok" and workload == "range"]
    found = [len(answer[4]) for outcome, answer in traced["results"] if outcome == "ok" and workload == "range"]
    # the innermost open span at each op's deadline; "op" means none was open
    timeouts = {name: 0 for name in SPAN_NAMES + (OP_SPAN,)}
    for outcome, layer in traced["results"]:
        if outcome == "timeout":
            timeouts[layer] += 1
    plain_ms = 1000.0 * sum(_op_seconds(workload, plain)[:ops])
    traced_ms = 1000.0 * sum(_op_seconds(workload, traced))
    m = {
        "arith.factorize.calls": (per_op(row("arith.factorize")["calls"]), "1/op"),
        "arith.factorize.self_ms": (per_op(row("arith.factorize")["self_ms"]), "ms/op"),
        "arith.check_prime.calls": (per_op(row("arith.check_prime")["calls"]), "1/op"),
        "arith.check_prime.self_ms": (per_op(row("arith.check_prime")["self_ms"]), "ms/op"),
        "arith.order_tower.calls": (per_op(row("arith.order_tower")["calls"]), "1/op"),
        "arith.order_tower.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cosets.coset_count.calls": (per_op(row("cosets.coset_count")["calls"]), "1/op"),
        "cosets.coset_count.self_ms": (per_op(row("cosets.coset_count")["self_ms"]), "ms/op"),
        "classification.classify.self_ms": (per_op(row("classification.classify")["self_ms"]), "ms/op"),
        "classification.order_criterion.calls": (
            per_op(row("classification.order_criterion")["calls"]),
            "1/op",
        ),
        "classification.order_criterion.self_ms": (
            per_op(row("classification.order_criterion")["self_ms"]),
            "ms/op",
        ),
        "classification.scan.segments": (per_op(len(segments)), "1/op"),
        "classification.scan.segment_ms": (statistics.median(segments) if segments else 0.0, "ms"),
        "classification.scan.spsp_found": (per_op(sum(spsp)), "1/op"),
        "classification.census.ms": (statistics.median(censuses) if censuses else 0.0, "ms"),
        "classification.census.found": (per_op(sum(found)), "1/op"),
        "construct.cofactor_value.self_ms": (per_op(row("construct.cofactor_value")["self_ms"]), "ms/op"),
        "construct.complement.self_ms": (per_op(row("construct.complement")["self_ms"]), "ms/op"),
        "construct.verdict_classify.ms": (per_op(row("construct.verdict_classify")["total_ms"]), "ms/op"),
    }
    for name, count in timeouts.items():
        m[f"construct.timeouts.{name}"] = (per_op(count), "1/op")
    m.update(
        {
            "cli.import_ms": (statistics.median(imports), "ms"),
            "cli.interpreter_ms": (1000.0 * statistics.median(bare), "ms"),
            "trace.ops": (ops, "count"),
            "trace.overhead_ms": (traced_ms - plain_ms, "ms"),
            "trace.overhead_frac": ((traced_ms - plain_ms) / plain_ms, "ratio"),
        }
    )
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


# --- main --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEADLINE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="print a cProfile top-20")
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "primover" / "__init__.py").is_file():
        print(f"error: no primover package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("# " + json.dumps(record))

    jobs, truths = _plan(args.workload, args.seed, args.seconds)
    for job in jobs:
        job["profile"] = args.profile
    setup, imports = _setup_samples("setup", deadline)
    probe_jobs = []
    if not (args.trace or args.profile) and args.workload != "range":
        # Scans and censuses of every base, so that every workload reports
        # the scan and census rates; these workloads' ops never reach that
        # code. Half runs before the op stream and half after, each in a
        # fresh worker, so that the rates sample the host at two times.
        probe_ops = workloads.probe_ops(args.seed)
        half = len(probe_ops) // 2
        probe_jobs = [_job("range", probe_ops[:half], None), _job("range", probe_ops[half:], None)]
        probed = [(probe_jobs[0], Worker("run", deadline).finish(probe_jobs[0]))]
    done = _run_jobs(jobs, args.seconds, deadline, setup)
    if args.profile:
        for _, out in done:
            print(out["profile"])
        return 0
    ops, plain = _merge(done)
    checks = [(args.workload, ops, truths, plain)]

    if args.trace:
        bare, _ = _setup_samples("bare", deadline)
        OUT_DIR.mkdir(exist_ok=True)
        replayed = []
        for k, (job, out) in enumerate(done):
            # the replay stops early rather than overrun the run limit; the
            # overhead is taken over the ops both runs completed
            budget = deadline - perf_counter() - 20.0
            if budget < 1.0:
                break
            replay = dict(job, ops=job["ops"][: len(out["results"])], seconds=budget, trace=True)
            replay["spans_path"] = str(OUT_DIR / f"spans-{args.workload}-{k}.jsonl")
            replayed.append((replay, Worker("run", deadline).finish(replay)))
        traced_ops, traced = _merge(replayed)
        checks.append((args.workload, traced_ops, truths, traced))
    elif probe_jobs:
        probed.append((probe_jobs[1], Worker("run", deadline).finish(probe_jobs[1])))
        probe_ops, probe = _merge(probed)
        checks.append(("range", probe_ops, [], probe))

    correct = True
    range_truths: dict = {}
    try:
        for check in checks:
            _check(*check, range_truths)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        correct = False

    if args.trace:
        metrics = _per_layer(args.workload, plain, traced, bare, imports)
        final = traced
    else:
        rates = _range_rates(ops, plain) if args.workload == "range" else _range_rates(probe_ops, probe)
        metrics = _end_to_end(args.workload, plain, rates, setup)
        final = plain
    attempted = len(final["results"])
    failed = sum(outcome != "ok" for outcome, _ in final["results"])
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_frac':42s} {failed / attempted:14.6g} ratio")
    if args.workload == "classify-mix":
        props = workloads.input_properties(ops, truths)
        for name, value in props.items():
            print(f"{'input.' + name:42s} {value:14.6g} ratio")
    if args.workload == "cofactor-sweep":
        print(f"{'passes':42s} {len(done):14d} count")
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**record, "correct": correct, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
