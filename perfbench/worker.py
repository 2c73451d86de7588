"""One fresh process that runs a workload's ops against the checkout's src/.

Usage: worker.py bare|setup|run

bare   reports ready before importing anything of primover (interpreter cost);
setup  imports primover and primover.cli, reports ready and exits;
run    does the same, then reads one JSON job from stdin, runs its ops in a
       closed loop with one client, and writes one JSON result line.

The ready line is how run.py times set-up from spawn to the first op.
"""
from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


class Deadline(BaseException):
    """Raised from the alarm handler to abandon an op past its deadline.

    A BaseException, so no handler in the program can swallow it.
    """

    def __init__(self, layer: str | None):
        super().__init__(layer)
        self.layer = layer


# A fixed slice of interpreter and big-integer work, timed between ops. The
# host's speed drifts by 10-30% over seconds, so each op gets a speed factor:
# REFERENCE_NOMINAL_S (the slice's typical time on the baseline's 2-vCPU
# host) over the median of the last REFERENCE_WINDOW slices. run.py reports
# op times times this factor ("nominal" seconds), so that drift does not
# read as a change in the program, and the deadline is nominal too. Single
# slices are too noisy (about 15%, uncorrelated from one to the next); the
# window follows the drift.
REFERENCE_EVERY_S = 0.25
REFERENCE_NOMINAL_S = 0.0125
REFERENCE_WINDOW = 8


def reference_slice() -> float:
    start = perf_counter()
    x = 1
    for i in range(1500):
        x = (x * 1103515245 + i) % 4294967291
        x ^= pow(7, x | 1, 18446744073709551557) & 0xFFFF
    return perf_counter() - start


def _ready(**fields) -> None:
    print(json.dumps({"ready": True, **fields}), flush=True)


def _import_program() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import primover  # noqa: F401
    import primover.cli  # noqa: F401

    return (perf_counter() - start) * 1000.0


def _ops() -> dict:
    """The op per workload. Each returns (answer for the checks, timing extras).

    Names are looked up on the modules at call time, so traced wrappers apply.
    """
    from primover import classification, construct

    def classify_op(a: int, n: int):
        c = classification.classify(a, n)
        ev = c.evidence
        factors = [list(t) for t in ev.factorization.factors] if ev.factorization else None
        return [c.status.value, factors, ev.h, ev.r, c.probabilistic], None

    def cofactor_op(a: int, n: int):
        v = construct.primitive_cofactor(a, n)
        f = v.classification.evidence.factorization
        factors = [list(t) for t in f.factors] if f else None
        return [v.product.value, v.coprimality_holds, v.classification.status.value, factors], None

    def range_op(a: int, bound: int):
        marks = []
        start = perf_counter()
        report = classification.scan(
            a, bound, workers=1, progress=lambda done, total: marks.append(perf_counter())
        )
        scanned = perf_counter()
        census = classification.overpseudoprimes_upto(a, bound)
        done = perf_counter()
        answer = [
            list(report.strong_pseudoprimes),
            report.overpseudoprime_count,
            report.prime_count,
            report.primover_count,
            list(census),
        ]
        segments = [t - s for s, t in zip([start] + marks, marks)]
        return answer, {"scan_s": scanned - start, "census_s": done - scanned, "segments_s": segments}

    return {"classify-mix": classify_op, "cofactor-sweep": cofactor_op, "range": range_op}


def _loop(job: dict, op, tracer) -> dict:
    from primover.errors import ResourceError

    run_s, deadline = job["seconds"], job["deadline_s"]
    # Peak RSS is read after a fixed number of ops, which the run always
    # completes, so that it does not grow with how many ops the host's speed
    # let a run get through (the program's order caches are unbounded).
    # With rss_ops None it is read at the end.
    rss_ops = job["rss_ops"]
    rss_mib = None
    results, times, extras, speeds = [], [], [], []
    refs = [reference_slice() for _ in range(REFERENCE_WINDOW)]
    start = last_ref = perf_counter()
    for i, args in enumerate(job["ops"]):
        # run_s None: run every op of the job
        if run_s is not None and i >= (rss_ops or 0) and perf_counter() - start >= run_s:
            break
        if tracer is not None:
            tracer.op_id = i
        speed = REFERENCE_NOMINAL_S / statistics.median(refs[-REFERENCE_WINDOW:])
        t0 = perf_counter()
        extra = None
        try:
            # a nominal deadline: whether an op times out does not hinge on
            # the host's speed at the moment
            signal.setitimer(signal.ITIMER_REAL, deadline / speed)
            try:
                answer, extra = op(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = ["ok", answer]
        except Deadline as exc:
            outcome = ["timeout", exc.layer]
        except ResourceError as exc:
            outcome = ["resource", type(exc).__name__]
        except Exception as exc:  # any other exception is a wrong answer
            outcome = ["error", f"{type(exc).__name__}: {exc}"]
        times.append(perf_counter() - t0)
        results.append(outcome)
        extras.append(extra)
        speeds.append(speed)
        if i + 1 == rss_ops:
            rss_mib = _peak_rss_mib()
        # one slice per REFERENCE_EVERY_S of elapsed time, so that after a
        # long op the window holds fresh slices, not ones from before it
        while perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_slice())
            last_ref += REFERENCE_EVERY_S
    return {
        "results": results,
        "times": times,
        "extras": extras,
        "speed": speeds,
        "rss_mib": rss_mib if rss_mib is not None else _peak_rss_mib(),
    }


def _run(job: dict) -> dict:
    from primover import arith

    tracer = None
    order_tower = arith.order_tower  # the lru_cache'd function, before any wrapping
    op = _ops()[job["workload"]]
    if job["trace"]:
        from tracer import OP_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        op = tracer.wrap(OP_SPAN, op)

    def on_alarm(signum, frame):
        raise Deadline(tracer.innermost() if tracer is not None else None)

    signal.signal(signal.SIGALRM, on_alarm)
    if job["profile"]:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        out = profiler.runcall(_loop, job, op, tracer)
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).strip_dirs().sort_stats("tottime").print_stats(20)
        out["profile"] = text.getvalue()
    else:
        out = _loop(job, op, tracer)
    if tracer is not None:
        out["layers"] = tracer.summary()
        info = order_tower.cache_info()
        out["order_tower_cache"] = [info.hits, info.misses]
        tracer.write(job["spans_path"])
    return out


def _peak_rss_mib() -> float:
    """Peak resident set of this process.

    ru_maxrss is not reset by exec: a worker spawned by vfork and exec
    reports at least the parent's peak, and the parent holds the whole
    generated input. VmHWM belongs to the worker's own address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    mode = sys.argv[1]
    if mode == "bare":
        _ready()
        return
    import_ms = _import_program()
    _ready(import_ms=import_ms)
    if mode == "run":
        job = json.load(sys.stdin)
        sys.stdout.write(json.dumps(_run(job)) + "\n")


if __name__ == "__main__":
    main()
