"""In-memory spans around the calls each primover module makes into another.

The tracer replaces module attributes (the names a consumer module imported,
such as primover.construct.classify) with wrappers that record a span per
call: name, start, end, parent span and op id. Nothing under src/ changes.
"""
from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

# (module, attribute, span name). arith's own factorize, check_prime and
# order_tower are wrapped as well, because arith calls them internally on the
# paths the other modules take: prime_power_orders calls order_tower, the
# order of a modulo a prime factors p - 1 through factorize, factorize tests
# its cofactors with check_prime, and is_prime (which construct imports)
# calls check_prime.
WRAPS = (
    ("primover.arith", "factorize", "arith.factorize"),
    ("primover.classification", "factorize", "arith.factorize"),
    ("primover.construct", "factorize", "arith.factorize"),
    ("primover.cosets", "factorize", "arith.factorize"),
    ("primover.arith", "check_prime", "arith.check_prime"),
    ("primover.classification", "check_prime", "arith.check_prime"),
    ("primover.arith", "order_tower", "arith.order_tower"),
    ("primover.cosets", "order_tower", "arith.order_tower"),
    ("primover.classification", "coset_count", "cosets.coset_count"),
    ("primover.classification", "overpseudoprime_by_order_criterion", "classification.order_criterion"),
    ("primover.classification", "classify", "classification.classify"),
    ("primover.classification", "scan", "classification.scan"),
    ("primover.classification", "overpseudoprimes_upto", "classification.census"),
    # install() wraps this one around the traced classification.classify,
    # so the classify span nests inside the verdict span.
    ("primover.construct", "classify", "construct.verdict_classify"),
    ("primover.construct", "primitive_cofactor_value", "construct.cofactor_value"),
    ("primover.construct.CofactorProduct", "complement", "construct.complement"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPS))
OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id]
        self.stack: list[int] = []
        self.op_id = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            owner = _resolve(module_name)
            original = getattr(owner, attr)
            if (module_name, attr) == ("primover.construct", "classify"):
                original = _resolve("primover.classification").classify
            setattr(owner, attr, self.wrap(name, original))

    def innermost(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else OP_SPAN

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self milliseconds.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - inner) / 1e6
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(dotted: str):
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module_name, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module_name), cls)
