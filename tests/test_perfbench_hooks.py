"""The library names the benchmark's tracer wraps must exist.

perfbench/tracer.py replaces (module, attribute) pairs with timing wrappers,
and the worker reads the order memo's cache counters. A rename or deletion
in src/ would crash every traced run; these tests catch it first.
"""
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module, attribute", [(m, a) for m, a, _ in tracer.WRAPS])
def test_wrapped_attribute_exists(module, attribute):
    assert callable(getattr(tracer._resolve(module), attribute))


def test_order_memo_reports_cache_counters():
    from primover import arith

    info = arith.order_tower.cache_info()
    assert info.hits >= 0 and info.misses >= 0
