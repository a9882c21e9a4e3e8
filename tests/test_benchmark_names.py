"""The benchmark measures het3 functions by name; each named one must exist.

A per-layer metric ``<module>.<function>.<what>`` in BENCHMARK.json is
taken by wrapping the public function ``het3.<module>.<function>``, so a
deleted or renamed function leaves that metric without a measurement.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def named_functions() -> list[tuple[str, str]]:
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = set()
    for metric in doc["per_layer"]:
        parts = metric["name"].split(".")
        # layer totals (<module>.self_us) and counts, probes and tracer
        # overhead name no function
        if len(parts) == 2 or parts[0] in ("ratio", "probe", "trace"):
            continue
        names.add((parts[0], parts[1]))
    return sorted(names)


@pytest.mark.parametrize("module, function", named_functions())
def test_benchmark_function_exists(module, function):
    mod = importlib.import_module(f"het3.{module}")
    fn = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn), f"het3.{module}.{function} is not a function"
    assert fn.__module__ == mod.__name__, f"het3.{module}.{function} is imported"
