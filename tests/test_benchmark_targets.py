"""The benchmark's per-layer tracer wraps package functions named by
string; a rename in the package must not silently drop a traced layer,
and every traced metric must be one the benchmark reports."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    assert tracing.TARGETS
    for layer, targets in tracing.TARGETS.items():
        for module, attr in targets:
            owner = importlib.import_module(f"swarmctrl.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: swarmctrl.{module}.{attr}"


def test_every_traced_metric_is_reported(tracing):
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"] for m in per_layer}
    assert tracing.METRICS
    assert set(tracing.METRICS) <= names
