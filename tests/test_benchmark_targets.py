"""The benchmark's per-layer tracer wraps package functions named by
string; a rename in the package must not silently drop a traced layer."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for layer, targets in tracing.TARGETS.items():
        for module, attr in targets:
            owner = importlib.import_module(f"swarmctrl.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: swarmctrl.{module}.{attr}"
