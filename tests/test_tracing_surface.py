"""The benchmark tracer wraps package names by string; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = [(layer, name) for layer, names in tracing.SPANS.items() for name in names]
    traced += list(tracing.TIMED) + list(tracing.COUNTED) + [("engine", "_extend"), ("engine", "_TABLES")]
    missing = [
        f"{layer}.{name}"
        for layer, name in traced
        if not hasattr(importlib.import_module(f"congruential_euler.{layer}"), name)
    ]
    assert missing == []
