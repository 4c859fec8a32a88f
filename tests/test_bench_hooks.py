"""The traced benchmark patches library names by getattr; each must still exist."""

import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench_run(monkeypatch):
    # leave no bytecode cache beside the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_hooks_exist(monkeypatch):
    run = load_bench_run(monkeypatch)
    targets = [(owner, attr) for owner, attr, *_ in run._span_targets()]
    targets += [(owner, attr) for owner, attr, _ in run._count_targets()]
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not hasattr(owner, attr)]
    assert missing == []
