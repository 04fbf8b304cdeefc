"""The benchmark tracer still finds every function its per-layer metrics name.

A metric of a function that is gone would read 0 and look like a gain, so a
deletion in the library must not remove a name ``bench/tracing.py`` needs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import lacuna.cli  # noqa: F401  (the tracer wraps the cli layer too)

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_per_layer_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["per_layer"]]
    assert tracing.Tracer().missing(names) == []
