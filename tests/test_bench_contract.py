"""The names the benchmark's tracer wraps must exist in the library.

``bench/tracer.py`` wraps functions and methods by name where
``netdual.harness`` looks them up. A layer it cannot find makes a benchmark
run report ``missing_layers`` and ``correct: false`` with no metrics, so a
rename or removal in ``src/`` fails here, in the unit tests, first.
"""

import importlib.util
from pathlib import Path

import pytest

from netdual import harness

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layers", ["LAYERS", "PROBE_LAYERS"])
def test_every_traced_layer_exists(layers):
    tracer = load_tracer()
    assert tracer.Tracer(harness, getattr(tracer, layers)).missing == []
