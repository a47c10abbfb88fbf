"""The names the benchmark's tracer wraps must exist in the library.

``bench/tracer.py`` wraps functions and methods by name where
``netdual.harness`` looks them up. A layer it cannot find makes a benchmark
run report ``missing_layers`` and ``correct: false`` with no metrics, so a
rename or removal in ``src/`` fails here, in the unit tests, first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from netdual import ActionBox, RunConfig, harness, lazy_cycle_pair

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


def test_cumulative_sweep_shows_every_prefix_to_the_probe():
    """``bench/run.py`` reads the sweep's traces and comparator iterations
    from the probe's results: one ``harness.finalize`` and one
    ``regret.offline_comparator`` result per horizon. A sweep that measured
    its prefixes past these names would fail every benchmark sweep
    operation with a KeyError or a missing check."""
    tracer_module = load_tracer()
    probe = tracer_module.Tracer(harness, tracer_module.PROBE_LAYERS)
    config = RunConfig("oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=1, seed=5)
    horizons = (10, 20, 40)
    probe.install()
    try:
        rows = harness.sweep(config, horizons, cumulative=True)
    finally:
        probe.uninstall()
    results = {}
    for name, out, _, _ in probe.results:
        results.setdefault(name, []).append(out)
    assert len(results["harness.simulate"]) == 1
    traces = results["harness.finalize"]
    assert [trace.T for trace in traces] == list(horizons)
    assert [trace.regret for trace in traces] == [row.regret for row in rows]
    comparators = results["regret.offline_comparator"]
    assert len(comparators) == len(horizons)
    for trace, comparator in zip(traces, comparators):
        assert comparator.iterations >= 1
        assert np.array_equal(trace.y_star, comparator.y)
