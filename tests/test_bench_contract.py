"""The names the benchmark's tracer wraps must exist in the library.

``bench/tracer.py`` wraps functions and methods by name where
``netdual.harness`` looks them up. A layer it cannot find makes a benchmark
run report ``missing_layers`` and ``correct: false`` with no metrics, so a
rename or removal in ``src/`` fails here, in the unit tests, first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import netdual
from netdual import (
    ActionBox,
    DualAveragingEngine,
    RunConfig,
    engine,
    harness,
    lazy_cycle_pair,
    objectives,
    regret,
    topology,
)

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


def test_environment_layer_times_every_round():
    """``harness.env`` times the sensing environment's one-round draw. A
    simulate that drew its measurements past ``next_objective`` would keep
    the name and read 0 s there; every round must pass through it once."""
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(harness, tracer_module.LAYERS)
    T = 12
    config = RunConfig("oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=T, seed=5)
    tracer.install()
    try:
        op = tracer.begin_op()
        harness.simulate(config)
        tracer.end_op(op)
    finally:
        tracer.uninstall()
    assert tracer.per_op()[0]["harness.env"][0] == T


def test_finalize_forms_no_step_and_one_curvature(monkeypatch):
    """``finalize_s`` measures the first pass over a history: it reads the
    step sizes ``simulate`` formed as one vector and forms G by one
    eigensolve. A finalize that called the step rule per round, or formed
    the curvature per prefix or by an iteration, would slow every
    benchmark operation without failing a check."""
    alpha_calls, curvature_calls = [], []

    def alpha(s):
        alpha_calls.append(s)
        return 1.0 / (s + 1) ** 0.5

    curvature = objectives.curvature

    def counting(A):
        curvature_calls.append(A.shape)
        return curvature(A)

    monkeypatch.setattr(objectives, "curvature", counting)
    monkeypatch.setattr(regret, "curvature", counting)
    config = RunConfig(
        "oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=2000, seed=5, alpha=alpha
    )
    history = harness.simulate(config)
    alpha_calls.clear()
    for T in (500, 2000):
        harness.finalize(history, T)
    assert alpha_calls == []
    assert curvature_calls == [(5, 5)]
    assert not hasattr(netdual, "power_iteration")
    assert not hasattr(objectives, "power_iteration")


def test_test_helpers_stay_out_of_the_library():
    """What only tests call lives in ``tests/conftest.py``: the prox step,
    the step rule, the box check, the decay certificate, the engine's mean
    field and the engine aliases. The harness keeps one alias, the name
    ``bench/tracer.py`` finds the engine's methods under."""
    retired = {
        netdual: ("project", "inv_sqrt_step", "check_geometric_decay", "DecayReport",
                  "CirculationEngine", "PushSumEngine", "prox"),
        regret: ("inv_sqrt_step",),
        topology: ("check_geometric_decay", "DecayReport"),
        engine: ("CirculationEngine", "PushSumEngine"),
        ActionBox: ("contains",),
        DualAveragingEngine: ("mean_field",),
    }
    for owner, names in retired.items():
        for name in names:
            assert not hasattr(owner, name), name
    with pytest.raises(ImportError):
        importlib.import_module("netdual.prox")
    assert harness.CirculationEngine is DualAveragingEngine
    assert not hasattr(harness, "PushSumEngine")
    assert len(netdual.__all__) == 45
