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


def traced_map_blocks(config, monkeypatch):
    """Run ``simulate`` under the tracer; return the traced ``harness.env``
    calls and the number of rounds each call mapped."""
    rows = []
    next_objective = harness.SensingEnvironment.next_objective

    def recording(self, N, *args, **kwargs):
        rows.append(len(N))
        return next_objective(self, N, *args, **kwargs)

    # patched before the tracer is built, so the tracer wraps the recorder
    monkeypatch.setattr(harness.SensingEnvironment, "next_objective", recording)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(harness, tracer_module.LAYERS)
    tracer.install()
    try:
        op = tracer.begin_op()
        harness.simulate(config)
        tracer.end_op(op)
    finally:
        tracer.uninstall()
    return tracer.per_op()[0]["harness.env"], rows


def test_environment_layer_times_every_round(monkeypatch):
    """``harness.env`` times the sensing environment's measurement map, one
    span per block of BLOCK_VALUES // p rounds. A simulate that mapped its
    measurements past ``next_objective`` would keep the name and read 0 s
    there; every round must pass through it once."""
    T = 12
    config = RunConfig("oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=T, seed=5)
    (calls, _), rows = traced_map_blocks(config, monkeypatch)
    assert calls == 1
    assert rows == [T]


def test_environment_layer_maps_a_ragged_last_block(monkeypatch):
    """At p = 20 a map block is 819 rounds, so T = 2001 ends in a short
    block; the blocks still cover every round once."""
    T, p = 2001, 20
    config = RunConfig("oda-c", lazy_cycle_pair(p), ActionBox.uniform(-10, 10, p), T=T, seed=5)
    (calls, self_s), rows = traced_map_blocks(config, monkeypatch)
    k = harness.BLOCK_VALUES // p
    assert rows == [k, k, T - 2 * k]
    assert calls == len(rows) == 3
    assert sum(rows) == T
    assert self_s > 0


def test_finalize_forms_no_step_and_one_curvature(monkeypatch):
    """``finalize_s`` measures the first pass over a history: it reads the
    step sizes ``simulate`` formed as one vector and forms G by one
    eigensolve. A finalize that formed the step sizes again, or formed
    the curvature per prefix or by an iteration, would slow every
    benchmark operation without failing a check."""
    step_calls, curvature_calls = [], []
    step_sizes = regret.step_sizes

    def counting_steps(T, alpha=None):
        step_calls.append(T)
        return step_sizes(T, alpha)

    monkeypatch.setattr(regret, "step_sizes", counting_steps)
    monkeypatch.setattr(harness, "step_sizes", counting_steps)
    curvature = objectives.curvature

    def counting(A):
        curvature_calls.append(A.shape)
        return curvature(A)

    monkeypatch.setattr(objectives, "curvature", counting)
    monkeypatch.setattr(regret, "curvature", counting)
    alpha = tuple(1.0 / (s + 1) ** 0.5 for s in range(2001))
    config = RunConfig(
        "oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=2000, seed=5, alpha=alpha
    )
    history = harness.simulate(config)
    assert step_calls == [2000]
    step_calls.clear()
    for T in (500, 2000):
        harness.finalize(history, T)
    assert step_calls == []
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
    assert len(netdual.__all__) == 44
