"""The names the benchmark's tracer wraps must exist in the library.

``bench/tracer.py`` wraps functions and methods by name where
``netdual.harness`` looks them up. A layer it cannot find makes a benchmark
run report ``missing_layers`` and ``correct: false`` with no metrics, so a
rename or removal in ``src/`` fails here, in the unit tests, first.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import INVARIANT_FLAGS, count_evaluations, pushed_past

import netdual
from netdual import (
    ActionBox,
    DualAveragingEngine,
    RunConfig,
    cli,
    engine,
    harness,
    lazy_cycle_pair,
    objectives,
    regret,
    split_ring_schedule,
    topology,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module("bench_tracer", TRACER_PATH)


def load_bench_run(monkeypatch):
    """``bench/run.py`` loaded as the tracer is. Its import sets
    OPENBLAS_NUM_THREADS and runs ``from tracer import``; both act inside
    ``monkeypatch``, so the variable and ``sys.modules`` are as they were
    after the test."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setitem(sys.modules, "tracer", load_tracer())
    return load_module("bench_run", BENCH / "run.py")


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
    return traced_simulate(config)["harness.env"], rows


def traced_simulate(config):
    """Run ``simulate`` as one traced operation; return its {layer: (calls,
    self seconds)}."""
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(harness, tracer_module.LAYERS)
    tracer.install()
    try:
        op = tracer.begin_op()
        harness.simulate(config)
        tracer.end_op(op)
    finally:
        tracer.uninstall()
    return tracer.per_op()[0]


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
    """At p = 20 a map block is 1228 rounds, so T = 2001 ends in a short
    block; the blocks still cover every round once."""
    T, p = 2001, 20
    config = RunConfig("oda-c", lazy_cycle_pair(p), ActionBox.uniform(-10, 10, p), T=T, seed=5)
    (calls, self_s), rows = traced_map_blocks(config, monkeypatch)
    k = harness.BLOCK_VALUES // p
    assert rows == [k, T - k]
    assert calls == len(rows) == 2
    assert sum(rows) == T
    assert self_s > 0


@pytest.mark.parametrize(
    "config",
    [
        RunConfig("oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=45, seed=5),
        RunConfig("oda-ps", split_ring_schedule(6, 3), ActionBox.uniform(-10, 10, 6), T=45, seed=5),
    ],
    ids=["oda-c", "oda-ps"],
)
def test_engine_layers_time_every_round(config):
    """``engine.step`` and ``engine.local_updates`` time the engine's class
    methods, one span per round each. A round loop that bound them before
    the tracer wrapped the class, or inlined them, would keep the names and
    read 0 s there."""
    layers = traced_simulate(config)
    assert layers["engine.step"][0] == config.T
    assert layers["engine.local_updates"][0] == config.T


def test_finalize_forms_no_step_and_one_curvature(monkeypatch):
    """``finalize_s`` measures the first pass over a history: it reads the
    step sizes ``simulate`` formed as one vector, and the Gram A^T A
    ``simulate`` formed for the round loop, and forms G by one eigensolve
    of it. A finalize that formed the step sizes or the Gram again, or
    formed the curvature per prefix or by an iteration, would slow every
    benchmark operation without failing a check."""
    step_calls = []
    step_sizes = regret.step_sizes

    def counting_steps(T, alpha=None):
        step_calls.append(T)
        return step_sizes(T, alpha)

    monkeypatch.setattr(regret, "step_sizes", counting_steps)
    monkeypatch.setattr(harness, "step_sizes", counting_steps)
    gram_calls = count_evaluations(monkeypatch, objectives.QuadraticLoss, "gram")
    curvature_calls = count_evaluations(monkeypatch, objectives.QuadraticLoss, "curvature")
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
    assert gram_calls == [(5, 5)]
    assert curvature_calls == [(5, 5)]
    assert not hasattr(netdual, "power_iteration")
    assert not hasattr(objectives, "power_iteration")


# sweep20-prefix's run and horizons: n = p = m = 20, 16 prefixes of 4000 rounds
SWEEP_HORIZONS = tuple(range(250, 4001, 250))


def sweep_config(T: int) -> RunConfig:
    return RunConfig("oda-c", lazy_cycle_pair(20), ActionBox.uniform(-10, 10, 20), T=T, seed=5)


def test_cumulative_sweep_prices_the_run_once(monkeypatch):
    """A cumulative sweep evaluates the losses once, at the run's actions
    (``round_columns``), and its round loop, comparators and bounds share
    one Gram A^T A (``QuadraticLoss.gram``) and one eigensolve of it
    (``QuadraticLoss.curvature``). A comparator that priced its point with
    ``QuadraticLoss.value``, or a prefix that formed its Gram or G again,
    would add a (T, m) pass or an O(p^3) solve to each of ``finalize_s``'s
    prefixes without failing a check."""
    value_calls = []
    value = objectives.QuadraticLoss.value

    def counting_value(self, x):
        value_calls.append(np.shape(x))
        return value(self, x)

    monkeypatch.setattr(objectives.QuadraticLoss, "value", counting_value)
    gram_calls = count_evaluations(monkeypatch, objectives.QuadraticLoss, "gram")
    curvature_calls = count_evaluations(monkeypatch, objectives.QuadraticLoss, "curvature")
    rows = harness.sweep(sweep_config(1), SWEEP_HORIZONS, cumulative=True)
    assert [row.T for row in rows] == list(SWEEP_HORIZONS)
    assert value_calls == [(4000, 20)]
    assert gram_calls == [(20, 20)]
    assert curvature_calls == [(20, 20)]


def test_a_measured_prefix_allocates_no_round_by_measurement_array():
    """Once the run's columns exist, a prefix of T rounds allocates O(T + p^2):
    its trace's columns and the comparator's solve, under the T m floats
    that one (T, m) residual would take."""
    history = harness.simulate(sweep_config(SWEEP_HORIZONS[-1]))
    harness.finalize(history, SWEEP_HORIZONS[0])  # forms the run's columns
    m = history.losses.q.shape[1]
    for T in SWEEP_HORIZONS:
        tracemalloc.start()
        try:
            harness.finalize(history, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * m * 8, (T, peak)


# the bench's problem line for each check-invariants condition
BENCH_PROBLEMS = {
    "regret_within_partial_bound": "regret exceeds the partial bound",
    "disagreement_within_bound": "disagreement exceeds its bound",
    "regret_within_theory_bound": "exceeds theory bound",
    "mean_field_ok": "mean-field residual",
    "weights_ok": "weight residual",
}


@pytest.mark.parametrize("flag", [None, *INVARIANT_FLAGS])
def test_bench_checks_agree_with_check_invariants(
    flag, pushsum_trace, monkeypatch, tmp_path, capsys
):
    """``bench/run.py::trace_problems`` copies the five ``check-invariants``
    conditions and their tolerances. On a passing trace and on each one
    pushed just past one tolerance, both must fail the same condition or
    none, or the benchmark would count an operation as failed that the
    CLI passes, or pass one that it fails."""
    trace = pushsum_trace if flag is None else pushed_past(pushsum_trace, flag)
    problems = load_bench_run(monkeypatch).trace_problems(trace)
    monkeypatch.setattr(cli, "run", lambda config: trace)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"algorithm": "oda-ps", "T": 1}))
    code = cli.main(["check-invariants", "--config", str(config)])
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [name for name in INVARIANT_FLAGS if checks[name] is False]
    assert failed == ([] if flag is None else [flag])
    assert code == (0 if flag is None else 3)
    assert len(problems) == len(failed)
    for name, problem in zip(failed, problems):
        assert BENCH_PROBLEMS[name] in problem


def test_test_helpers_stay_out_of_the_library():
    """What only tests call lives in ``tests/conftest.py``: the prox step,
    the step rule, the box check, the decay certificate, the engine's mean
    field and the engine aliases; so do the four per-engine closed forms,
    which both bounds now derive from one contraction factor. The harness
    keeps one alias, the name ``bench/tracer.py`` finds the engine's
    methods under. The losses own their algebra: G is
    ``QuadraticLoss.curvature``, so no module function, run column or
    pass-through option carries it."""
    closed_forms = ("circulation_disagreement_bound", "circulation_regret_bound",
                    "pushsum_disagreement_bound", "pushsum_regret_bound")
    retired = {
        netdual: ("project", "inv_sqrt_step", "check_geometric_decay", "DecayReport",
                  "CirculationEngine", "PushSumEngine", "prox", *closed_forms),
        regret: ("inv_sqrt_step", *closed_forms),
        objectives: ("curvature",),
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
    assert "G" not in {f.name for f in dataclasses.fields(regret.RoundColumns)}
    assert "G" not in inspect.signature(objectives.lipschitz_constants).parameters
    assert harness.CirculationEngine is DualAveragingEngine
    assert not hasattr(harness, "PushSumEngine")
    assert len(netdual.__all__) == 42
