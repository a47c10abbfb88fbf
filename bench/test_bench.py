"""Fast self-test of the benchmark on tiny cells (n=5, T=50).

    python3 -m pytest -q bench/test_bench.py

Checks the output schema against BENCHMARK.json, that every tracer
wrapper fired with the exact call counts the round loop implies, that the
traced run writes the same CSV and regret as the untraced one, and that
the benchmark refuses to run without the netdual sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
HARNESS = bench.import_netdual()
T = 50
TINY = {
    "oda-c": bench.Workload("tiny-oda-c", "oda-c", bench.cycle_graph(5), T),
    "oda-ps": bench.Workload("tiny-oda-ps", "oda-ps", bench.split_ring(5, 3), T),
    "sweep": bench.Workload(
        "tiny-sweep", "oda-c", bench.cycle_graph(5), T, horizons=(10, 20, 30, 40, T)
    ),
}


def _run(kind, trace, tmp_path):
    return bench.run(HARNESS, TINY[kind], seed=7, seconds=0.05, trace=trace, out_dir=tmp_path)


def _check_schema(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])


def test_spec_names_the_benchmark_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(kind, tmp_path):
    result, checked, tracer = _run(kind, False, tmp_path)
    assert tracer is None
    _check_schema(result, SPEC["end_to_end"])
    metrics = result["metrics"]
    assert all(v["value"] > 0 for k, v in metrics.items() if k != "peak_mb")
    # a tiny cell can reuse memory earlier tests freed: no resident-set growth
    assert metrics["peak_mb"]["value"] >= 0
    assert checked["failed_frac"] == 0.0
    assert checked["comparator_iterations"] >= 1
    if kind == "oda-ps":
        assert checked["bound_slack"] == "vacuous" or checked["bound_slack"] >= 1.0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_fires_every_wrapper(kind, tmp_path):
    result, _, tracer = _run(kind, True, tmp_path)
    _check_schema(result, SPEC["per_layer"])
    calls = tracer.per_op()[-1]
    n = 5
    rounds = T
    finalizes = 1
    if kind == "sweep":
        finalizes = len(TINY[kind].horizons)
        measured = sum(TINY[kind].horizons)
    else:
        measured = T
    assert calls["harness.simulate"][0] == 1
    assert calls["harness.finalize"][0] == finalizes
    assert calls["harness.write_csv"][0] == 1
    assert calls["harness.env"][0] == rounds
    assert calls["engine.local_updates"][0] == rounds
    assert calls["engine.step"][0] == rounds
    assert calls["engine.diag"][0] == (4 if kind == "oda-ps" else 3) * rounds
    assert calls["objectives.gradient"][0] == n * rounds + measured
    assert calls["objectives.value"][0] == 5 * measured
    assert calls["regret.offline_comparator"][0] == finalizes
    assert calls["regret.network_regret"][0] == finalizes
    assert calls["regret.decomposition_terms"][0] == finalizes
    pushsum = kind == "oda-ps"
    assert calls.get("topology.matrix_at", (0, 0))[0] == (rounds if pushsum else 0)
    assert calls.get("topology.validate_b_strong", (0, 0))[0] == (1 if pushsum else 0)
    assert calls.get("topology.contraction_constants", (0, 0))[0] == (1 if pushsum else 0)
    assert calls.get("harness.sweep", (0, 0))[0] == (1 if kind == "sweep" else 0)
    metrics = result["metrics"]
    assert metrics["objectives.gradient.calls"]["value"] == n * rounds + measured
    assert metrics["harness.history_bytes"]["value"] > 0
    assert 0.0 <= metrics["trace.unattributed_frac"]["value"] < 0.5


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_matches_untraced_outputs(kind, tmp_path):
    b = bench.Bench(HARNESS, TINY[kind], seed=7, out_dir=tmp_path)
    plain = b.attempt(bench.Tracer(HARNESS, bench.PROBE_LAYERS), "untraced")
    traced = b.attempt(bench.Tracer(HARNESS), "traced")
    assert not b.failures
    assert traced["regret"] == plain["regret"]
    assert traced["csv_sha256"] == plain["csv_sha256"]
    # the wrappers are gone again
    assert not hasattr(HARNESS.simulate, "__wrapped__")
    assert not hasattr(HARNESS.QuadraticLoss.gradient, "__wrapped__")


def test_every_layer_is_wrapped_at_this_commit():
    assert bench.Tracer(HARNESS).missing == []


def test_a_layer_that_cannot_be_wrapped_makes_the_run_incorrect(monkeypatch, tmp_path, capsys):
    absent = ("harness.absent", "harness", ("no_such_function",))
    monkeypatch.setattr(bench, "PROBE_LAYERS", bench.PROBE_LAYERS + (absent,))
    result, _, _ = _run("oda-c", False, tmp_path)
    assert result["correct"] is False and result["metrics"] == {}
    assert "harness.absent: harness.no_such_function" in capsys.readouterr().out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "bench", tmp_path / "bench")
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pushsum50-sched", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
