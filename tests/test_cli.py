import contextlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdual import ActionBox, RunConfig, harness, lazy_cycle_pair, run, split_ring_schedule
from netdual.cli import _trace_checks, main

BAD_PAIR_GRAPH = {
    "n": 3,
    "mode": "static",
    "edges": [[0, 1], [1, 2]],
    "r": [1 / 3, 1 / 3, 1 / 3],
    "M": [[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.0, 0.25, 0.65]],
}

SINGLETON_GRAPH = {"n": 1, "mode": "static", "edges": [], "r": [1.0], "M": [[1.0]]}

PATH_PAIR = {
    "n": 2, "mode": "static", "edges": [[0, 1]], "r": [0.5, 0.5], "M": [[0.5, 0.5], [0.5, 0.5]]
}



def eye5_with(x):
    """The 5x5 identity with one entry set to x."""
    rows = np.eye(5).tolist()
    rows[2][3] = x
    return rows


# self-loops only: no window of any length is strongly connected
UNCONNECTED_SCHEDULE = {"n": 2, "mode": "schedule", "graphs": [[[0, 0], [1, 1]]], "period": 1}

# One config fragment per way a network can break its algorithm's contract,
# with the exit code and the error line every command must end in. The short
# explicit schedule brings its own horizon.
BAD_NETWORKS = {
    "unconnected schedule": (
        {"algorithm": "oda-ps", "graph": UNCONNECTED_SCHEDULE},
        3,
        "schedule is not strongly connected over any window within the cap",
    ),
    # reversible and row-stochastic, but node 2 is isolated and M mixes it anyway
    "pair off its graph": (
        {
            "algorithm": "oda-c",
            "graph": {
                "n": 3, "mode": "static", "edges": [[0, 1]], "r": [1 / 3] * 3,
                "M": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
            },
        },
        3,
        "weight pair failed validation: connected, support at entry (0, 2)",
    ),
    # connected graph and a valid reversible pair, but M leaves node 2 alone:
    # its spectral gap is 0 plus roundoff
    "pair that does not mix": (
        {
            "algorithm": "oda-c",
            "graph": {
                "n": 3, "mode": "static", "edges": [[0, 1], [1, 2]], "r": [0.5, 0.25, 0.25],
                "M": [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            },
        },
        3,
        "weight pair does not mix: spectral gap not above 1e-10",
    ),
    # periodic: the two agents swap their duals every round, gap exactly 0
    "swap pair": (
        {
            "algorithm": "oda-c",
            "graph": {**PATH_PAIR, "M": [[0.0, 1.0], [1.0, 0.0]]},
        },
        3,
        "weight pair does not mix: spectral gap not above 1e-10",
    ),
    "loopless schedule": (
        {
            "algorithm": "oda-ps",
            "graph": {
                "n": 3, "mode": "schedule", "period": 1,
                "graphs": [[[0, 0], [1, 1], [0, 1], [1, 2], [2, 0]]],
            },
        },
        2,
        "node 2 is missing its self-loop in graph 0",
    ),
    "short explicit schedule": (
        {
            "algorithm": "oda-ps",
            "T": 50,
            "graph": {
                "n": 2, "mode": "schedule", "period": 0,
                "graphs": [[[0, 0], [1, 1], [0, 1], [1, 0]]] * 3,
            },
        },
        2,
        "explicit schedule has 3 graphs; a horizon of T=50 needs one per round",
    ),
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def invoke(argv, capsys):
    code = main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


class TestRunCommand:
    def test_success_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-c", "T": 25, "seed": 3})
        out = str(tmp_path / "results")
        code, payload = invoke(["run", "--config", cfg, "--out", out], capsys)
        assert code == 0
        assert payload["command"] == "run"
        assert payload["T"] == 25 and payload["n"] == 5
        assert payload["regret"] <= payload["theory_bound"]
        assert payload["checks"]["regret_within_partial_bound"] is True
        assert payload["checks"]["disagreement_within_bound"] is True
        assert payload["checks"]["max_mean_field_residual"] <= 1e-8
        trace_path = os.path.join(out, "trace.csv")
        assert payload["trace"] == trace_path
        with open(trace_path) as f:
            assert len(f.readlines()) == 26
        assert payload["comparator"]["iterations"] >= 1
        assert 0.0 <= payload["comparator"]["residual"] <= 1e-8

    @pytest.mark.parametrize("which", [0, 1], ids=["oda-c", "oda-ps"])
    def test_graph_file_runs_as_the_same_graph_inline(self, which, tmp_path, capsys):
        inline = dict(VALID_CONFIGS[which], T=30)
        from_file = dict(inline, graph=write_json(tmp_path, "graph.json", inline["graph"]))
        traces = []
        for name, d in (("inline", inline), ("file", from_file)):
            cfg = write_json(tmp_path, f"{name}.json", d)
            code, payload = invoke(["run", "--config", cfg, "--out", str(tmp_path / name)], capsys)
            assert code == 0
            with open(payload["trace"], "rb") as f:
                traces.append(f.read())
        assert traces[0] == traces[1]

    def test_singular_sensing_map(self, tmp_path, capsys):
        # rank-1 A: every y with y0 + 2 y1 + y2 / 2 = 0.9 is a minimiser
        d = {
            "algorithm": "oda-c", "T": 300, "seed": 1, "box": [-1.0, 1.0],
            "graph": VALID_CONFIGS[0]["graph"],
            "environment": {
                "type": "fixed", "q": [[1, 2, 3], [2, 1, 0]],
                "A": [[1, 2, 0.5], [2, 4, 1], [0, 0, 0]],
            },
        }
        cfg = write_json(tmp_path, "c.json", d)
        code, payload = invoke(["run", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert code == 0
        assert payload["checks"]["regret_within_partial_bound"] is True
        # 75 * min_a [(a-1)^2 + (2a-2)^2 + 9 + (a-2)^2 + (2a-1)^2], at a = 0.9
        assert payload["comparator_value"] == pytest.approx(817.5, rel=1e-12)
        assert payload["comparator"]["residual"] <= 1e-8

    def test_unreachable_comparator_tol_is_runtime_error(self, tmp_path, capsys):
        d = {"algorithm": "oda-c", "T": 25, "seed": 3, "comparator_tol": 1e-300}
        cfg = write_json(tmp_path, "c.json", d)
        code, payload = invoke(["run", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert code == 4
        assert set(payload) == {"error", "command", "best_value", "grad_norm"}
        passes = int(re.search(r"Newton passes (\d+)", payload["error"]).group(1))
        assert passes <= 501  # the start and at most the default cap of 500 more
        assert 1e-300 < payload["grad_norm"] < 1e-6
        assert math.isfinite(payload["best_value"])

    def test_pushsum_reports_weight_residual(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-ps", "T": 25})
        code, payload = invoke(
            ["run", "--config", cfg, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 0
        assert payload["checks"]["max_weight_residual"] <= 1e-9
        assert payload["checks"]["vacuous_bounds"] == []

    def test_seed_override_changes_outcome(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-c", "T": 25, "seed": 3})
        out = str(tmp_path / "o")
        _, one = invoke(["run", "--config", cfg, "--out", out, "--seed", "1"], capsys)
        _, two = invoke(["run", "--config", cfg, "--out", out, "--seed", "2"], capsys)
        assert one["seed"] == 1 and two["seed"] == 2
        assert one["regret"] != two["regret"]

    def test_missing_config_file_is_parse_error(self, tmp_path, capsys):
        code, payload = invoke(
            ["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "error" in payload

    def test_garbage_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{algorithm: oda-c")
        code, payload = invoke(
            ["run", "--config", str(path), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "not valid JSON" in payload["error"]

    def test_config_that_is_not_an_object_is_parse_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", [{"algorithm": "oda-c", "T": 5}])
        code, payload = invoke(["run", "--config", cfg, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert payload["error"] == "experiment config must be a JSON object"

    def test_negative_seed_flag_is_parse_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-c", "T": 5})
        code, payload = invoke(
            ["run", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"], capsys
        )
        assert code == 2
        assert payload["error"] == "seed must be nonnegative, got -1"

    def test_invalid_pair_is_validation_error(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path, "c.json", {"algorithm": "oda-c", "T": 5, "graph": BAD_PAIR_GRAPH}
        )
        code, payload = invoke(
            ["run", "--config", cfg, "--out", str(tmp_path)], capsys
        )
        assert code == 3
        assert "row_stochastic" in payload["error"]

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_rows_and_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-c", "T": 1, "seed": 4})
        out = str(tmp_path / "s")
        code, payload = invoke(
            ["sweep", "--config", cfg, "--horizons", "5,10,20", "--out", out], capsys
        )
        assert code == 0
        assert [r["T"] for r in payload["rows"]] == [5, 10, 20]
        with open(os.path.join(out, "sweep.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "T,regret,avg_regret,theory_bound"
        assert len(lines) == 4

    def test_cumulative_flag(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-ps", "T": 1})
        code, payload = invoke(
            [
                "sweep", "--config", cfg, "--horizons", "4,8",
                "--out", str(tmp_path / "s"), "--cumulative",
            ],
            capsys,
        )
        assert code == 0
        assert payload["cumulative"] is True

    def test_bad_horizons_is_parse_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-c", "T": 1})
        for horizons in ("5,abc", ","):
            code, payload = invoke(
                ["sweep", "--config", cfg, "--horizons", horizons, "--out", str(tmp_path)],
                capsys,
            )
            assert code == 2
            assert "horizons" in payload["error"]


class TestValidateGraphCommand:
    def test_static_pass_reports_gap(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-c", "T": 1})
        code, payload = invoke(["validate-graph", "--config", cfg], capsys)
        assert code == 0
        assert payload["passed"] is True
        assert payload["spectral_gap"] == pytest.approx(0.5716186271093948)
        assert all(c["ok"] for c in payload["checks"])

    def test_static_failure_names_row(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path, "c.json", {"algorithm": "oda-c", "T": 1, "graph": BAD_PAIR_GRAPH}
        )
        code, payload = invoke(["validate-graph", "--config", cfg], capsys)
        assert code == 3
        assert payload["passed"] is False
        failed = {c["name"]: c for c in payload["checks"] if not c["ok"]}
        assert failed["row_stochastic"]["detail"] == "row 2"

    def test_schedule_reports_window_and_constants(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-ps", "T": 1})
        code, payload = invoke(["validate-graph", "--config", cfg], capsys)
        assert code == 0
        assert payload["B"] == 3
        assert payload["constants"]["gamma"] == pytest.approx(5.0**-15)
        assert payload["constants"]["beta"] == 4.0

    def test_zero_singular_value_sup_mixes_in_one_round(self, tmp_path, capsys):
        d = {"algorithm": "oda-ps", "T": 1, "regular": True, "sigma2_sup": 0.0}
        cfg = write_json(tmp_path, "c.json", d)
        code, payload = invoke(["validate-graph", "--config", cfg], capsys)
        assert code == 0
        constants = payload["constants"]
        assert (constants["beta"], constants["theta"], constants["gamma"]) == (
            math.sqrt(2.0), 0.0, 1.0
        )
        assert constants["log_one_minus_theta"] == 0.0

    def test_disconnected_schedule_fails(self, tmp_path, capsys):
        graph = {
            "n": 2,
            "mode": "schedule",
            "graphs": [[[0, 0], [1, 1]]],
            "period": 1,
        }
        cfg = write_json(
            tmp_path, "c.json", {"algorithm": "oda-ps", "T": 1, "graph": graph}
        )
        code, payload = invoke(["validate-graph", "--config", cfg], capsys)
        assert code == 3
        assert payload["B"] is None


class TestBoundsCommand:
    def test_sqrt_growth_law(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path,
            "c.json",
            {
                "algorithm": "oda-c",
                "T": 1,
                "environment": {"type": "fixed", "q": [[1, 2, 3, 4, 5]]},
            },
        )
        code, payload = invoke(
            ["bounds", "--config", cfg, "--horizons", "100,400,1600"], capsys
        )
        assert code == 0
        rows = payload["rows"]
        coeffs = [r["sqrt_coefficient"] for r in rows]
        assert coeffs[0] == pytest.approx(coeffs[1], rel=1e-12)
        assert coeffs[1] == pytest.approx(coeffs[2], rel=1e-12)
        C = payload["C"]
        mains = [r["bound"] - C * math.sqrt(r["T"] + 1) for r in rows]
        assert mains[1] / mains[0] == pytest.approx(2.0, rel=1e-12)
        assert mains[2] / mains[1] == pytest.approx(2.0, rel=1e-12)

    def test_single_agent_coefficient_is_bare_lipschitz_square(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path,
            "c.json",
            {
                "algorithm": "oda-c",
                "T": 1,
                "graph": SINGLETON_GRAPH,
                "box": [-1.0, 1.0],
                "environment": {"type": "fixed", "q": [[2.0]]},
            },
        )
        code, payload = invoke(
            ["bounds", "--config", cfg, "--horizons", "100"], capsys
        )
        assert code == 0
        # L = 1 * (1 * 1 + 2) = 3 for the identity sensing map on [-1, 1]
        assert payload["L"] == pytest.approx(3.0)
        assert payload["rows"][0]["sqrt_coefficient"] == pytest.approx(9.0, rel=1e-12)

    def test_pushsum_bounds_report_contraction(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-ps", "T": 1})
        code, payload = invoke(
            ["bounds", "--config", cfg, "--horizons", "10,100"], capsys
        )
        assert code == 0
        assert payload["B"] == 3
        assert payload["rows"][0]["bound"] < payload["rows"][1]["bound"]

    def test_horizon_past_an_explicit_schedule_is_parse_error(self, tmp_path, capsys):
        graph = {
            "n": 2, "mode": "schedule", "period": 0,
            "graphs": [[[0, 0], [1, 1], [0, 1], [1, 0]]] * 3,
        }
        cfg = write_json(tmp_path, "c.json", {"algorithm": "oda-ps", "T": 3, "graph": graph})
        code, payload = invoke(["bounds", "--config", cfg, "--horizons", "3,1000"], capsys)
        assert code == 2
        assert payload == {
            "error": "explicit schedule has 3 graphs; a horizon of T=1000 needs one per round",
            "command": "bounds",
        }
        code, payload = invoke(["bounds", "--config", cfg, "--horizons", "0,3"], capsys)
        assert code == 0
        assert [row["T"] for row in payload["rows"]] == [0, 3]


class TestCheckInvariantsCommand:
    def test_passes_on_stock_configs(self, tmp_path, capsys):
        for algorithm in ("oda-c", "oda-ps"):
            cfg = write_json(
                tmp_path, f"{algorithm}.json", {"algorithm": algorithm, "T": 40, "seed": 6}
            )
            code, payload = invoke(["check-invariants", "--config", cfg], capsys)
            assert code == 0
            assert payload["passed"] is True
            assert payload["checks"]["mean_field_ok"] is True
            assert payload["checks"]["weights_ok"] is True


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("T", "abc"),
            ("T", 1.7),
            ("seed", "x"),
            ("seed", -1),
            ("comparator_tol", "q"),
            ("blocks", [[0, 1], ["x"], [2, 3, 4]]),
            ("b_cap", "z"),
            ("regular", "no"),
            ("sigma2_sup", "s"),
            ("box", ["a", 1.0]),
            ("alpha", {"values": ["x"] * 21}),
            ("graph", {"n": "x", "mode": "schedule", "graphs": [[[0, 0]]]}),
            ("graph", {"n": 1, "mode": "schedule", "graphs": [[[0, 0]]], "period": "z"}),
            ("box", {"lo": ["a"], "hi": [1]}),
            ("environment", {"type": "sensing", "A": "x"}),
            ("environment", {"type": "fixed", "q": [["a"]]}),
            ("sigma2_sup", 0.5),
            ("alpha", {"values": [1.0] * 20}),
            ("graph", {**PATH_PAIR, "r": ["a", 0.5]}),
            ("graph", {"n": 2, "mode": "schedule", "graphs": [[["a", 0]]]}),
            ("graph", {**PATH_PAIR, "edges": [[0, 1, 2]]}),
            ("graph", {"n": 2, "mode": "schedule", "graphs": 5}),
            ("box", {"lo": [-1.0, math.nan, -1.0, -1.0, -1.0], "hi": [1.0] * 5}),
            ("box", {"lo": [-1.0] * 5, "hi": [1.0, 1.0, math.inf, 1.0, 1.0]}),
            ("environment", {"type": "fixed", "q": [[1, math.nan, 0, 0, 0]]}),
            ("environment", {"type": "fixed", "q": [[0] * 5], "A": eye5_with(math.inf)}),
            ("environment", {"type": "sensing", "target": [0, math.inf, 0, 0, 0]}),
            ("environment", {"type": "sensing", "A": eye5_with(math.nan)}),
            ("environment", {"type": "sensing", "P": eye5_with(-math.inf)}),
            ("graph", {**PATH_PAIR, "r": [math.nan, 0.5]}),
            ("graph", {**PATH_PAIR, "M": [[0.5, math.inf], [0.5, 0.5]]}),
            ("alpha", {"values": 5}),
            ("alpha", {"values": None}),
            ("alpha", {"values": [1.0, math.nan] + [1.0] * 19}),
            ("alpha", {"values": [1.0] * 20 + [-1.0]}),
            ("alpha", {"values": [1.0] * 5 + [math.inf] + [1.0] * 15}),
            ("blocks", [[0, 1], [2, 3, 4]]),
            ("box", "wide"),
            ("environment", {"type": "fixed"}),
            ("graph", {"n": 2, "mode": "schedule", "graphs": [[[0, 0], [1, 1]]], "period": -1}),
            ("graph", {"n": 2, "mode": "schedule", "graphs": []}),
            ("graph", {"n": 2, "mode": "schedule", "graphs": [[[0, 0], [1, 1], [0, 2]]]}),
        ],
        ids=[
            "T-str", "T-float", "seed-str", "seed-negative", "tol-str",
            "block-str", "b_cap-str", "regular-str", "sigma2-str", "box-str", "alpha-str",
            "graph-n-str", "period-str", "box-lo-str", "sensing-A-str", "fixed-q-str",
            "sigma2-not-regular", "alpha-short", "graph-r-str", "arc-str", "edge-triple",
            "graphs-int", "box-lo-nan", "box-hi-inf", "fixed-q-nan", "fixed-A-inf",
            "sensing-target-inf", "sensing-A-nan", "sensing-P-inf", "graph-r-nan", "graph-M-inf",
            "alpha-values-int", "alpha-values-null", "alpha-values-nan",
            "alpha-values-negative-last", "alpha-values-inf", "blocks-agent-count", "box-neither",
            "fixed-no-q", "period-negative", "graphs-empty", "arc-out-of-range",
        ],
    )
    def test_malformed_field_is_parse_error_before_simulating(
        self, field, value, tmp_path, capsys, monkeypatch
    ):
        def no_simulation(config):
            raise AssertionError("simulate reached with a malformed config")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        d = {"algorithm": "oda-ps", "T": 20, field: value}
        cfg = write_json(tmp_path, "c.json", d)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["command"] == "run"
        assert "error" in payload


# bad network x command; the unconnected schedule's cells keep the short
# ids "<command>-<T>"
CERTIFICATION_CELLS = [
    pytest.param(
        network, command, T,
        id=f"{command}-{T}" + ("" if network == "unconnected schedule" else f"-{network}"),
    )
    for network in BAD_NETWORKS
    for command, T in (
        ("run", 20), ("run", 0), ("check-invariants", 20), ("check-invariants", 0),
        ("sweep", 20), ("bounds", 20),
    )
]


class TestNetworkCertification:
    @pytest.mark.parametrize("network, command, T", CERTIFICATION_CELLS)
    def test_unconnected_schedule_fails_before_round_one(
        self, network, command, T, tmp_path, capsys, monkeypatch
    ):
        def no_step(self, u, alpha):
            raise AssertionError("engine stepped on an uncertified network")

        monkeypatch.setattr(harness.DualAveragingEngine, "step", no_step)
        fragment, code, error = BAD_NETWORKS[network]
        cfg = write_json(tmp_path, "c.json", {"T": T, **fragment})
        extra = {
            "run": ["--out", str(tmp_path / "o")],
            "check-invariants": [],
            "sweep": ["--horizons", "5,10", "--out", str(tmp_path / "o")],
            "bounds": ["--horizons", "5,10"],
        }[command]
        assert main([command, "--config", cfg, *extra]) == code
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line) for line in lines] == [{"error": error, "command": command}]

    @pytest.mark.parametrize("network", BAD_NETWORKS)
    def test_validate_graph_reaches_the_same_verdict(self, network, tmp_path, capsys):
        fragment, code, error = BAD_NETWORKS[network]
        cfg = write_json(tmp_path, "c.json", {"T": 20, **fragment})
        assert main(["validate-graph", "--config", cfg]) == code
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        if code == 3:
            assert payload["passed"] is False
            if payload["mode"] == "static":
                assert payload["error"] == error
        else:
            assert payload == {"error": error, "command": "validate-graph"}

    def test_slowest_stock_pair_still_certifies(self):
        # the lazy 200-cycle mixes slowly, far above the roundoff tolerance
        config = RunConfig("oda-c", lazy_cycle_pair(200), ActionBox.uniform(-1, 1, 200), T=1)
        gap = harness.network_constants(config).fields["spectral_gap"]
        assert 4.9e-4 < gap < 5e-4

    def test_overflow_is_runtime_error_naming_the_round(self, tmp_path, capsys):
        d = {"algorithm": "oda-c", "T": 20, "environment": {"type": "fixed", "q": [[1e308] * 5]}}
        cfg = write_json(tmp_path, "c.json", d)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 4
        assert len(lines) == 1
        assert "round 1 " in json.loads(lines[0])["error"]


# One field of a valid config, or one entry of a number array in it, replaced
# by a value of the wrong kind or range.
POOL = ["x", True, None, -3, 2.5, math.nan, math.inf, [], [["a"]]]
TOP_FIELDS = (
    "algorithm", "T", "seed", "graph", "blocks", "box", "alpha", "environment",
    "regular", "sigma2_sup", "b_cap", "comparator_tol",
)
VALID_CONFIGS = (
    {
        "algorithm": "oda-c", "T": 4, "seed": 1, "box": {"lo": [-2.0] * 3, "hi": [2.0] * 3},
        "blocks": [[0], [2], [1]],
        "environment": {"type": "fixed", "q": [[1.0, 2.0, 3.0]]},
        "graph": {
            "n": 3, "mode": "static", "edges": [[0, 1], [1, 2], [2, 0]], "r": [1 / 3] * 3,
            "M": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
        },
    },
    {
        "algorithm": "oda-ps", "T": 5, "seed": 2, "blocks": 3, "b_cap": 4,
        "environment": {"type": "sensing", "target": [1.0, -1.0, 0.5]},
        "graph": {
            "n": 3, "mode": "schedule", "period": 2,
            "graphs": [[[0, 0], [1, 1], [2, 2], [0, 1]], [[0, 0], [1, 1], [2, 2], [1, 2], [2, 0]]],
        },
    },
)
GRAPH_FIELDS = (("n", "mode", "edges", "r", "M"), ("n", "mode", "graphs", "period"))
# the number arrays of each valid config, as key paths
NUMBER_ARRAYS = (
    (("box", "lo"), ("environment", "q", 0), ("graph", "r"), ("blocks", 1)),
    (("environment", "target"),),
)


def _finite_number(value) -> bool:
    # a bool inside a number array is still read as 0 or 1 (an open loose end)
    return isinstance(value, (int, float)) and math.isfinite(value)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(("run", "bounds", "sweep", "validate-graph")),
    horizons=st.sampled_from(("-5", "0", "x", "1,,2")),
    which=st.integers(0, 1),
    place=st.sampled_from(("top", "graph", "array")),
    index=st.integers(0, len(TOP_FIELDS) - 1),
    entry=st.integers(0, 2),
    value=st.sampled_from(POOL),
)
def test_command_ends_in_a_documented_exit_code(
    command, horizons, which, place, index, entry, value, out_dir
):
    d = json.loads(json.dumps(VALID_CONFIGS[which]))
    if place == "graph":
        fields = GRAPH_FIELDS[which]
        d["graph"][fields[index % len(fields)]] = value
    elif place == "array":
        paths = NUMBER_ARRAYS[which]
        keys = paths[index % len(paths)]
        array = d
        for key in keys:
            array = array[key]
        array[entry % len(array)] = value
    else:
        d[TOP_FIELDS[index]] = value
    path = out_dir / "c.json"
    path.write_text(json.dumps(d))
    extra = {
        "run": ["--out", str(out_dir)],
        "bounds": [f"--horizons={horizons}"],
        "sweep": [f"--horizons={horizons}", "--out", str(out_dir)],
        "validate-graph": [],
    }[command]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), np.errstate(all="ignore"):
        code = main([command, "--config", str(path), *extra])
    lines = stdout.getvalue().splitlines()
    assert code in (0, 2, 3, 4)
    assert len(lines) == 1
    json.loads(lines[0])
    if place == "array" and not _finite_number(value):
        assert code == 2, lines[0]
    if place == "array" and keys[0] == "blocks":
        # no value in the pool keeps the blocks a partition of 0..p-1
        assert code == 2, lines[0]


class TestVacuousBounds:
    def test_infinite_bounds_are_named(self):
        config = RunConfig(
            "oda-ps", split_ring_schedule(50, 5), ActionBox.uniform(-10, 10, 50), T=20, seed=11
        )
        checks = _trace_checks(run(config))
        assert checks["disagreement_within_bound"] and checks["regret_within_theory_bound"]
        assert checks["vacuous_bounds"] == ["disagreement_bound", "theory_bound"]
