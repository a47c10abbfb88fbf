import json
import math
import os

import pytest

from netdual import ActionBox, RunConfig, harness, run, split_ring_schedule
from netdual.cli import _trace_checks, main

BAD_PAIR_GRAPH = {
    "n": 3,
    "mode": "static",
    "edges": [[0, 1], [1, 2]],
    "r": [1 / 3, 1 / 3, 1 / 3],
    "M": [[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.0, 0.25, 0.65]],
}

SINGLETON_GRAPH = {"n": 1, "mode": "static", "edges": [], "r": [1.0], "M": [[1.0]]}


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
        code, payload = invoke(
            ["sweep", "--config", cfg, "--horizons", "5,abc", "--out", str(tmp_path)],
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
        ],
        ids=[
            "T-str", "T-float", "seed-str", "seed-negative", "tol-str",
            "block-str", "b_cap-str", "regular-str", "sigma2-str", "box-str", "alpha-str",
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


class TestVacuousBounds:
    def test_infinite_bounds_are_named(self):
        config = RunConfig(
            "oda-ps", split_ring_schedule(50, 5), ActionBox.uniform(-10, 10, 50), T=20, seed=11
        )
        checks = _trace_checks(run(config))
        assert checks["disagreement_within_bound"] and checks["regret_within_theory_bound"]
        assert checks["vacuous_bounds"] == ["disagreement_bound", "theory_bound"]
