import csv
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import count_evaluations, inv_sqrt_step, record_primals

from netdual import (
    ActionBox,
    BlockMap,
    ConfigError,
    DigraphSchedule,
    DualAveragingEngine,
    FixedEnvironment,
    QuadraticLoss,
    RunConfig,
    SensingEnvironment,
    SweepRow,
    TopologyError,
    cli,
    config_from_dict,
    contraction_constants,
    finalize,
    harness,
    lazy_cycle_pair,
    prox_sup,
    run,
    simulate,
    spectral_gap,
    split_ring_schedule,
    sweep,
    validate_b_strong,
    write_sweep_csv,
    write_trace_csv,
)
from netdual import engine as engine_module
from netdual.harness import (
    SWEEP_HEADER,
    TRACE_HEADER,
    covariance_sqrt,
    fixed_environment_factory,
    run_generator,
    sensing_environment_factory,
)
from netdual.regret import pushsum_log_kappa, step_sizes
from netdual.topology import PAIR_TOL


def base_config(algorithm="oda-c", T=20, **kw):
    topology = lazy_cycle_pair(5) if algorithm == "oda-c" else split_ring_schedule(5, 3)
    return RunConfig(
        algorithm=algorithm,
        topology=topology,
        box=ActionBox.uniform(-10.0, 10.0, 5),
        T=T,
        **kw,
    )


class TestCovarianceSqrt:
    def test_square_root_property(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = covariance_sqrt(P)
        assert np.allclose(S @ S, P)
        assert np.allclose(S, S.T)

    def test_zero(self):
        assert np.array_equal(covariance_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            covariance_sqrt(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            covariance_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ConfigError):
            covariance_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestEnvironments:
    def test_sensing_noise_free(self):
        A = np.array([[2.0, 0.0], [1.0, 1.0]])
        target = np.array([3.0, -1.0])
        env = SensingEnvironment(A=A, target=target, cov=np.zeros((2, 2)))
        rng = np.random.Generator(np.random.PCG64(0))
        q = env.measurements(1, rng)[0]
        assert np.array_equal(q, A @ target)
        assert np.array_equal(env.A, A)

    def test_sensing_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            SensingEnvironment(A=np.eye(3), target=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ConfigError, match="covariance must be"):
            SensingEnvironment(A=np.eye(2), target=np.zeros(2), cov=np.eye(3))

    def test_fixed_cycles(self):
        env = FixedEnvironment(A=np.eye(1), q_list=(np.array([1.0]), np.array([2.0])))
        rng = np.random.Generator(np.random.PCG64(0))
        qs = [q[0] for q in env.measurements(4, rng)]
        assert qs == [1.0, 2.0, 1.0, 2.0]

    def test_fixed_rejects_empty(self):
        with pytest.raises(ConfigError):
            FixedEnvironment(A=np.eye(1), q_list=())

    def test_fixed_rejects_q_of_the_wrong_length(self):
        with pytest.raises(ConfigError, match="each q must have shape"):
            FixedEnvironment(A=np.eye(2), q_list=(np.zeros(2), np.zeros(3)))

    def test_sensing_factory_deterministic(self):
        make = sensing_environment_factory()
        e1 = make(3, np.random.Generator(np.random.PCG64(9)))
        e2 = make(3, np.random.Generator(np.random.PCG64(9)))
        assert np.array_equal(e1.A, e2.A)
        assert np.array_equal(e1.target, e2.target)
        assert np.array_equal(np.diag(e1.cov), np.full(3, 0.25))

    def test_fixed_factory_defaults_identity(self):
        make = fixed_environment_factory([[1.0, 0.0]])
        env = make(2, np.random.Generator(np.random.PCG64(0)))
        assert np.array_equal(env.A, np.eye(2))


class TestRunConfig:
    def test_bad_algorithm(self):
        with pytest.raises(ConfigError):
            base_config(algorithm="gossip")

    def test_negative_horizon(self):
        with pytest.raises(ConfigError):
            base_config(T=-1)

    def test_topology_kind_must_match_algorithm(self):
        with pytest.raises(ConfigError):
            RunConfig(
                algorithm="oda-c",
                topology=split_ring_schedule(5, 3),
                box=ActionBox.uniform(-1, 1, 5),
                T=1,
            )
        with pytest.raises(ConfigError):
            RunConfig(
                algorithm="oda-ps",
                topology=lazy_cycle_pair(5),
                box=ActionBox.uniform(-1, 1, 5),
                T=1,
            )

    def test_box_dimension_must_match_blocks(self):
        with pytest.raises(ConfigError):
            RunConfig(
                algorithm="oda-c",
                topology=lazy_cycle_pair(5),
                box=ActionBox.uniform(-1, 1, 4),
                T=1,
            )

    def test_explicit_schedule_needs_a_graph_per_round(self):
        explicit = DigraphSchedule(n=5, graphs=split_ring_schedule(5, 3).graphs, period=0)
        assert replace(base_config(algorithm="oda-ps"), topology=explicit, T=3).T == 3
        with pytest.raises(ConfigError, match="explicit schedule has 3 graphs"):
            replace(base_config(algorithm="oda-ps"), topology=explicit, T=4)

    @pytest.mark.parametrize(
        "alpha",
        [
            (1.0, -1.0, 1.0, 1.0),
            (1.0, 1.0, 1.0, -1.0),
            (0.0, 1.0, 1.0, 1.0),
            (1.0, math.nan, 1.0, 1.0),
            (1.0, 1.0, math.inf, 1.0),
        ],
        ids=["negative-round-2", "negative-last", "zero", "nan", "inf"],
    )
    def test_step_values_fail_before_round_one(self, alpha):
        """A step value that is not positive and finite is rejected when the
        config is built: a negative alpha(1) used to stop the run in round
        2, and a negative alpha(T) to finish with a negative C / alpha(T)
        term in bound_partial."""
        with pytest.raises(ConfigError, match="alpha values must be positive and finite"):
            base_config(T=3, alpha=alpha)
        assert base_config(T=3, alpha=(1.0, 0.5, 0.25, 0.125)).alpha[-1] == 0.125

    def test_rising_step_values_fail_before_round_one(self):
        """bound_partial is the dual-averaging bound, which holds for steps
        that do not rise; only alpha(0..T) are read, so values past T are free."""
        with pytest.raises(ConfigError, match=r"must not increase, got alpha\(2\) = 0.6"):
            base_config(T=3, alpha=(1.0, 0.5, 0.6, 0.5))
        assert base_config(T=3, alpha=(1.0, 1.0, 1.0, 1.0)).alpha == (1.0,) * 4
        assert base_config(T=2, alpha=(1.0, 0.5, 0.5, 9.0)).T == 2
        with pytest.raises(ConfigError, match="must not increase"):
            replace(base_config(T=2, alpha=(1.0, 0.5, 0.5, 9.0)), T=3)

    def test_default_blocks_scalar(self):
        cfg = base_config()
        assert cfg.n == 5
        assert cfg.p == 5
        assert cfg.blocks.blocks == tuple((i,) for i in range(5))


class TestConfigFromDict:
    def test_defaults(self):
        cfg = config_from_dict({"algorithm": "oda-c", "T": 10})
        assert cfg.n == 5 and cfg.p == 5
        assert cfg.box.lo[0] == -10.0 and cfg.box.hi[0] == 10.0
        cfg_ps = config_from_dict({"algorithm": "oda-ps", "T": 10})
        assert cfg_ps.topology.period == 3

    def test_requires_horizon(self):
        with pytest.raises(ConfigError, match="T"):
            config_from_dict({"algorithm": "oda-c"})

    def test_requires_known_algorithm(self):
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "sgd", "T": 1})

    def test_inline_graph_and_grouped_blocks(self):
        d = {
            "algorithm": "oda-c",
            "T": 5,
            "graph": {
                "n": 2,
                "mode": "static",
                "edges": [[0, 1]],
                "r": [0.5, 0.5],
                "M": [[0.5, 0.5], [0.5, 0.5]],
            },
            "blocks": [[0, 1], [2]],
            "box": [-1.0, 1.0],
        }
        cfg = config_from_dict(d)
        assert cfg.n == 2 and cfg.p == 3
        assert cfg.box.p == 3

    def test_blocks_int_must_equal_agents(self):
        with pytest.raises(ConfigError, match="blocks"):
            config_from_dict({"algorithm": "oda-c", "T": 1, "blocks": 4})
        # true is not the agent count of a one-agent graph
        singleton = {"n": 1, "mode": "static", "edges": [], "r": [1.0], "M": [[1.0]]}
        with pytest.raises(ConfigError, match='"blocks" must be an integer, got True'):
            config_from_dict({"algorithm": "oda-c", "T": 1, "blocks": True, "graph": singleton})

    def test_alpha_rule_and_errors(self):
        assert config_from_dict(
            {"algorithm": "oda-c", "T": 1, "alpha": {"rule": "inv-sqrt"}}
        ).alpha is None
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "oda-c", "T": 1, "alpha": {"rule": "linear"}})
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "oda-c", "T": 1, "alpha": {"values": [1.0, -1.0]}})
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "oda-c", "T": 1, "alpha": "fast"})

    def test_alpha_values_must_cover_horizon_plus_one(self):
        ok = config_from_dict(
            {"algorithm": "oda-c", "T": 3, "alpha": {"values": [1.0, 0.8, 0.6, 0.5]}}
        )
        run(ok)
        # rejected when the config is built, before round 1
        with pytest.raises(ConfigError, match="horizon plus one"):
            config_from_dict({"algorithm": "oda-c", "T": 3, "alpha": {"values": [1.0, 0.8, 0.6]}})

    def test_environment_specs(self):
        cfg = config_from_dict(
            {
                "algorithm": "oda-c",
                "T": 2,
                "environment": {"type": "fixed", "q": [[1, 2, 3, 4, 5]]},
            }
        )
        trace = run(cfg)
        assert trace.mean_field_residual.max() <= 1e-9
        with pytest.raises(ConfigError):
            config_from_dict(
                {"algorithm": "oda-c", "T": 1, "environment": {"type": "market"}}
            )
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "oda-c", "T": 1, "environment": {"A": []}})

    def test_sensing_environment_uses_the_given_map(self):
        A = np.eye(5) + 0.3 * np.triu(np.ones((5, 5)), 1)
        env = {"type": "sensing", "A": A.tolist()}
        history = simulate(config_from_dict({"algorithm": "oda-c", "T": 3, "environment": env}))
        assert np.array_equal(history.losses.A, A)
        drawn = simulate(config_from_dict({"algorithm": "oda-c", "T": 3})).losses.A
        assert not np.array_equal(drawn, A)


class TestSimulate:
    def test_weight_residual_zero_for_static_engine(self):
        hist = simulate(base_config(T=8))
        assert np.array_equal(hist.weight_residual, np.zeros(8))
        assert hist.actions.shape == (8, 5)
        assert hist.refs.shape == (8, 5)
        assert hist.ref_gaps.shape == (8,)
        assert hist.losses.q.shape == (8, 5)

    def test_environment_dimension_guard(self):
        cfg = base_config(
            T=2,
            environment=lambda p, rng: FixedEnvironment(A=np.eye(3), q_list=(np.zeros(3),)),
        )
        with pytest.raises(ConfigError, match="dimension"):
            simulate(cfg)

    @pytest.mark.parametrize(
        "A, rows, width",
        [(np.eye(5, 4), 6, 5), (np.eye(5), 5, 5), (np.eye(5), 6, 4)],
        ids=["A-width", "stack-rows", "stack-width"],
    )
    def test_misshapen_environment_rejected_before_round_one(self, A, rows, width, monkeypatch):
        class _Misshapen:
            def __init__(self):
                self.A = A

            def measurements(self, T, rng):
                return np.zeros((rows, width))

        steps = []
        monkeypatch.setattr(DualAveragingEngine, "step", lambda self, u, a: steps.append(a))
        cfg = base_config(T=6, environment=lambda p, rng: _Misshapen())
        with pytest.raises(ConfigError):
            simulate(cfg)
        assert steps == []

    def test_step_vector_equals_the_rule(self):
        T = 200_000
        rule = np.array([inv_sqrt_step(s) for s in range(T + 1)])
        assert np.array_equal(step_sizes(T), rule)
        values = [0.5, 0.25, 0.125, 0.125, 0.1]
        alpha = config_from_dict({"algorithm": "oda-c", "T": 4, "alpha": {"values": values}}).alpha
        assert step_sizes(4, alpha).tolist() == values

    @pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
    def test_engine_steps_with_the_history_step_vector(self, algorithm, monkeypatch):
        received = []
        step = DualAveragingEngine.step

        def recording(self, u, alpha, *out):
            received.append(alpha)
            return step(self, u, alpha, *out)

        monkeypatch.setattr(DualAveragingEngine, "step", recording)
        hist = simulate(base_config(algorithm, T=2000, seed=4))
        assert hist.steps.shape == (2001,)
        assert np.array_equal(hist.steps, step_sizes(2000))
        assert all(type(a) is float for a in received)
        assert np.array_equal(np.array(received), hist.steps[:2000])

    def test_actions_follow_block_owners(self, monkeypatch):
        cfg = base_config(T=3)
        primals = record_primals(monkeypatch)
        hist = simulate(cfg)
        assert len(primals) == 3
        for t in range(3):
            for i in range(5):
                assert hist.actions[t, i] == primals[t][i, i]

    @pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
    def test_one_normal_form_per_run(self, algorithm, monkeypatch):
        gradient_calls, seen = [], []
        gradient = QuadraticLoss.gradient
        local_updates = DualAveragingEngine.local_updates

        def counted(self, x):
            gradient_calls.append(np.shape(x))
            return gradient(self, x)

        def recording(self, H, b, *args):
            seen.append(H)
            return local_updates(self, H, b, *args)

        monkeypatch.setattr(QuadraticLoss, "gradient", counted)
        monkeypatch.setattr(DualAveragingEngine, "local_updates", recording)
        simulate(base_config(algorithm, T=7))
        assert gradient_calls == []
        assert len(seen) == 7 and all(H is seen[0] for H in seen)

    @pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
    def test_one_mean_field_per_round(self, algorithm, monkeypatch):
        # each round's mean field is formed once, by the block call that
        # measures the round (4 rounds per block here); the engine has no
        # mean field of its own to form it again
        blocks = []
        block_diagnostics = harness.block_diagnostics

        def counted_block(Z, *args):
            blocks.append(len(Z))
            return block_diagnostics(Z, *args)

        monkeypatch.setattr(harness, "block_diagnostics", counted_block)
        monkeypatch.setattr(engine_module, "BLOCK_VALUES", 4 * 5 * 5)
        simulate(base_config(algorithm, T=9))
        assert blocks == [4, 4, 1]
        assert not hasattr(DualAveragingEngine, "mean_field")

    @pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
    def test_one_division_per_round(self, algorithm, monkeypatch):
        # the step forms the ratios z_i / w_i it projects by one ratios()
        # call; the measurement forms a block's ratios without the engine
        calls = []
        ratios = DualAveragingEngine.ratios

        def counted(self, *out):
            calls.append(self.rounds)
            return ratios(self, *out)

        monkeypatch.setattr(DualAveragingEngine, "ratios", counted)
        simulate(base_config(algorithm, T=9))
        assert calls == list(range(9))

    @pytest.mark.parametrize("algorithm, n, T", [
        ("oda-ps", 50, 40), ("oda-ps", 200, 12), ("oda-c", 50, 40), ("oda-c", 200, 12),
    ])
    def test_pushsum_divides_its_duals_once_a_round(self, algorithm, n, T, monkeypatch):
        # at n = p = 50 the rounds are measured in blocks of 9 (the last of
        # 4), at n = 200 one at a time: either way the measurement reads the
        # ratios the step formed, and oda-c's ratios are its duals
        cfg = RunConfig(
            algorithm,
            lazy_cycle_pair(n) if algorithm == "oda-c" else split_ring_schedule(n, 5),
            ActionBox.uniform(-10.0, 10.0, n),
            T=T,
        )
        calls = []
        divide = np.divide

        def counted(a, *args, **kw):
            if np.shape(a)[-2:] == (n, n):
                calls.append(np.shape(a))
            return divide(a, *args, **kw)

        monkeypatch.setattr(np, "divide", counted)
        simulate(cfg)
        assert len(calls) == (T if algorithm == "oda-ps" else 0)

    @pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
    def test_one_round_a_block_steps_every_round_once(self, algorithm, monkeypatch):
        # n p > BLOCK_VALUES: every block is one round, and each round still
        # calls the methods the benchmark traces as engine.local_updates and
        # engine.step exactly once
        n, T = 200, 5
        topology = lazy_cycle_pair(n) if algorithm == "oda-c" else split_ring_schedule(n, 5)
        cfg = RunConfig(algorithm, topology, ActionBox.uniform(-10.0, 10.0, n), T=T)
        assert DualAveragingEngine(cfg.topology, cfg.blocks, cfg.box).block_rounds == 1
        calls = {"local_updates": 0, "step": 0}
        for name in calls:
            method = getattr(DualAveragingEngine, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(DualAveragingEngine, name, counted)
        simulate(cfg)
        assert calls == {"local_updates": T, "step": T}

    def test_run_generator_keyed_by_seed_and_horizon(self):
        a = run_generator(base_config(T=10, seed=3)).random(4)
        b = run_generator(base_config(T=10, seed=3)).random(4)
        c = run_generator(base_config(T=11, seed=3)).random(4)
        d = run_generator(base_config(T=10, seed=4)).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


def _cycle_schedule_spec(n: int, both_ways: bool) -> dict:
    """The period-1 n-cycle with self-loops, one way round or both."""
    arcs = {(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)}
    if both_ways:
        arcs |= {((i + 1) % n, i) for i in range(n)}
    return {"n": n, "mode": "schedule", "graphs": [sorted(map(list, arcs))], "period": 1}


# schedules whose every graph is regular, with their second singular values
REGULAR_SCHEDULES = {
    "directed 5-ring": (_cycle_schedule_spec(5, False), math.cos(math.pi / 5)),
    "5-cycle": (_cycle_schedule_spec(5, True), (1 + 2 * math.cos(2 * math.pi / 5)) / 3),
    "10-cycle": (_cycle_schedule_spec(10, True), (1 + 2 * math.cos(2 * math.pi / 10)) / 3),
    "complete 5-digraph": (
        {"n": 5, "mode": "schedule", "graphs": [[[i, j] for i in range(5) for j in range(5)]]},
        0.0,
    ),
}


class TestDerivedPushSumConstants:
    """``network_constants`` reads the push-sum family off the schedule: each
    family whose hypothesis the graphs meet is a proof, and the run keeps
    the least kappa, with no config knob."""

    @pytest.mark.parametrize("name", REGULAR_SCHEDULES)
    def test_regular_schedule_certifies_finite_bounds(self, name, tmp_path, capsys):
        spec, _ = REGULAR_SCHEDULES[name]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"algorithm": "oda-ps", "T": 2000, "seed": 5, "graph": spec}))
        assert cli.main(["check-invariants", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["checks"]["vacuous_bounds"] == []

    @pytest.mark.parametrize("name", REGULAR_SCHEDULES)
    def test_never_looser_than_a_family_the_knobs_could_select(self, name):
        spec, exact = REGULAR_SCHEDULES[name]
        config = config_from_dict({"algorithm": "oda-ps", "T": 1, "graph": spec})
        n = config.n
        network = harness.network_constants(config)
        B = network.fields["B"]
        assert (network.fields["beta"], network.fields["gamma"]) == (math.sqrt(2.0), 1.0)
        sigma2 = np.linalg.svd(config.topology.matrix_at(0), compute_uv=False)[1]
        assert sigma2 == pytest.approx(exact, abs=1e-12)
        for family in (contraction_constants(n, B), contraction_constants(n, B, regular=True)):
            assert network.log_kappa <= pushsum_log_kappa(n, family)
        for sup in (sigma2, 0.5, 0.81, 0.95):
            if sup >= sigma2:
                family = contraction_constants(n, B, regular=True, sigma2_sup=sup)
                # the derived sup carries PAIR_TOL of roundoff, which raises
                # log kappa by at most PAIR_TOL / (1 - theta)
                slack = PAIR_TOL / family.one_minus_theta
                assert network.log_kappa <= pushsum_log_kappa(n, family) + slack, sup

    def test_irregular_graph_keeps_the_general_constants(self):
        # the split ring's chunk graphs give a node out-degree 2 and in-degree 1
        schedule = split_ring_schedule(5, 3)
        config = RunConfig("oda-ps", schedule, ActionBox.uniform(-1.0, 1.0, 5), T=4)
        cc = contraction_constants(5, 3)
        assert harness._regular_sigma2(schedule) is None
        assert harness.network_constants(config).fields == {
            "B": 3, "beta": cc.beta, "theta": cc.theta, "gamma": cc.gamma,
            "log_gamma": cc.log_gamma, "log_one_minus_theta": cc.log_one_minus_theta,
        }
        # one irregular graph among regular ones is enough
        ring = frozenset({(i, i) for i in range(5)} | {(i, (i + 1) % 5) for i in range(5)})
        mixed = DigraphSchedule(n=5, graphs=(ring, schedule.graphs[0]), period=2)
        assert harness._regular_sigma2(mixed) is None

    def test_sup_is_over_every_listed_graph(self):
        ring = frozenset({(i, i) for i in range(5)} | {(i, (i + 1) % 5) for i in range(5)})
        complete = frozenset((i, j) for i in range(5) for j in range(5))
        schedule = DigraphSchedule(n=5, graphs=(complete, ring), period=2)
        assert harness._regular_sigma2(schedule) == pytest.approx(math.cos(math.pi / 5))


class TestFinalize:
    def test_empty_horizon_trace(self):
        trace = finalize(simulate(base_config(T=0)))
        assert trace.T == 0
        assert trace.regret == 0.0
        assert trace.theory_bound == prox_sup(ActionBox.uniform(-10, 10, 5))

    def test_step_values_get_no_theory_certificate(self):
        values = tuple(inv_sqrt_step(s) for s in range(13))
        for T in (0, 12):
            listed = run(base_config(T=T, seed=7, alpha=values))
            default = run(base_config(T=T, seed=7))
            assert listed.theory_bound == math.inf
            assert math.isfinite(default.theory_bound)
            assert listed.constants == default.constants

    @pytest.mark.parametrize("T", [5, -1, 2.5, True])
    def test_prefix_cannot_exceed_horizon(self, T):
        with pytest.raises(ConfigError):
            finalize(simulate(base_config(T=4)), T=T)

    def test_trace_shapes_and_constants(self):
        trace = run(base_config(T=12, seed=7))
        assert trace.regret_partial.shape == (12,)
        assert trace.avg_regret[-1] == pytest.approx(trace.regret / 12)
        for key in ("L", "G", "D", "C", "n", "spectral_gap", "r_min", "disagreement_bound"):
            assert key in trace.constants
        assert math.isfinite(trace.theory_bound)

    def test_pushsum_constants(self):
        trace = run(base_config(algorithm="oda-ps", T=12, seed=7))
        for key in ("B", "beta", "theta", "gamma", "log_gamma", "max_weight_residual"):
            assert key in trace.constants
        assert trace.constants["B"] == 3
        assert trace.constants["max_weight_residual"] <= 1e-9


def truncated(history, T):
    """The first T rounds of a history, as a history of T rounds (whose
    step sizes are alpha(0..T))."""
    head = {
        f.name: getattr(history, f.name)[: T + (f.name == "steps")]
        for f in fields(history)
        if isinstance(getattr(history, f.name), np.ndarray)
    }
    losses = QuadraticLoss(history.losses.A, history.losses.q[:T])
    return replace(history, config=replace(history.config, T=T), losses=losses, **head)


PREFIX_CONFIGS = [
    base_config("oda-c", T=600, seed=5),
    base_config("oda-ps", T=600, seed=5),
    RunConfig("oda-c", lazy_cycle_pair(20), ActionBox.uniform(-10, 10, 20), T=1000, seed=5),
]


@pytest.mark.parametrize("config", PREFIX_CONFIGS, ids=["oda-c", "oda-ps", "oda-c-n20"])
def test_each_prefix_equals_finalize_of_the_truncated_history(config):
    history = simulate(config)
    # the reference gradients of rounds 1..T come from one matrix product
    # over all rounds or over the first T, and BLAS may block the rows apart:
    # a row's rounding is on the scale of the run's e3, not of the prefix's
    # (rounds 1 and 2 have no mismatch but rounding)
    scale = np.max(finalize(history).e3)
    for T in (1, 2, 37, 250, config.T - 1, config.T):
        got, want = finalize(history, T), finalize(truncated(history, T))
        for name in ("regret_partial", "costs", "comparator_costs", "e1", "e2", "y_star"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (T, name)
        for name in ("e3", "bound_partial"):
            gap = np.max(np.abs(getattr(got, name) - getattr(want, name)))
            assert gap <= 1e-12 * scale, (T, name, gap)
        assert got.constants == want.constants
        assert got.theory_bound == want.theory_bound
        assert got.comparator_value == want.comparator_value


class TestSweep:
    def test_fresh_rows_match_standalone_runs(self):
        cfg = base_config(T=1, seed=5)
        rows = sweep(cfg, [5, 12])
        for row in rows:
            solo = run(replace(cfg, T=row.T))
            assert row.regret == solo.regret
            assert row.avg_regret == solo.average_regret
            assert row.theory_bound == solo.theory_bound

    def test_cumulative_final_row_matches_full_run(self):
        cfg = base_config(T=1, seed=5)
        rows = sweep(cfg, [4, 9], cumulative=True)
        solo = run(replace(cfg, T=9))
        assert rows[-1].regret == solo.regret
        assert rows[0].T == 4

    def test_cumulative_sweep_certifies_the_network_once(self, monkeypatch):
        calls = []

        def counting(schedule, cap=None):
            calls.append(cap)
            return validate_b_strong(schedule, cap)

        monkeypatch.setattr(harness, "validate_b_strong", counting)
        rows = sweep(base_config(algorithm="oda-ps", T=1, seed=5), [5, 10, 20, 40], cumulative=True)
        assert [row.T for row in rows] == [5, 10, 20, 40]
        assert len(calls) == 1

    def test_fresh_sweep_certifies_the_network_once(self, monkeypatch):
        calls = []

        def counting(pair):
            calls.append(pair)
            return spectral_gap(pair)

        monkeypatch.setattr(harness, "spectral_gap", counting)
        rows = sweep(base_config(T=1, seed=5), [3, 5, 8, 13])
        assert [row.T for row in rows] == [3, 5, 8, 13]
        assert len(calls) == 1

    def test_cumulative_sweep_forms_the_loss_curvature_once(self, monkeypatch):
        gram_calls = count_evaluations(monkeypatch, QuadraticLoss, "gram")
        calls = count_evaluations(monkeypatch, QuadraticLoss, "curvature")
        rows = sweep(base_config(T=1, seed=5), [5, 10, 20, 40], cumulative=True)
        assert [row.T for row in rows] == [5, 10, 20, 40]
        assert gram_calls == [(5, 5)]
        assert calls == [(5, 5)]

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_every_horizon_is_checked_before_the_first_run(self, cumulative, monkeypatch):
        def no_simulation(config):
            raise AssertionError("simulated before every horizon was checked")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        explicit = DigraphSchedule(n=5, graphs=split_ring_schedule(5, 3).graphs, period=0)
        cfg = replace(base_config(algorithm="oda-ps", T=1), topology=explicit)
        with pytest.raises(ConfigError, match="explicit schedule has 3 graphs"):
            sweep(cfg, [2, 10], cumulative=cumulative)

    def test_rejects_bad_horizons(self):
        cfg = base_config(T=1)
        with pytest.raises(ConfigError):
            sweep(cfg, [])
        with pytest.raises(ConfigError):
            sweep(cfg, [5, 3])
        with pytest.raises(ConfigError):
            sweep(cfg, [0, 3])

    @pytest.mark.parametrize("cumulative", [False, True])
    @pytest.mark.parametrize("horizons", [[2.7, 4], [True, 3]])
    def test_rejects_horizons_that_are_not_integers(self, horizons, cumulative, monkeypatch):
        # int() would run 2.7 as T = 2 and True as T = 1
        def no_simulation(*args):
            raise AssertionError("simulated a horizon that is not an integer")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        with pytest.raises(ConfigError, match="sweep horizon must be an integer"):
            sweep(base_config(T=1), horizons, cumulative=cumulative)

    def test_numpy_integers_are_horizons(self):
        cfg = base_config(T=1, seed=2)
        assert sweep(cfg, np.array([3, 6]), cumulative=True) == sweep(cfg, [3, 6], cumulative=True)
        trace = finalize(simulate(base_config(T=4)), np.int64(3))
        assert type(trace.T) is int and trace.T == 3


TRACE_COLUMNS = (
    "costs", "regret_partial", "avg_regret", "disagreement", "mean_field_residual",
    "e1", "e2", "e3", "bound_partial",
)


class TestSerialization:
    def test_trace_csv_layout(self, tmp_path):
        trace = run(base_config(T=6, seed=2))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 7
        assert [line.split(",")[0] for line in lines[1:]] == [str(t) for t in range(1, 7)]

    def test_trace_csv_matches_the_csv_module(self, tmp_path):
        def csv_module_writer(trace, path):  # the writer before the one-pass format
            with open(path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(TRACE_HEADER.split(","))
                for i in range(trace.T):
                    w.writerow(
                        [str(i + 1)]
                        + ["%.12g" % getattr(trace, name)[i] for name in TRACE_COLUMNS]
                    )

        trace = run(base_config(T=40, seed=3))
        special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 1e300, -1e-300, 5e-324])
        rng = np.random.default_rng(0)
        for k, name in enumerate(TRACE_COLUMNS):
            column = getattr(trace, name).copy()
            column[rng.permutation(40)[:9]] = np.roll(special, k)
            trace = replace(trace, **{name: column})
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trace_csv(trace, str(got))
        csv_module_writer(trace, str(want))
        assert b"inf" in got.read_bytes() and b"-0," in got.read_bytes()
        assert got.read_bytes() == want.read_bytes()

    def test_sweep_csv_layout(self, tmp_path):
        rows = sweep(base_config(T=1, seed=2), [3, 6])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("3,")

    def test_sweep_csv_matches_the_csv_module(self, tmp_path):
        def csv_module_writer(rows, path):  # the writer before the one-pass format
            with open(path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(SWEEP_HEADER.split(","))
                for row in rows:
                    w.writerow(
                        [str(row.T)]
                        + ["%.12g" % x for x in (row.regret, row.avg_regret, row.theory_bound)]
                    )

        rows = sweep(base_config(T=1, seed=2), [3, 6, 9])
        rows += [
            SweepRow(12, math.inf, -math.inf, math.nan),
            SweepRow(15, -0.0, 1e300, 0.0),
            SweepRow(18, -1e-300, 5e-324, -1e300),
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_sweep_csv(rows, str(got))
        csv_module_writer(rows, str(want))
        for token in (b"inf", b"-inf", b"nan", b"-0", b"1e+300"):
            assert token in got.read_bytes()
        assert got.read_bytes() == want.read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        for algorithm in ("oda-c", "oda-ps"):
            cfg = base_config(algorithm=algorithm, T=15, seed=31)
            p1, p2 = tmp_path / f"{algorithm}-1.csv", tmp_path / f"{algorithm}-2.csv"
            write_trace_csv(run(cfg), str(p1))
            write_trace_csv(run(base_config(algorithm=algorithm, T=15, seed=31)), str(p2))
            assert p1.read_bytes() == p2.read_bytes()
