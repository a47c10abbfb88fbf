import math

import numpy as np
import pytest
from conftest import (
    centralized_reference,
    inv_sqrt_step,
    mean_field,
    metropolis_topology,
    singleton_topology,
)

from netdual import (
    ActionBox,
    BlockMap,
    ConfigError,
    DualAveragingEngine,
    QuadraticLoss,
    ReversiblePair,
    RunConfig,
    StaticTopology,
    TopologyError,
    lazy_cycle_pair,
    simulate,
)
from netdual.harness import network_constants


def cycle_engine(n=3, lo=-10.0, hi=10.0):
    return DualAveragingEngine(
        network=lazy_cycle_pair(n),
        blocks=BlockMap.scalar(n),
        box=ActionBox.uniform(lo, hi, n),
    )


class TestConstruction:
    def test_initial_state_is_projected_zero(self):
        eng = DualAveragingEngine(
            network=lazy_cycle_pair(3),
            blocks=BlockMap.scalar(3),
            box=ActionBox.uniform(1.0, 2.0, 3),
        )
        assert np.array_equal(eng._Z, np.zeros((3, 3)))
        assert np.array_equal(eng._X, np.full((3, 3), 1.0))  # clamp of zero
        assert eng.rounds == 0
        assert eng.mean_field_residual() == 0.0

    def test_rejects_invalid_pair(self):
        topo = lazy_cycle_pair(3)
        M = topo.pair.M.copy()
        M[0, 0] += 0.2
        bad = StaticTopology(graph=topo.graph, pair=ReversiblePair(r=topo.pair.r, M=M))
        config = RunConfig("oda-c", bad, ActionBox.uniform(-1, 1, 3), T=5)
        for certify in (network_constants, simulate):
            with pytest.raises(TopologyError, match="row_stochastic"):
                certify(config)

    def test_rejects_agent_count_mismatch(self):
        with pytest.raises(ConfigError):
            DualAveragingEngine(
                network=lazy_cycle_pair(3),
                blocks=BlockMap.scalar(4),
                box=ActionBox.uniform(-1, 1, 4),
            )

    def test_rejects_box_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            DualAveragingEngine(
                network=lazy_cycle_pair(3),
                blocks=BlockMap.scalar(3),
                box=ActionBox.uniform(-1, 1, 2),
            )

    def test_tracks_no_weight_vector(self):
        eng = cycle_engine()
        eng.step(np.array([1.0, 2.0, 3.0]), alpha=0.5)
        assert eng._w is None
        assert eng.weight_conservation_residual() == 0.0
        assert np.array_equal(eng.ratios(), eng._Z)

    def test_rejects_network_of_wrong_type(self):
        with pytest.raises(ConfigError, match="StaticTopology or a DigraphSchedule"):
            DualAveragingEngine(
                network=lazy_cycle_pair(3).pair,
                blocks=BlockMap.scalar(3),
                box=ActionBox.uniform(-1, 1, 3),
            )


class TestStepDynamics:
    def test_first_injection_scales_by_inverse_weight(self):
        eng = cycle_engine()
        eng.step(np.array([1.0, 2.0, 3.0]), alpha=0.5)
        # r_i = 1/3 so agent k's dual gets 3 * g_k at its own coordinate
        assert np.allclose(eng._Z[0], [3.0, 0.0, 0.0])
        assert np.allclose(eng._Z[1], [0.0, 6.0, 0.0])
        assert np.allclose(eng._Z[2], [0.0, 0.0, 9.0])
        assert np.allclose(eng._X[0], [-1.5, 0.0, 0.0])
        assert np.allclose(mean_field(eng), [1.0, 2.0, 3.0])
        assert eng.rounds == 1

    def test_second_step_mixes_by_hand_computed_matrix(self):
        eng = cycle_engine()
        eng.step(np.array([1.0, 2.0, 3.0]), alpha=0.5)
        eng.step(np.zeros(3), alpha=0.3)
        # M rows are (1/2, 1/4, 1/4) cyclically; duals were diag(3, 6, 9)
        expected = np.array(
            [
                [1.5, 1.5, 2.25],
                [0.75, 3.0, 2.25],
                [0.75, 1.5, 4.5],
            ]
        )
        assert np.allclose(eng._Z, expected)
        assert np.allclose(mean_field(eng), [1.0, 2.0, 3.0])
        assert eng.mean_field_residual() <= 1e-15

    def test_identity_mixing_keeps_duals_local(self):
        topo = lazy_cycle_pair(3)
        eye = StaticTopology(
            graph=topo.graph, pair=ReversiblePair(r=topo.pair.r, M=np.eye(3))
        )
        eng = DualAveragingEngine(
            network=eye, blocks=BlockMap.scalar(3), box=ActionBox.uniform(-10, 10, 3)
        )
        for g in ([1.0, 1.0, 1.0], [2.0, 0.0, -1.0]):
            eng.step(np.array(g), alpha=1.0)
        assert np.allclose(eng._Z, np.diag([9.0, 3.0, 0.0]))

    def test_rejects_wrong_update_count(self):
        eng = cycle_engine()
        with pytest.raises(ConfigError):
            eng.step(np.array([1.0]), alpha=1.0)

    def test_rejects_wrong_block_size(self):
        eng = cycle_engine()
        with pytest.raises(ConfigError):
            eng.step(np.ones((3, 2)), alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_alpha(self, alpha):
        eng = cycle_engine()
        with pytest.raises(ValueError):
            eng.step(np.ones(3), alpha=alpha)

    def test_local_updates_read_own_primal_rows(self):
        eng = cycle_engine()
        eng.step(np.array([1.0, 2.0, 3.0]), alpha=0.5)
        obj = QuadraticLoss(A=np.eye(3), q=np.zeros(3))
        X = eng._X
        updates = eng.local_updates(obj.A.T @ obj.A, obj.q @ obj.A)
        for i in range(3):
            assert updates[i] == pytest.approx(obj.gradient(X[i])[i])


class TestMeanFieldInvariance:
    def test_tracks_gradient_sum_under_random_mixing(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            topo = metropolis_topology(int(rng.integers(2, 7)), rng)
            n = topo.pair.n
            eng = DualAveragingEngine(
                network=topo,
                blocks=BlockMap.scalar(n),
                box=ActionBox.uniform(-5, 5, n),
            )
            total = np.zeros(n)
            for t in range(1, 31):
                g = rng.uniform(-4, 4, n)
                total += g
                eng.step(g, alpha=inv_sqrt_step(t - 1))
                assert eng.mean_field_residual() <= 1e-9
                assert np.allclose(eng._u_total, total)

    def test_disagreement_definitions_match_states(self):
        rng = np.random.default_rng(41)
        eng = cycle_engine(5)
        for t in range(10):
            eng.step(rng.uniform(-3, 3, 5), alpha=0.5)
        Z = eng._Z
        zbar = mean_field(eng)
        sq = float(np.sum((Z - zbar) ** 2))
        norms = float(np.sum(np.linalg.norm(Z - zbar, axis=1)))
        assert eng.disagreement_squared() == pytest.approx(sq, rel=1e-12)
        assert eng.disagreement() == pytest.approx(norms, rel=1e-12)
        # Cauchy-Schwarz relation between the two records
        assert eng.disagreement() <= np.sqrt(5 * eng.disagreement_squared()) + 1e-12


class TestSingleAgentEquivalence:
    def test_matches_centralized_trajectory(self):
        eng = DualAveragingEngine(
            network=singleton_topology(),
            blocks=BlockMap.scalar(1),
            box=ActionBox.uniform(-2.0, 2.0, 1),
        )
        rng = np.random.default_rng(4)
        updates = rng.uniform(-3, 3, size=(15, 1))
        xs = []
        for t in range(1, 16):
            eng.step(updates[t - 1], alpha=inv_sqrt_step(t - 1))
            xs.append(eng._X[0].copy())
        refs = centralized_reference(updates, ActionBox.uniform(-2.0, 2.0, 1))
        for t in range(1, 16):
            assert np.max(np.abs(xs[t - 1] - refs[t])) <= 1e-12
