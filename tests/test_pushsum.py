import numpy as np
import pytest
from conftest import (
    centralized_reference,
    inv_sqrt_step,
    mean_field,
    random_digraph_schedule,
    unrolled_dual_check,
)

from netdual import (
    ActionBox,
    BlockMap,
    ConfigError,
    DigraphSchedule,
    DualAveragingEngine,
    QuadraticLoss,
    split_ring_schedule,
)


def two_node_engine():
    sched = DigraphSchedule(
        n=2, graphs=(frozenset({(0, 0), (1, 1), (0, 1)}),), period=1
    )
    return DualAveragingEngine(
        network=sched, blocks=BlockMap.scalar(2), box=ActionBox.uniform(-10, 10, 2)
    )


def ring_engine(n=5, phases=3):
    return DualAveragingEngine(
        network=split_ring_schedule(n, phases),
        blocks=BlockMap.scalar(n),
        box=ActionBox.uniform(-10, 10, n),
    )


class TestConstruction:
    def test_initial_state(self):
        eng = ring_engine()
        assert np.array_equal(eng._w, np.ones(5))
        assert np.array_equal(eng._Z, np.zeros((5, 5)))
        assert eng.rounds == 0

    def test_rejects_agent_count_mismatch(self):
        with pytest.raises(ConfigError):
            DualAveragingEngine(
                network=split_ring_schedule(5, 3),
                blocks=BlockMap.scalar(4),
                box=ActionBox.uniform(-1, 1, 4),
            )


class TestStepDynamics:
    def test_hand_one_step(self):
        eng = two_node_engine()
        eng.step(np.array([3.0, -1.0]), alpha=0.5)
        # injections are n * u_k at the owner's row: (6, 0) and (0, -2)
        assert np.allclose(eng._Z, [[6.0, 0.0], [0.0, -2.0]])
        # weights mixed by the column-stochastic matrix [[1/2, 0], [1/2, 1]]
        assert np.allclose(eng._w, [0.5, 1.5])
        assert np.allclose(eng.ratios(), [[12.0, 0.0], [0.0, -4.0 / 3.0]])
        assert np.allclose(mean_field(eng), [3.0, -1.0])
        assert eng.mean_field_residual() <= 1e-15
        assert np.allclose(eng._X[0], [-6.0, 0.0])

    def test_second_step_mixes_duals_and_weights(self):
        eng = two_node_engine()
        eng.step(np.array([3.0, -1.0]), alpha=0.5)
        eng.step(np.zeros(2), alpha=0.5)
        A = np.array([[0.5, 0.0], [0.5, 1.0]])
        assert np.allclose(eng._Z, A @ np.array([[6.0, 0.0], [0.0, -2.0]]))
        assert np.allclose(eng._w, A @ np.array([0.5, 1.5]))

    def test_weight_conservation_and_positivity(self):
        rng = np.random.default_rng(13)
        eng = ring_engine()
        for t in range(1, 61):
            eng.step(rng.uniform(-2, 2, 5), alpha=inv_sqrt_step(t - 1))
            assert eng.weight_conservation_residual() <= 1e-12
            assert np.all(eng._w > 0)

    def test_mean_field_tracks_gradient_sum(self):
        rng = np.random.default_rng(19)
        eng = ring_engine()
        total = np.zeros(5)
        for t in range(1, 41):
            g = rng.uniform(-3, 3, 5)
            total += g
            eng.step(g, alpha=0.4)
            assert eng.mean_field_residual() <= 1e-9
            assert np.allclose(eng._u_total, total)

    def test_uses_matrix_for_current_slot(self):
        eng = ring_engine()
        sched = eng.network
        eng.step(np.zeros(5), alpha=1.0)
        # after one step the weights equal A(0) @ ones
        assert np.allclose(eng._w, sched.matrix_at(0) @ np.ones(5))

    def test_local_updates_read_own_rows(self):
        eng = ring_engine()
        eng.step(np.arange(5.0), alpha=0.7)
        obj = QuadraticLoss(A=np.eye(5), q=np.ones(5))
        X = eng._X
        for i, u in enumerate(eng.local_updates(obj.A.T @ obj.A, obj.q @ obj.A)):
            assert u == pytest.approx(obj.gradient(X[i])[i])

    def test_rejects_wrong_update_count(self):
        eng = ring_engine()
        with pytest.raises(ConfigError):
            eng.step(np.zeros(4), alpha=1.0)


class TestUnrolledEquivalence:
    def test_ring_history_matches_product_formula(self):
        rng = np.random.default_rng(29)
        eng = ring_engine()
        history = []
        for t in range(1, 13):
            u = rng.uniform(-5, 5, 5)
            eng.step(u, alpha=inv_sqrt_step(t - 1))
            history.append(u)
        assert unrolled_dual_check(eng, history) <= 1e-12

    def test_random_schedule_history_matches(self):
        rng = np.random.default_rng(37)
        sched = random_digraph_schedule(4, 5, rng)
        eng = DualAveragingEngine(
            network=sched, blocks=BlockMap.scalar(4), box=ActionBox.uniform(-8, 8, 4)
        )
        history = []
        for t in range(1, 21):
            u = rng.uniform(-4, 4, 4)
            eng.step(u, alpha=0.3)
            history.append(u)
        assert unrolled_dual_check(eng, history) <= 1e-11

    def test_empty_history(self):
        assert unrolled_dual_check(ring_engine(), []) == 0.0

    def test_rejects_history_length_mismatch(self):
        eng = ring_engine()
        eng.step(np.zeros(5), alpha=1.0)
        with pytest.raises(ConfigError):
            unrolled_dual_check(eng, [])


class TestSingleAgentEquivalence:
    def test_matches_centralized_trajectory(self):
        sched = DigraphSchedule(n=1, graphs=(frozenset({(0, 0)}),), period=1)
        box = ActionBox.uniform(-2.0, 2.0, 1)
        eng = DualAveragingEngine(network=sched, blocks=BlockMap.scalar(1), box=box)
        rng = np.random.default_rng(43)
        updates = rng.uniform(-3, 3, size=(12, 1))
        xs = []
        for t in range(1, 13):
            eng.step(updates[t - 1], alpha=inv_sqrt_step(t - 1))
            assert eng._w[0] == 1.0
            xs.append(eng._X[0].copy())
        refs = centralized_reference(updates, box)
        for t in range(1, 13):
            assert np.max(np.abs(xs[t - 1] - refs[t])) <= 1e-12
