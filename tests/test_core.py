import numpy as np
import pytest
from hypothesis import given, settings
from conftest import in_box, record_primals
from hypothesis import strategies as st

from netdual import (
    ActionBox,
    BlockMap,
    ConfigError,
    DigraphSchedule,
    DualAveragingEngine,
    RunConfig,
    simulate,
    split_ring_schedule,
)

# two agents that both send to each other, so every block mixes
PAIR_SCHEDULE = DigraphSchedule(n=2, graphs=(frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}),))


class TestActionBox:
    def test_uniform_builds_constant_bounds(self):
        box = ActionBox.uniform(-2.0, 3.0, 4)
        assert box.p == 4
        assert np.array_equal(box.lo, [-2, -2, -2, -2])
        assert np.array_equal(box.hi, [3, 3, 3, 3])

    def test_clamp(self):
        box = ActionBox(lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.0]))
        assert np.array_equal(box.clamp(np.array([5.0, -3.0])), [1.0, 0.0])
        assert np.array_equal(box.clamp(np.array([0.5, 1.5])), [0.5, 1.5])

    def test_contains(self):
        box = ActionBox.uniform(-1.0, 1.0, 2)
        assert in_box(box, np.array([1.0, -1.0]))
        assert not in_box(box, np.array([1.0001, 0.0]))
        assert in_box(box, np.array([1.0001, 0.0]), tol=1e-3)

    def test_diameter_is_max_width(self):
        box = ActionBox(lo=np.array([-1.0, 0.0]), hi=np.array([2.0, 0.5]))
        assert box.diameter == 3.0

    def test_radius_is_farthest_corner_norm(self):
        box = ActionBox(lo=np.array([-1.0, -2.0]), hi=np.array([2.0, 1.0]))
        # farthest corner is (2, -2)
        assert box.radius == pytest.approx(np.sqrt(8.0))

    def test_degenerate_interval_allowed(self):
        box = ActionBox(lo=np.array([1.0]), hi=np.array([1.0]))
        assert box.diameter == 0.0
        assert np.array_equal(box.clamp(np.array([0.0])), [1.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigError):
            ActionBox(lo=np.array([1.0]), hi=np.array([0.0]))

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ConfigError):
            ActionBox(lo=np.array([-np.inf]), hi=np.array([0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            ActionBox(lo=np.array([0.0, 0.0]), hi=np.array([1.0]))

    def test_clamp_is_np_clip_bit_for_bit(self):
        rng = np.random.default_rng(4)
        # zero-width, zero-edged and ordinary intervals
        box = ActionBox(
            lo=np.array([-1.0, 0.0, -0.0, -3.0, 2.0]), hi=np.array([1.0, 0.0, 0.0, -0.0, 2.5])
        )
        special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.0, 2.5, -3.0, 1e-300, -1e-300])
        x = np.concatenate([rng.choice(special, (400, 5)), rng.normal(0, 3, (400, 5))])
        want = np.clip(x, box.lo, box.hi)
        assert np.array_equal(box.clamp(x).view(np.int64), want.view(np.int64))

        engine = DualAveragingEngine(
            network=PAIR_SCHEDULE, blocks=BlockMap(blocks=((0, 1, 2), (3, 4))), box=box
        )
        for t in range(1, 30):
            alpha = 1.0 / t
            engine.step(rng.choice(special[4:], 5) * rng.integers(0, 2, 5), alpha)
            want = np.clip(-alpha * engine.ratios(), box.lo, box.hi)
            assert np.array_equal(engine._X.view(np.int64), want.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=6))
    def test_clamp_is_idempotent_and_feasible(self, values):
        box = ActionBox.uniform(-3.0, 5.0, len(values))
        y = box.clamp(np.array(values))
        assert in_box(box, y)
        assert np.array_equal(box.clamp(y), y)


class TestBlockMap:
    def test_scalar_map(self):
        bm = BlockMap.scalar(3)
        assert bm.n == 3
        assert bm.p == 3
        assert bm.blocks == ((0,), (1,), (2,))
        assert np.array_equal(bm.owner, [0, 1, 2])

    def test_multi_coordinate_blocks(self):
        bm = BlockMap(blocks=((0, 2), (1, 3, 4)))
        assert bm.n == 2
        assert bm.p == 5
        assert np.array_equal(bm.owner, [0, 1, 0, 1, 1])

    def test_rejects_empty_block(self):
        with pytest.raises(ConfigError):
            BlockMap(blocks=((0,), ()))

    def test_rejects_gap(self):
        with pytest.raises(ConfigError):
            BlockMap(blocks=((0,), (2,)))

    def test_rejects_overlap(self):
        with pytest.raises(ConfigError):
            BlockMap(blocks=((0, 1), (1, 2)))


class TestNetworkActionAssembly:
    def test_takes_owned_coordinates(self, monkeypatch):
        bm = BlockMap(blocks=((0, 2), (1,)))
        config = RunConfig(
            "oda-ps", PAIR_SCHEDULE, ActionBox.uniform(-3.0, 3.0, 3), T=7, blocks=bm
        )
        primals = record_primals(monkeypatch)
        history = simulate(config)
        assert len(primals) == 7
        for t in range(7):
            X = primals[t]
            assert np.array_equal(history.actions[t], [X[0, 0], X[1, 1], X[0, 2]])

    def test_rejects_state_count_mismatch(self):
        with pytest.raises(ConfigError):
            DualAveragingEngine(
                split_ring_schedule(3, 3), BlockMap.scalar(2), ActionBox.uniform(-1, 1, 2)
            )


class TestBlockEmbed:
    def test_places_block_values(self):
        bm = BlockMap(blocks=((0, 2), (1,)))
        engine = DualAveragingEngine(PAIR_SCHEDULE, bm, ActionBox.uniform(-9.0, 9.0, 3))
        engine.step(np.array([5.0, 7.0, 6.0]), alpha=1.0)
        # from zero duals one step leaves only the injection: n * u[k] in
        # the row of the agent that owns k, zeros elsewhere
        assert np.array_equal(engine._Z, [[10.0, 0.0, 12.0], [0.0, 14.0, 0.0]])
