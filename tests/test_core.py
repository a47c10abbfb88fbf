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
    lazy_cycle_pair,
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

    @pytest.mark.parametrize("network", ["oda-c", "oda-ps"])
    def test_full_size_bounds_project_as_np_clip(self, network):
        """The engine projects against its bounds tiled to (n, p): at
        n = p = 50, with a non-uniform box holding both zeros, the result
        must be np.clip's against the (p,) bounds, bit for bit."""
        n = 50
        rng = np.random.default_rng(8)
        lo = rng.choice([-3.0, -1.5, -0.5, 0.0, -0.0], n)
        hi = rng.choice([0.0, -0.0, 0.25, 2.0, 4.0], n)
        hi[lo == 0.0] = rng.choice([0.0, -0.0, 1.0], int((lo == 0.0).sum()))
        box = ActionBox(lo=lo, hi=hi)
        topology = lazy_cycle_pair(n) if network == "oda-c" else split_ring_schedule(n, 5)
        engine = DualAveragingEngine(network=topology, blocks=BlockMap.scalar(n), box=box)
        special = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e-300, -1e-300])
        for t in range(1, 30):
            alpha = 1.0 / t
            engine.step(rng.choice(special, n) + rng.normal(0, 2, n) * rng.integers(0, 2, n), alpha)
            want = np.clip(-alpha * engine.ratios(), lo, hi)
            assert np.array_equal(engine._X.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("network", ["oda-c", "oda-ps"])
    def test_negative_zero_clamps_to_the_bound_zero(self, network):
        """At a signed-zero tie the pair np.maximum, np.minimum keeps the
        bound's zero, where np.clip on a (1, 1) array keeps x's -0.0: -0.0
        clamped against lo = +0.0 is +0.0, bit for bit."""
        positive_zero = np.float64(0.0).view(np.int64)
        box = ActionBox.uniform(0.0, 1.0, 1)
        assert box.clamp(np.array([-0.0])).view(np.int64) == [positive_zero]
        # from zero duals the step's -alpha * 0.0 is -0.0 in every entry
        topology = lazy_cycle_pair(3) if network == "oda-c" else split_ring_schedule(3, 3)
        box = ActionBox.uniform(0.0, 1.0, 3)
        engine = DualAveragingEngine(network=topology, blocks=BlockMap.scalar(3), box=box)
        engine.step(np.zeros(3), 0.5)
        assert np.signbit(-0.5 * engine.ratios()).all()
        assert engine._X.view(np.int64).tolist() == [[positive_zero] * 3] * 3

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


class TestLocalUpdates:
    @pytest.mark.parametrize("n, blocks", [(50, None), (3, ((0, 4), (1, 2), (3,)))])
    def test_row_dots_are_the_stacked_products(self, n, blocks):
        """Entry k is row k of X[owner] times row k of H, bit for bit the
        stacked (1, p) @ (p, 1) matmul products, at scales that expose any
        change in the order of the sums."""
        bm = BlockMap.scalar(n) if blocks is None else BlockMap(blocks=blocks)
        engine = DualAveragingEngine(
            split_ring_schedule(bm.n, 2), bm, ActionBox.uniform(-1e9, 1e9, bm.p)
        )
        rng = np.random.default_rng(12)
        for _ in range(20):
            scale = rng.choice([1e-8, 1.0, 1e6], (bm.n, bm.p))
            engine._X = rng.normal(size=(bm.n, bm.p)) * scale
            H, b = rng.normal(size=(bm.p, bm.p)), rng.normal(size=bm.p)
            X = engine._X[bm.owner]
            want = (X[:, None, :] @ H[:, :, None])[:, 0, 0] - b
            assert engine.local_updates(H, b).tobytes() == want.tobytes()
