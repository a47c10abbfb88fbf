"""simulate measures its rounds in blocks of c = max(1, BLOCK_VALUES // (n p)):
the actions, the reference and its gaps and the diagnostics of c rounds in one
vectorised pass over their held states. Every RunHistory array must equal the
round-by-round oracle's bit for bit, at any block size and any horizon."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from conftest import random_digraph_schedule, simulate_per_round

from netdual import (
    ActionBox,
    BlockMap,
    DualAveragingEngine,
    RunConfig,
    harness,
    lazy_cycle_pair,
    simulate,
    split_ring_schedule,
)
from netdual.engine import block_diagnostics
from netdual.harness import fixed_environment_factory

GROUPED = BlockMap(blocks=((0, 5), (1, 2), (3,), (4, 6, 7)))


def config(algorithm, n, T, seed=5, blocks=None, **kw):
    if blocks is not None:
        topology = (
            lazy_cycle_pair(blocks.n)
            if algorithm == "oda-c"
            else random_digraph_schedule(blocks.n, 3, np.random.default_rng(9), 0.8)
        )
    else:
        topology = lazy_cycle_pair(n) if algorithm == "oda-c" else split_ring_schedule(n, 5)
        blocks = BlockMap.scalar(n)
    box = ActionBox.uniform(-10.0, 10.0, blocks.p)
    return RunConfig(algorithm, topology, box, T=T, seed=seed, blocks=blocks, **kw)


def assert_same_history(got, want):
    arrays = [f.name for f in fields(got) if isinstance(getattr(got, f.name), np.ndarray)]
    assert len(arrays) == 9
    pairs = [(name, getattr(got, name), getattr(want, name)) for name in arrays]
    pairs += [("losses.A", got.losses.A, want.losses.A), ("losses.q", got.losses.q, want.losses.q)]
    for name, a, b in pairs:
        assert np.array_equal(a, b), name
        # bit for bit, the sign of zero included
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def set_block(monkeypatch, block, cfg):
    """Make simulate measure `block` rounds at a time on cfg's network."""
    if block != "default":
        monkeypatch.setattr(harness, "BLOCK_VALUES", block * cfg.n * cfg.p)


# T = 334 is a multiple of none of the block sizes: 1 aside, 7, and the
# defaults 655 (n = p = 5), 40 (n = p = 20), 6 (n = p = 50) and 512 (GROUPED),
# the first and last longer than the run
CASES = [
    ("oda-c", 5, None),
    ("oda-ps", 5, None),
    ("oda-c", 20, None),
    ("oda-ps", 20, None),
    ("oda-c", 50, None),
    ("oda-ps", 50, None),
    ("oda-c", None, GROUPED),
    ("oda-ps", None, GROUPED),
]


@pytest.mark.parametrize("block", [1, 7, "default"])
@pytest.mark.parametrize(
    "algorithm, n, blocks", CASES,
    ids=[f"{a}-{'grouped' if b else n}" for a, n, b in CASES],
)
def test_blocks_match_the_round_by_round_oracle(algorithm, n, blocks, block, monkeypatch):
    cfg = config(algorithm, n, T=334, blocks=blocks)
    set_block(monkeypatch, block, cfg)
    c = max(1, harness.BLOCK_VALUES // (cfg.n * cfg.p))
    assert c == (block if block != "default" else {25: 655, 400: 40, 2500: 6, 32: 512}[cfg.n * cfg.p])
    assert cfg.T % c or c == 1
    assert_same_history(simulate(cfg), simulate_per_round(cfg))


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
@pytest.mark.parametrize("T", [0, 1, 6, 7, 8, 15])
def test_horizons_around_the_block_edge(algorithm, T, monkeypatch):
    cfg = config(algorithm, 5, T=T, seed=61)
    set_block(monkeypatch, 7, cfg)
    assert_same_history(simulate(cfg), simulate_per_round(cfg))


def test_step_rule_values_reach_the_block_references(monkeypatch):
    values = list(np.linspace(2.0, 0.1, 41))
    cfg = config("oda-c", 5, T=40, alpha=tuple(values))
    set_block(monkeypatch, 7, cfg)
    assert_same_history(simulate(cfg), simulate_per_round(cfg))


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
@pytest.mark.parametrize("block", [7, "default"])
def test_a_nonfinite_round_in_mid_block_is_named(algorithm, block, monkeypatch):
    # round 10's measurement overflows the injection: the oracle stops there,
    # and the block holding rounds 8..14 (or 1..30) must name the same round
    q = [np.zeros(5)] * 9 + [np.full(5, 1e308)]
    cfg = config(algorithm, 5, T=30, environment=fixed_environment_factory(q))
    set_block(monkeypatch, block, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as oracle:
            simulate_per_round(cfg)
        with pytest.raises(FloatingPointError) as blocked:
            simulate(cfg)
    assert str(oracle.value).startswith("round 10 left disagreement ")
    assert str(blocked.value) == str(oracle.value)


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
def test_engine_diagnostics_are_the_oracle_formulas(algorithm):
    """The engine's per-round methods read ``block_diagnostics`` as a block
    of one; they must give the oracle's numbers exactly, round after round."""
    cfg = config(algorithm, 20, T=60)
    oracle = simulate_per_round(cfg)
    engine = DualAveragingEngine(cfg.topology, cfg.blocks, cfg.box)
    for t in range(cfg.T):
        engine.step(oracle.updates[t], float(oracle.steps[t]))
        assert engine.disagreement() == oracle.disagreement[t]
        assert engine.disagreement_squared() == oracle.disagreement_squared[t]
        assert engine.mean_field_residual() == oracle.mean_field_residual[t]
        assert engine.weight_conservation_residual() == oracle.weight_residual[t]


def traced_peak(fn, cfg) -> int:
    tracemalloc.start()
    try:
        fn(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "algorithm, n, T", [("oda-c", 20, 4000), ("oda-ps", 50, 2000)], ids=["sweep20", "pushsum50"]
)
def test_blocks_add_at_most_half_a_megabyte(algorithm, n, T):
    cfg = config(algorithm, n, T=T)
    oracle = traced_peak(simulate_per_round, cfg)
    blocked = traced_peak(simulate, cfg)
    assert blocked <= oracle + 0.5e6, (blocked, oracle)


def read_only(a):
    if a is None:
        return None
    v = a.view()
    v.flags.writeable = False
    return v


def snapshot(*arrays) -> list:
    return [None if a is None else a.tobytes() for a in arrays]


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
def test_block_diagnostics_writes_nothing_it_does_not_own(algorithm):
    """A block of one holds the engine's own arrays: read with no ``out``,
    nothing may be written into them, and the engine's four diagnostics
    methods must leave its state as they found it."""
    cfg = config(algorithm, 20, T=25)
    oracle = simulate_per_round(cfg)
    engine = DualAveragingEngine(cfg.topology, cfg.blocks, cfg.box)
    for t in range(cfg.T):
        engine.step(oracle.updates[t], float(oracle.steps[t]))
    r = None if engine._w is not None else engine._r
    state = (engine._Z, engine._ratios, engine._w, engine._u_total)
    before = snapshot(*state)
    Z, R, W, U = (read_only(None if a is None else a[None]) for a in state)
    got = block_diagnostics(Z, R, W, U, r)
    assert snapshot(*state) == before
    assert [float(v[0]) for v in got] == [
        oracle.disagreement[-1], oracle.disagreement_squared[-1],
        oracle.mean_field_residual[-1], oracle.weight_residual[-1],
    ]
    engine.disagreement(), engine.disagreement_squared()
    engine.mean_field_residual(), engine.weight_conservation_residual()
    assert snapshot(*state) == before


def held_block(algorithm) -> tuple:
    """Nine rounds' stacked Z, ratios and weights (None for oda-c), running
    sums U and the stationary r (None for oda-ps)."""
    cfg = config(algorithm, 20, T=9)
    engine = DualAveragingEngine(cfg.topology, cfg.blocks, cfg.box)
    rng = np.random.default_rng(3)
    held = []
    for t in range(1, cfg.T + 1):
        engine.step(rng.normal(size=cfg.p), 1.0 / t)
        held.append((engine._Z, engine._ratios, engine._w))
    Z, R, W = (None if held[0][k] is None else np.array([h[k] for h in held]) for k in range(3))
    U = np.cumsum(rng.normal(size=(cfg.T, cfg.p)), axis=0)
    r = None if W is not None else engine._r
    return Z, R, W, U, r


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
def test_deviation_in_the_stacked_ratios_gives_the_same_bits(algorithm):
    """With out= the caller's ratios (Z itself for oda-c) the deviation is
    formed in them; the diagnostics must not move by a bit."""
    Z, R, W, U, r = held_block(algorithm)
    want = block_diagnostics(Z, R, W, U, r)
    if r is not None:
        got = block_diagnostics(Z, Z, None, U, r, out=Z)
    else:
        R = R.copy()
        got = block_diagnostics(Z, R, W, U, r, out=R)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
def test_deviation_in_a_separate_buffer_gives_the_same_bits(algorithm):
    """With out= a buffer of its own (simulate's dead points, for a block of
    one) the diagnostics keep their bits, and Z, the ratios and the weights
    keep theirs: read-only views of them must not be written."""
    Z, R, W, U, r = held_block(algorithm)
    want = block_diagnostics(Z, R, W, U, r)
    before = snapshot(Z, R, W)
    out = np.full_like(R, np.nan)
    got = block_diagnostics(read_only(Z), read_only(R), read_only(W), U, r, out=out)
    assert snapshot(Z, R, W) == before
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def guard_live_state(monkeypatch):
    """Wrap ``DualAveragingEngine.step``: after each step the engine's
    current _X, _Z, _ratios and _w are read-only, and the arrays the step
    replaced are writable again, so a write into a live array raises."""
    step = DualAveragingEngine.step

    def live(engine):
        return [a for a in (engine._X, engine._Z, engine._ratios, engine._w) if a is not None]

    def guarded(engine, *args):
        before = live(engine)
        step(engine, *args)
        after = live(engine)
        for a in before:
            if not any(a is b for b in after):
                a.flags.writeable = True
        for a in after:
            a.flags.writeable = False

    monkeypatch.setattr(DualAveragingEngine, "step", guarded)


# n = 5 runs one block of 655 rounds then a block of one at the default size
@pytest.mark.parametrize("block", [1, "default"])
@pytest.mark.parametrize("algorithm, n, T", [
    ("oda-c", 5, 656), ("oda-ps", 5, 656), ("oda-c", 200, 12), ("oda-ps", 200, 12),
])
def test_simulate_writes_only_into_replaced_arrays(algorithm, n, T, block, monkeypatch):
    cfg = config(algorithm, n, T=T)
    want = simulate_per_round(cfg)
    set_block(monkeypatch, block, cfg)
    guard_live_state(monkeypatch)
    assert_same_history(simulate(cfg), want)
