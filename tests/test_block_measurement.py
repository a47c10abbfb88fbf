"""simulate measures its rounds in blocks of c = max(1, BLOCK_VALUES // (n p)):
the engine steps each block into its own slots (``run_block``), and the
actions, the reference and its gaps and the diagnostics of c rounds are formed
in one vectorised pass over those slots. Every RunHistory array must equal the
round-by-round oracle's bit for bit, at any block size and any horizon."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from conftest import random_digraph_schedule, record_primals, simulate_per_round

from netdual import (
    ActionBox,
    BlockMap,
    ConfigError,
    DigraphSchedule,
    DualAveragingEngine,
    RunConfig,
    harness,
    lazy_cycle_pair,
    simulate,
    split_ring_schedule,
)
from netdual import engine as engine_module
from netdual.engine import block_diagnostics
from netdual.harness import fixed_environment_factory

GROUPED = BlockMap(blocks=((0, 5), (1, 2), (3,), (4, 6, 7)))


def config(algorithm, n, T, seed=5, blocks=None, explicit=False, **kw):
    """A run on the lazy n-cycle (oda-c) or the 5-phase split n-ring (oda-ps);
    ``explicit`` spells the ring out as one graph per round (period 0)."""
    if blocks is not None:
        topology = (
            lazy_cycle_pair(blocks.n)
            if algorithm == "oda-c"
            else random_digraph_schedule(blocks.n, 3, np.random.default_rng(9), 0.8)
        )
    else:
        topology = lazy_cycle_pair(n) if algorithm == "oda-c" else split_ring_schedule(n, 5)
        if explicit:
            ring = topology.graphs
            topology = DigraphSchedule(n, tuple(ring[t % 5] for t in range(T)), period=0)
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
        monkeypatch.setattr(engine_module, "BLOCK_VALUES", block * cfg.n * cfg.p)


# T = 335 is a multiple of none of the block sizes: 1 aside, it leaves a
# trailing block of one at c = 2, a trailing partial block at c = 3 and 7 and
# at the defaults 983 (n = p = 5), 61 (n = p = 20), 9 (n = p = 50) and 768
# (GROUPED), and c = 400 and the n = 5 and GROUPED defaults run the horizon
# as one block shorter than c
CASES = [
    ("oda-c", 5, None, False),
    ("oda-ps", 5, None, False),
    ("oda-c", 20, None, False),
    ("oda-ps", 20, None, False),
    ("oda-c", 50, None, False),
    ("oda-ps", 50, None, False),
    ("oda-c", None, GROUPED, False),
    ("oda-ps", None, GROUPED, False),
    ("oda-ps", 50, None, True),
]


@pytest.mark.parametrize("block", [1, 2, 3, 7, "default", 400])
@pytest.mark.parametrize(
    "algorithm, n, blocks, explicit", CASES,
    ids=[f"{a}-{'grouped' if b else n}{'-explicit' if e else ''}" for a, n, b, e in CASES],
)
def test_blocks_match_the_round_by_round_oracle(
    algorithm, n, blocks, explicit, block, monkeypatch
):
    cfg = config(algorithm, n, T=335, blocks=blocks, explicit=explicit)
    set_block(monkeypatch, block, cfg)
    c = max(1, engine_module.BLOCK_VALUES // (cfg.n * cfg.p))
    default = {25: 983, 400: 61, 2500: 9, 32: 768}[cfg.n * cfg.p]
    assert c == (block if block != "default" else default)
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
@pytest.mark.parametrize("alone", [1, 2, 3, 4])
@pytest.mark.parametrize("block", [2, 3, "default"])
def test_a_block_after_rounds_of_one_steps_as_they_do(algorithm, alone, block, monkeypatch):
    """Rounds stepped one at a time rotate slots c - 1, c and 2c; a block
    after any of their rotations must step as rounds of one do, bit for bit.
    At c = 2 and 3 the rounds alternate `alone` rounds of one with a block of
    c, which writes all three of those slots; at the default c = 983 the
    rounds of one are followed by one block of the rest."""
    cfg = config(algorithm, 5, T=12)
    set_block(monkeypatch, block, cfg)
    rng = np.random.default_rng(alone)
    A = np.eye(5) + 0.1 * rng.uniform(-1, 1, (5, 5))
    H, b = A.T @ A, rng.normal(size=(cfg.T, 5)) * 3.0
    alphas = 1.0 / np.sqrt(np.arange(1.0, cfg.T + 1))
    single, blocked = (DualAveragingEngine(cfg.topology, cfg.blocks, cfg.box) for _ in range(2))
    c = blocked.block_rounds
    assert c == (983 if block == "default" else block)
    points, duals = [], []
    for t in range(cfg.T):
        points.append(single._X.copy())
        single.step(single.local_updates(H, b[t].copy()), alphas[t])
        duals.append(single._Z.copy())
    t = 0
    while t < cfg.T:
        for s in range(t, min(t + alone, cfg.T)):
            blocked.step(blocked.local_updates(H, b[s].copy()), alphas[s])
        t = min(t + alone, cfg.T)
        k = min(c, cfg.T - t)
        if k:
            X, Z, R, W = blocked.run_block(H, b[t : t + k].copy(), alphas[t : t + k].tolist())
            assert X.tobytes() == np.array(points[t : t + k]).tobytes()
            assert Z.tobytes() == np.array(duals[t : t + k]).tobytes()
            t += k
    assert blocked.rounds == cfg.T
    for name in ("_X", "_Z", "_w"):
        assert np.array_equal(getattr(blocked, name), getattr(single, name)), name


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
def test_a_block_without_slots_is_refused(algorithm, monkeypatch):
    """run_block steps 1 to c rounds with one step size each; any other
    block is refused before it moves the engine, which then steps as new."""
    cfg = config(algorithm, 5, T=2)
    set_block(monkeypatch, 2, cfg)
    engine, fresh = (DualAveragingEngine(cfg.topology, cfg.blocks, cfg.box) for _ in range(2))
    H, b = np.eye(5), np.arange(10.0).reshape(2, 5)
    for k, steps in [(0, []), (3, [1.0] * 3), (2, [1.0]), (1, [1.0, 0.5])]:
        with pytest.raises(ConfigError, match="a block steps 1 to 2 rounds"):
            engine.run_block(H, np.ones((k, 5)), steps)
    assert engine.rounds == 0 and not engine._u_total.any()
    got = engine.run_block(H, b.copy(), [1.0, 0.5])
    want = fresh.run_block(H, b.copy(), [1.0, 0.5])
    assert snapshot(*got) == snapshot(*want)


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
    "algorithm, n, T",
    [("oda-c", 20, 4000), ("oda-ps", 50, 2000), ("oda-c", 200, 500)],
    ids=["sweep20", "pushsum50", "ring200"],
)
def test_blocks_add_at_most_half_a_megabyte(algorithm, n, T, monkeypatch):
    cfg = config(algorithm, n, T=T)
    # the oracle steps one round at a time: its engine holds the slots of a
    # block of one, so the blocks' slots count against simulate alone
    with monkeypatch.context() as m:
        m.setattr(engine_module, "BLOCK_VALUES", 1)
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
    state = (engine._Z, engine.ratios(), engine._w, engine._u_total)
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


def held_block(algorithm, n=20, c=9, blocks=None) -> tuple:
    """c rounds' stacked Z, ratios and weights (None for oda-c), running
    sums U and the stationary r (None for oda-ps)."""
    cfg = config(algorithm, n, T=c, blocks=blocks)
    engine = DualAveragingEngine(cfg.topology, cfg.blocks, cfg.box)
    rng = np.random.default_rng(3)
    held = []
    for t in range(1, cfg.T + 1):
        engine.step(rng.normal(size=cfg.p), 1.0 / t)
        held.append((engine._Z, engine.ratios(), engine._w))
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


@pytest.mark.parametrize("c", [9, 1])
def test_pushsum_deviation_over_its_ratios_writes_only_them(c):
    """simulate measures a push-sum block with out= the ratios its steps
    left in the ratio slots: the diagnostics must keep their bits, the
    ratios must take the deviation, and Z, the weights and the running sums
    must keep theirs, read-only as they are passed."""
    Z, R, W, U, _ = held_block("oda-ps", c=c)
    want = block_diagnostics(Z, R, W, U, None)
    deviation = R - Z.mean(axis=1)[:, None, :]
    before = snapshot(Z, W, U)
    got = block_diagnostics(read_only(Z), R, read_only(W), read_only(U), None, out=R)
    assert snapshot(Z, W, U) == before
    assert R.tobytes() == deviation.tobytes()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
def test_deviation_in_a_separate_buffer_gives_the_same_bits(algorithm):
    """With out= a buffer of its own (simulate's spent points, for oda-c)
    the diagnostics keep their bits, and Z, the ratios and the weights keep
    theirs: read-only views of them must not be written."""
    Z, R, W, U, r = held_block(algorithm)
    want = block_diagnostics(Z, R, W, U, r)
    before = snapshot(Z, R, W)
    out = np.full_like(R, np.nan)
    got = block_diagnostics(read_only(Z), read_only(R), read_only(W), U, r, out=out)
    assert snapshot(Z, R, W) == before
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def guard_carried_state(monkeypatch):
    """Wrap ``DualAveragingEngine.local_updates`` and ``step``: each call
    first checks that the points, duals and weights the last step left, the
    slots the next round reads, still hold the bytes that step wrote. A
    write into them through any view of simulate's buffers fails at the next
    call; the returned check covers the last block's measurement."""
    local_updates, step = DualAveragingEngine.local_updates, DualAveragingEngine.step
    left = []  # the engine the last step moved and the bytes of its state

    def carried(engine):
        state = {"points": engine._X, "duals": engine._Z, "weights": engine._w}
        return {name: a.tobytes() for name, a in state.items() if a is not None}

    def check():
        if left:
            engine, want = left
            written = [name for name, a in carried(engine).items() if a != want[name]]
            assert not written, f"the carried {written} were written after their step"

    def guarded_local_updates(engine, *args):
        check()
        return local_updates(engine, *args)

    def guarded_step(engine, *args):
        check()
        step(engine, *args)
        left[:] = engine, carried(engine)

    monkeypatch.setattr(DualAveragingEngine, "local_updates", guarded_local_updates)
    monkeypatch.setattr(DualAveragingEngine, "step", guarded_step)
    return check


# at the default block size n = 5 runs one block of c rounds then a block of
# one, and n = 200 runs blocks of one (n p > BLOCK_VALUES)
C5 = harness.BLOCK_VALUES // 25


@pytest.mark.parametrize("block", [1, 2, "default"])
@pytest.mark.parametrize("algorithm, n, T", [
    ("oda-c", 5, C5 + 1), ("oda-ps", 5, C5 + 1), ("oda-c", 200, 12), ("oda-ps", 200, 12),
])
def test_simulate_writes_only_into_replaced_arrays(algorithm, n, T, block, monkeypatch):
    cfg = config(algorithm, n, T=T)
    want = simulate_per_round(cfg)
    set_block(monkeypatch, block, cfg)
    check = guard_carried_state(monkeypatch)
    got = simulate(cfg)
    check()
    assert_same_history(got, want)


# The measured norms are one dot a row, np.vecdot, where the former formula
# squared the row and reduced it pairwise; for p <= 1000 both err by a few
# ulps (Higham 2002, sections 3.1 and 4.2), so they agree within 8 eps
EPS = np.finfo(float).eps
NORM_CASES = [(a, n, None) for n in (5, 50, 200) for a in ("oda-c", "oda-ps")] + [
    ("oda-c", None, GROUPED), ("oda-ps", None, GROUPED),
]
NORM_IDS = [f"{a}-{'grouped' if b else n}" for a, n, b in NORM_CASES]


def within_eight_ulps(got, want):
    return bool(np.all(np.abs(got - want) <= 8 * EPS * want))


@pytest.mark.parametrize("c", [1, 9])
@pytest.mark.parametrize("algorithm, n, blocks", NORM_CASES, ids=NORM_IDS)
def test_block_row_norms_are_square_then_reduce_within_eight_ulps(
    algorithm, n, blocks, c, monkeypatch
):
    """Each row's squared norm of the deviation, as ``block_diagnostics``
    forms it, against the square-then-reduce of the same row; the two
    returned norms are that row's root summed and its sum, bit for bit."""
    Z, R, W, U, r = held_block(algorithm, n, c, blocks)
    seen = []

    def recording(a, b):
        seen.append(np.vecdot(a, b))
        return seen[-1]

    monkeypatch.setattr(engine_module, "_row_dots", recording)
    out = np.full_like(R, np.nan)
    dis, dis_sq, _, _ = block_diagnostics(Z, R, W, U, r, out=out)
    # the dot only reads the deviation, which is left in out
    mf = Z.mean(axis=1) if r is None else np.matmul(r, Z)
    assert out.tobytes() == (R - mf[:, None, :]).tobytes()
    (rows,) = seen
    assert rows.shape == R.shape[:2]
    assert within_eight_ulps(rows, np.add.reduce(np.square(out), axis=-1))
    assert dis.tobytes() == np.sqrt(rows).sum(axis=1).tobytes()
    assert dis_sq.tobytes() == rows.sum(axis=1).tobytes()


@pytest.mark.parametrize("block", [1, 9])
@pytest.mark.parametrize("algorithm, n, blocks", NORM_CASES, ids=NORM_IDS)
def test_reference_gaps_are_the_primal_norms_within_eight_ulps(
    algorithm, n, blocks, block, monkeypatch
):
    """simulate's ref_gaps against np.linalg.norm of the recorded points'
    distances to the round's reference, summed over agents."""
    cfg = config(algorithm, n, T=20 if n == 200 else 60, blocks=blocks)
    set_block(monkeypatch, block, cfg)
    seen = record_primals(monkeypatch)
    history = simulate(cfg)
    d = np.array(seen) - history.refs[:, None, :]
    want = np.linalg.norm(d, axis=2).sum(axis=1)
    assert want[0] == 0 and np.all(want[1:] > 0)  # round 1 starts at the reference
    assert within_eight_ulps(history.ref_gaps, want)
