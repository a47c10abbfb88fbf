"""The sensing noise is drawn in blocks of rounds by ``normal_rows``: it must
give the T rounds of ``standard_normals`` bit for bit and leave the generator
in the same state, including at a round whose first polar attempt falls
short and takes a second one."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from conftest import measurements_per_round

from netdual import ActionBox, RunConfig, finalize, harness, lazy_cycle_pair, simulate
from netdual.harness import normal_rows, standard_normals, write_trace_csv


def generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def pairs(p):
    """The uniform pairs of a round's first polar attempt."""
    return max(8, p // 2 + p // 4 + 8)


def first_attempts_only(state, T, p):
    """The generator's state after T rounds from ``state`` that each take
    one polar attempt: a draw that ends elsewhere took a second one."""
    rng = generator(0)
    rng.bit_generator.state = state
    rng.bit_generator.advance(T * 2 * pairs(p))
    return rng.bit_generator.state["state"]


def polar_loop(rng, T, p):
    out = np.empty((T, p))
    for t in range(T):
        out[t] = standard_normals(rng, p)
    return out


# (p, seed): with raw PCG64(seed), the seeds of p = 3, 20 and 50 take a
# second polar attempt within 2000 rounds
SEEDED = [(1, 0), (3, 3), (20, 5), (50, 1), (200, 0)]
SECOND_ATTEMPT = [(3, 3), (20, 5), (50, 1)]


# the block sizes are 1024, 910, 356, 182 and 51 rounds (p = 1, 3, 20, 50,
# 200); 2000 and 2001 are multiples of none of them (whole blocks: below)
@pytest.mark.parametrize("T", [0, 1, 7, 2000, 2001])
@pytest.mark.parametrize("p, seed", SEEDED)
def test_normal_rows_is_the_per_round_polar_draw(p, seed, T):
    loop_rng, rows_rng = generator(seed), generator(seed)
    want = polar_loop(loop_rng, T, p)
    got = normal_rows(rows_rng, T, p)
    assert got.shape == (T, p)
    assert got.tobytes() == want.tobytes()
    assert rows_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("p, seed", [(20, 5), (200, 0)])
def test_normal_rows_at_a_multiple_of_the_block(p, seed):
    size = max(1, harness.BLOCK_VALUES // (2 * pairs(p)))
    loop_rng, rows_rng = generator(seed), generator(seed)
    want = polar_loop(loop_rng, 3 * size, p)
    assert normal_rows(rows_rng, 3 * size, p).tobytes() == want.tobytes()
    assert rows_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("p, seed", SECOND_ATTEMPT)
def test_second_attempt_rounds_are_exercised(p, seed):
    """Without a second attempt the T rounds draw exactly T * 2 * pairs
    uniforms; these streams draw more, so the block's fallback ran."""
    T = 2000
    rng = generator(seed)
    start = rng.bit_generator.state
    want = polar_loop(generator(seed), T, p)
    assert normal_rows(rng, T, p).tobytes() == want.tobytes()
    assert rng.bit_generator.state["state"] != first_attempts_only(start, T, p)


def test_buffered_half_word_survives_the_fallback():
    """A PCG64 holding half of a 64-bit word for its next 32-bit draw keeps
    it: the fallback redraws, where an advance would drop the half. With
    that word drawn first, seed 8 at p = 3 takes a second polar attempt."""
    loop_rng, rows_rng = generator(8), generator(8)
    for rng in (loop_rng, rows_rng):
        rng.integers(2**32, dtype=np.uint32)
    start = rows_rng.bit_generator.state
    assert start["has_uint32"] == 1
    want = polar_loop(loop_rng, 2000, 3)
    assert normal_rows(rows_rng, 2000, 3).tobytes() == want.tobytes()
    assert rows_rng.bit_generator.state == loop_rng.bit_generator.state
    assert rows_rng.bit_generator.state["state"] != first_attempts_only(start, 2000, 3)


def sensing_config(seed, T, cov=None):
    return RunConfig(
        "oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10.0, 10.0, 5), T=T, seed=seed,
        environment=harness.sensing_environment_factory(cov=cov),
    )


def run_bytes(cfg, path):
    """The RunHistory arrays and trace-CSV bytes of one run."""
    history = simulate(cfg)
    write_trace_csv(finalize(history), path)
    arrays = {
        f.name: getattr(history, f.name).tobytes()
        for f in fields(history)
        if isinstance(getattr(history, f.name), np.ndarray)
    }
    arrays["losses.q"] = history.losses.q.tobytes()
    return arrays, path.read_bytes()


# a general covariance, and a run seed whose noise stream takes a second
# polar attempt (p = 5, T = 500, seed 27)
M = generator(2).uniform(-1.0, 1.0, (5, 5))
P = 0.1 * (M @ M.T) + 0.1 * np.eye(5)
RUNS = [(5, 400, P), (27, 500, None)]


@pytest.mark.parametrize("seed, T, cov", RUNS, ids=["covariance", "second-attempt"])
def test_simulate_matches_the_per_round_draw(seed, T, cov, monkeypatch, tmp_path):
    cfg = sensing_config(seed, T, cov)
    got = run_bytes(cfg, tmp_path / "blocked.csv")
    monkeypatch.setattr(harness.SensingEnvironment, "measurements", measurements_per_round)
    want = run_bytes(cfg, tmp_path / "per_round.csv")
    assert len(got[0]) == 10
    assert got[0] == want[0]
    assert got[1] == want[1]


def test_second_attempt_run_seed_takes_one():
    """The second-attempt run above must draw more than the first attempts."""
    cfg = sensing_config(27, 500)
    rng = harness.run_generator(cfg)
    env = cfg.environment(5, rng)
    start = rng.bit_generator.state
    env.measurements(500, rng)
    assert rng.bit_generator.state["state"] != first_attempts_only(start, 500, 5)


@pytest.mark.parametrize("p, T", [(20, 4000), (200, 500)])
def test_blocked_draw_stays_near_its_output(p, T):
    """The draw holds one block of uniforms at a time: an unblocked
    (T, 2, pairs) draw would take several times the stack it returns."""
    rng = generator(5)
    env = harness.sensing_environment_factory()(p, rng)
    tracemalloc.start()
    try:
        Q = env.measurements(T, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * Q.nbytes, (peak, Q.nbytes)
