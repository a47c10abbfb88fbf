"""The sensing noise is one ``rng.standard_normal((T, p))`` call, mapped to
its measurements a block of rounds at a time: a run must be bit for bit the
run whose environment draws and maps one round after another, and the draw
must stay near the size of the stack it returns. The one-call draw must itself
be T calls of ``rng.standard_normal(p)`` bit for bit, leaving the generator in
the same state."""

import tracemalloc

import numpy as np
import pytest
from conftest import measurements_per_round, numpy_build, run_bytes

from netdual import ActionBox, RunConfig, harness, lazy_cycle_pair


def generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def per_round_draw(rng, T, p):
    out = np.empty((T, p))
    for t in range(T):
        out[t] = rng.standard_normal(p)
    return out


# Byte-identical reruns, sweep rows and the per-round oracle all rest on
# numpy drawing a (T, p) stack as T draws of p in round order: a numpy whose
# ziggurat buffered or reordered across rows would move every run here first.
# p = 200 at T = 2001 draws 400 200 normals, enough to pass through the
# ziggurat's rejection and tail paths many times.
@pytest.mark.parametrize("T", [0, 1, 7, 2000, 2001])
@pytest.mark.parametrize("p, seed", [(1, 0), (3, 3), (20, 5), (50, 1), (200, 0)])
def test_one_call_draw_is_the_per_round_draw(p, seed, T):
    loop_rng, block_rng = generator(seed), generator(seed)
    want = per_round_draw(loop_rng, T, p)
    got = block_rng.standard_normal((T, p))
    assert got.shape == (T, p)
    assert got.tobytes() == want.tobytes(), numpy_build()
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state, numpy_build()


def test_buffered_half_word_survives_the_draw():
    """A PCG64 holding half of a 64-bit word for its next 32-bit draw keeps
    it through the one-call draw, as through the per-round draws."""
    loop_rng, block_rng = generator(8), generator(8)
    for rng in (loop_rng, block_rng):
        rng.integers(2**32, dtype=np.uint32)
    assert block_rng.bit_generator.state["has_uint32"] == 1
    want = per_round_draw(loop_rng, 2000, 3)
    assert block_rng.standard_normal((2000, 3)).tobytes() == want.tobytes(), numpy_build()
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state
    assert block_rng.bit_generator.state["has_uint32"] == 1


def sensing_config(seed, T, cov=None):
    return RunConfig(
        "oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10.0, 10.0, 5), T=T, seed=seed,
        environment=harness.sensing_environment_factory(cov=cov),
    )


# a general covariance
M = generator(2).uniform(-1.0, 1.0, (5, 5))
P = 0.1 * (M @ M.T) + 0.1 * np.eye(5)


@pytest.mark.parametrize("seed, T, cov", [(5, 400, P)], ids=["covariance"])
def test_simulate_matches_the_per_round_draw(seed, T, cov, monkeypatch, tmp_path):
    cfg = sensing_config(seed, T, cov)
    got = run_bytes(cfg, tmp_path / "blocked.csv")
    monkeypatch.setattr(harness.SensingEnvironment, "measurements", measurements_per_round)
    want = run_bytes(cfg, tmp_path / "per_round.csv")
    assert len(got[0]) == 10
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("p, T", [(20, 4000), (200, 500)])
def test_blocked_draw_stays_near_its_output(p, T):
    """The draw fills the stack it returns and the map reuses one block
    buffer, so the peak stays within twice the stack."""
    rng = generator(5)
    env = harness.sensing_environment_factory()(p, rng)
    tracemalloc.start()
    try:
        Q = env.measurements(T, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * Q.nbytes, (peak, Q.nbytes)
