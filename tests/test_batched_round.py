"""The batched round against the per-agent round it replaced.

The references below are the engines' former round: one gradient call per
agent at its own primal point (over whole runs, on the normal form H x - b
that simulate passes), and one injection per agent. The batched round must
reproduce it to 1e-12 from an identical state and over whole runs at
n <= 5. Longer runs at larger n amplify summation-order differences through
the box clamps, so the n=50 run is held to the run invariants instead of to
exact equality.
"""

import copy

import numpy as np
import pytest
from conftest import injection, mean_field, random_digraph_schedule, record_primals

from netdual import (
    ActionBox,
    BlockMap,
    DigraphSchedule,
    DualAveragingEngine,
    QuadraticLoss,
    RunConfig,
    lazy_cycle_pair,
    run,
    simulate,
    split_ring_schedule,
    topology_from_dict,
)

GROUPED = BlockMap(blocks=((0, 5), (1, 2), (3,), (4, 6, 7, 8, 9)))


def reference_local_updates(engine, objective):
    u = np.zeros(engine.p)
    for i, block in enumerate(engine.blocks.blocks):
        g = objective.A.T @ (objective.A @ engine._X[i] - objective.q)
        u[list(block)] = g[list(block)]
    return u


def reference_normal_form_updates(engine, H, b, out=None):
    """The per-agent round on the normal form simulate passes: H x_i - b,
    written into ``out`` when given."""
    u = np.zeros(engine.p) if out is None else out
    for i, block in enumerate(engine.blocks.blocks):
        g = H @ engine._X[i] - b
        u[list(block)] = g[list(block)]
    return u


def reference_step(engine, u, alpha, X=None, Z=None, w=None, R=None):
    """The per-agent step, its results copied into X, Z and w when given,
    and push-sum's ratios into R when given."""
    pushsum = isinstance(engine.network, DigraphSchedule)
    U = np.zeros((engine.n, engine.p))
    for k, block in enumerate(engine.blocks.blocks):
        idx = list(block)
        U[k, idx] = engine.n * u[idx] if pushsum else u[idx] / engine.network.pair.r[k]
        engine._u_total[idx] += u[idx]
    if pushsum:
        A = engine.network.matrix_at(engine.rounds)
        engine._Z = A @ engine._Z + U
        engine._w = A @ engine._w
        Y = engine._Z / engine._w[:, None]
        if R is not None:
            R[...] = Y
    else:
        engine._Z = engine.network.pair.M @ engine._Z + U
        Y = engine._Z
    engine._X = np.clip(-alpha * Y, engine.box.lo[None, :], engine.box.hi[None, :])
    for name, out in (("_X", X), ("_Z", Z), ("_w", w if pushsum else None)):
        if out is not None:
            out[...] = getattr(engine, name)
            setattr(engine, name, out)
    engine.rounds += 1


def engine_state(engine):
    state = [engine._Z, engine._X, engine._u_total]
    if isinstance(engine.network, DigraphSchedule):
        state.append(engine._w)
    return state


def engines(rng):
    """The engine over both operators, on scalar and grouped block maps, n <= 10."""
    yield DualAveragingEngine(
        network=lazy_cycle_pair(10), blocks=BlockMap.scalar(10), box=ActionBox.uniform(-3, 3, 10)
    )
    yield DualAveragingEngine(
        network=lazy_cycle_pair(4), blocks=GROUPED, box=ActionBox.uniform(-3, 3, 10)
    )
    yield DualAveragingEngine(
        network=split_ring_schedule(10, 4),
        blocks=BlockMap.scalar(10),
        box=ActionBox.uniform(-3, 3, 10),
    )
    yield DualAveragingEngine(
        network=random_digraph_schedule(4, 3, rng), blocks=GROUPED, box=ActionBox.uniform(-3, 3, 10)
    )


def test_one_step_matches_reference_from_identical_state():
    rng = np.random.default_rng(2)
    for engine in engines(rng):
        p = engine.p
        # a nontrivial state: some rounds of random injections, some clamped
        for t in range(1, 8):
            engine.step(rng.uniform(-2, 2, p), alpha=0.5 / np.sqrt(t))
        obj = QuadraticLoss(A=np.eye(p) + 0.1 * rng.uniform(-1, 1, (p, p)), q=rng.normal(size=p))
        ref = copy.deepcopy(engine)

        u = engine.local_updates(obj.A.T @ obj.A, obj.q @ obj.A)
        u_ref = reference_local_updates(ref, obj)
        assert u.shape == (p,)
        assert np.max(np.abs(u - u_ref)) <= 1e-12

        engine.step(u, alpha=0.3)
        reference_step(ref, u_ref, alpha=0.3)
        assert engine.rounds == ref.rounds
        for got, want in zip(engine_state(engine), engine_state(ref)):
            assert np.max(np.abs(got - want)) <= 1e-12


def test_diagnostics_match_direct_formulas_after_every_step():
    rng = np.random.default_rng(5)
    for engine in engines(rng):
        for t in range(1, 51):
            engine.step(rng.uniform(-2, 2, engine.p), alpha=0.5 / np.sqrt(t))
            mf = mean_field(engine)
            d = engine.ratios() - mf[None, :]
            weights = 0.0 if engine._w is None else abs(engine._w.sum() - engine.n)
            want = {
                "disagreement": np.linalg.norm(d, axis=1).sum(),
                "disagreement_squared": (d * d).sum(),
                "mean_field_residual": np.abs(mf - engine._u_total).max(),
                "weight_conservation_residual": weights,
            }
            # read in a different order each round, so no method is always first
            names = list(want)
            for name in names[t % 4 :] + names[: t % 4]:
                got = getattr(engine, name)()
                assert np.isclose(got, want[name], rtol=1e-12, atol=0), (t, name, got)


FULL_RUNS = pytest.mark.parametrize(
    "config",
    [
        RunConfig("oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=2000, seed=3),
        RunConfig("oda-ps", split_ring_schedule(5, 3), ActionBox.uniform(-10, 10, 5), T=2000, seed=3),
        RunConfig(
            "oda-ps", random_digraph_schedule(4, 3, np.random.default_rng(9), 0.8),
            ActionBox.uniform(-10, 10, 10), T=2000, seed=4, blocks=GROUPED,
        ),
    ],
    ids=["oda-c", "oda-ps", "oda-ps-grouped"],
)


@FULL_RUNS
def test_updates_are_the_losses_own_gradient(config, monkeypatch):
    primals = record_primals(monkeypatch)
    history = simulate(config)
    X = np.array(primals)  # (T, n, p): the points acted on at each round
    G = np.stack([history.losses.gradient(X[:, i]) for i in range(config.n)], axis=1)
    want = G[:, config.blocks.owner, np.arange(config.p)]
    assert np.max(np.abs(history.updates - want)) <= 1e-12


@FULL_RUNS
def test_full_run_matches_reference(config, monkeypatch):
    seen = record_primals(monkeypatch)
    history = simulate(config)
    got = {"primals": np.array(seen), "actions": history.actions, "updates": history.updates}
    monkeypatch.setattr(DualAveragingEngine, "local_updates", reference_normal_form_updates)
    monkeypatch.setattr(DualAveragingEngine, "step", reference_step)
    seen = record_primals(monkeypatch)
    ref = simulate(config)
    want = {"primals": np.array(seen), "actions": ref.actions, "updates": ref.updates}
    assert got["primals"].shape == (config.T, config.n, config.p)
    for field in ("actions", "updates", "primals"):
        gap = np.max(np.abs(got[field] - want[field]))
        assert gap <= 1e-12, f"{field} differs by {gap:.3g}"
    # the disagreement records grow to 1e3-1e4: compare them relatively
    for field in ("disagreement", "disagreement_squared"):
        got, want = getattr(history, field), getattr(ref, field)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_pushsum_n50_meets_run_invariants():
    config = RunConfig(
        "oda-ps",
        split_ring_schedule(50, 5),
        ActionBox.uniform(-10, 10, 50),
        T=500,
        seed=11,
    )
    trace = run(config)
    assert np.max(trace.mean_field_residual) <= 1e-8
    assert trace.constants["max_weight_residual"] <= 1e-9
    assert np.all(trace.regret_partial <= trace.bound_partial + 1e-9)
    bound = trace.constants["disagreement_bound"]
    assert np.all(trace.disagreement_squared <= bound * (1 + 1e-12) + 1e-12)


@pytest.mark.parametrize("algorithm", ["oda-c", "oda-ps"])
@pytest.mark.parametrize("n", [1, 5, 50])
def test_strided_injection_is_the_fancy_index(n, algorithm):
    """The identity map (n = p) injects through the strided diagonal view
    Z.reshape(-1)[::p + 1]; from the same random duals a step must leave
    the bytes the fancy index (owner * p + arange(p)) leaves."""
    rng = np.random.default_rng(n)
    if algorithm == "oda-ps":
        network = split_ring_schedule(n, min(n, 3))
    elif n == 1:  # a cycle needs 3 agents: the one-agent pair M = [[1]]
        network = topology_from_dict(
            {"mode": "static", "n": 1, "edges": [], "r": [1.0], "M": [[1.0]]}
        )
    else:
        network = lazy_cycle_pair(n)
    box = ActionBox.uniform(-4.0, 4.0, n)
    strided = DualAveragingEngine(network, BlockMap.scalar(n), box)
    assert strided._inject == slice(None, None, n + 1)
    fancy = copy.deepcopy(strided)
    fancy._inject = np.arange(n) * n + np.arange(n)
    for engine in (strided, fancy):
        engine._Z = np.random.default_rng(n + 1).normal(size=(n, n)) * 10.0
    for t in range(3):
        u = rng.uniform(-2.0, 2.0, n)
        strided.step(u, 0.5 / (t + 1))
        fancy.step(u, 0.5 / (t + 1))
        assert strided._Z.tobytes() == fancy._Z.tobytes()
        assert strided._X.tobytes() == fancy._X.tobytes()
        assert injection(strided, u).tobytes() == injection(fancy, u).tobytes()


def test_grouped_map_keeps_the_index():
    engine = DualAveragingEngine(lazy_cycle_pair(4), GROUPED, ActionBox.uniform(-1.0, 1.0, 10))
    assert np.array_equal(engine._inject, GROUPED.owner * 10 + np.arange(10))
