"""The padded-row (ELLPACK) mix against the dense product it replaces at
large n, and the density rule that picks between them.

The gather sums each row over its nonzeros only, in ascending column order;
the dense product also adds the zero terms, in BLAS's order. So the two agree
to within a few roundings of |A| @ |Z| per entry, not bit for bit, and whole
runs through the gather are held to the run invariants and to a dense
reference run within 1e-9 relative.
"""

import math
import tracemalloc

import numpy as np
import pytest

from netdual import (
    ActionBox,
    BlockMap,
    DigraphSchedule,
    DualAveragingEngine,
    RunConfig,
    finalize,
    lazy_cycle_pair,
    simulate,
    split_ring_schedule,
)
from netdual import engine as engine_module
from netdual.engine import PaddedRows, mixing_operator

EPS = np.finfo(float).eps


def sparse_stochastic(n, kind, rng, columns=False):
    """A random nonnegative n×n matrix whose rows (or, with ``columns``,
    columns) sum to 1. ``kind`` is "permutation" (K = 1), "sparse" (the
    diagonal and 0-2 other nonzeros per row, so short rows are padded) or
    "dense-row" (sparse, with one row of n nonzeros)."""
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    A = np.zeros((n, n))
    for i in range(n):
        others = rng.choice(np.delete(np.arange(n), i), rng.integers(0, 3), replace=False)
        A[i, i] = rng.uniform(0.1, 1)
        A[i, others] = rng.uniform(0.1, 1, others.size)
    if kind == "dense-row":
        A[n // 2] = rng.uniform(0.1, 1, n)
    return A / A.sum(axis=0 if columns else 1, keepdims=True)


def test_padded_rows_layout():
    A = np.array(
        [
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 1.0, 0.0, 0.0],
            [0.2, 0.3, 0.4, 0.1],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    P = PaddedRows.of(A)
    # ascending columns; short rows padded at the end at their own row
    assert P.nbr.tolist() == [[1, 3, 0, 0], [1, 1, 1, 1], [0, 1, 2, 3], [3, 3, 3, 3]]
    assert P.W.shape == (4, 1, 4)
    assert P.W[:, 0].tolist() == [
        [0.5, 0.5, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.2, 0.3, 0.4, 0.1],
        [1.0, 0.0, 0.0, 0.0],
    ]


@pytest.mark.parametrize("n", [96, 128, 200])
@pytest.mark.parametrize("columns", [False, True], ids=["row-stochastic", "column-stochastic"])
@pytest.mark.parametrize("kind", ["permutation", "sparse", "dense-row"])
def test_gather_matches_dense_product(n, columns, kind):
    rng = np.random.default_rng([n, columns, len(kind)])
    A = sparse_stochastic(n, kind, rng, columns)
    P = PaddedRows.of(A)
    K = {"permutation": 1, "sparse": 3, "dense-row": n}[kind]
    assert P.nbr.shape == (n, K)
    for p in (1, 7, n):
        Z = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        got = P @ Z
        assert got.shape == (n, p)
        assert np.all(np.abs(got - A @ Z) <= 4 * EPS * (np.abs(A) @ np.abs(Z)))
    w = rng.uniform(0.5, 2, n)  # the push-sum weight channel is a vector
    got = P @ w
    assert got.shape == (n,)
    assert np.all(np.abs(got - A @ w) <= 4 * EPS * (np.abs(A) @ w))


def test_rule_picks_dense_at_small_n_and_gather_on_the_200_cycle():
    M20 = lazy_cycle_pair(20).pair.M
    assert mixing_operator(M20) is M20
    schedule = split_ring_schedule(50, 5)
    for k in range(schedule.period):
        A = schedule.matrix_at(k)
        assert mixing_operator(A) is A
    assert isinstance(mixing_operator(lazy_cycle_pair(200).pair.M), PaddedRows)


def test_operator_is_formed_once_per_distinct_matrix(monkeypatch):
    formed = []
    monkeypatch.setattr(
        engine_module, "mixing_operator", lambda A: formed.append(A) or mixing_operator(A)
    )
    n = 128
    engine = DualAveragingEngine(
        split_ring_schedule(n, 5), BlockMap.scalar(n), ActionBox.uniform(-3, 3, n)
    )
    rng = np.random.default_rng(0)
    for t in range(1, 13):
        engine.step(rng.uniform(-1, 1, n), alpha=1 / math.sqrt(t))
    assert len(formed) == 5
    forms = engine._operators
    assert len(forms) == 5
    assert all(isinstance(op, PaddedRows) for op in forms)


def test_explicit_schedule_keeps_no_matrix_past_its_round():
    # a periodic schedule keeps one matrix per slot; an explicit one serves
    # each matrix for one round, so stepping through it must not keep T
    n, T = 128, 300
    ring = split_ring_schedule(n, 5).graphs
    schedule = DigraphSchedule(n=n, graphs=tuple(ring[t % 5] for t in range(T)), period=0)
    engine = DualAveragingEngine(schedule, BlockMap.scalar(n), ActionBox.uniform(-3, 3, n))
    updates = np.random.default_rng(0).uniform(-1, 1, (T, n))
    tracemalloc.start()
    try:
        for t in range(T):
            engine.step(updates[t], alpha=1 / math.sqrt(t + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.rounds == T
    assert peak < 10 * n * n * 8


GATHER_RUNS = pytest.mark.parametrize(
    "config",
    [
        RunConfig("oda-c", lazy_cycle_pair(200), ActionBox.uniform(-10, 10, 200), T=50, seed=7),
        RunConfig(
            "oda-ps", split_ring_schedule(128, 5), ActionBox.uniform(-10, 10, 128), T=200, seed=7
        ),
    ],
    ids=["oda-c-cycle200", "oda-ps-ring128"],
)


@GATHER_RUNS
def test_full_run_through_gather_matches_dense(config, monkeypatch):
    products = []
    gather = PaddedRows.matmul
    monkeypatch.setattr(
        PaddedRows, "matmul", lambda P, X, out=None: products.append(X.ndim) or gather(P, X, out)
    )
    history = simulate(config)
    # the duals, and under push-sum the weights, went through the gather every round
    assert products.count(2) == config.T
    assert products.count(1) == (config.T if config.algorithm == "oda-ps" else 0)

    trace = finalize(history)
    assert np.max(trace.mean_field_residual) <= 1e-8
    assert np.max(history.weight_residual) <= 1e-9
    assert np.all(trace.regret_partial <= trace.bound_partial + 1e-9)

    # the same run with the rule held on dense
    monkeypatch.setattr(engine_module, "GATHER_DENSITY", math.inf)
    products.clear()
    ref = simulate(config)
    assert products == []
    for field in ("actions", "updates"):
        got, want = getattr(history, field), getattr(ref, field)
        gap = np.max(np.abs(got - want))
        assert gap <= 1e-9 * np.max(np.abs(want)), f"{field} differs by {gap:.3g}"
