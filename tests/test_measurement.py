"""finalize's array measurement against the per-round replay it replaced.

The reference below is the former measurement: one loss object per round,
the single-agent run rebuilt from the updates, and the regret split
accumulated round by round over every agent's recorded primal point. The
array measurement must reproduce it over 2000-round runs at n <= 5: the
disagreement term e2 exactly, everything else to 1e-12 (relative, or
absolute below 1).
"""

import math

import numpy as np
import pytest
from conftest import centralized_reference, inv_sqrt_step, random_digraph_schedule, record_primals

from netdual import (
    ActionBox,
    BlockMap,
    QuadraticLoss,
    RunConfig,
    finalize,
    lazy_cycle_pair,
    simulate,
    split_ring_schedule,
)

GROUPED = BlockMap(blocks=((0, 5), (1, 2), (3,), (4, 6, 7, 8, 9)))


def replay_terms(updates, primals, losses, box, L, C, alpha):
    """The former decomposition_terms: a loop over rounds with one loss
    object and the n recorded primal points of each round."""
    refs = centralized_reference(updates, box, alpha)
    T, n = primals.shape[:2]
    D = box.diameter
    e1, e2, e3, bound = (np.zeros(T) for _ in range(4))
    c1 = c2 = c3 = 0.0
    for t in range(1, T + 1):
        u = updates[t - 1]
        ref = refs[t - 1]
        c1 += 0.5 * alpha(t - 1) * float(u @ u)
        c2 += L * float(np.sum(np.linalg.norm(primals[t - 1] - ref[None, :], axis=1)))
        c3 += math.sqrt(n) * D * float(np.linalg.norm(losses[t - 1].gradient(ref) - u))
        e1[t - 1], e2[t - 1], e3[t - 1] = c1, c2, c3
        bound[t - 1] = c1 + c2 + c3 + C / alpha(t)
    return e1, e2, e3, bound


def replay_cost(loss, x):
    r = loss.A @ x - loss.q
    return 0.5 * float(np.dot(r, r))


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))))


CONFIGS = [
    RunConfig("oda-c", lazy_cycle_pair(5), ActionBox.uniform(-10, 10, 5), T=2000, seed=3),
    RunConfig("oda-ps", split_ring_schedule(5, 3), ActionBox.uniform(-10, 10, 5), T=2000, seed=3),
    RunConfig(
        "oda-ps", random_digraph_schedule(4, 3, np.random.default_rng(9), 0.8),
        ActionBox.uniform(-10, 10, 10), T=2000, seed=4, blocks=GROUPED,
    ),
]


@pytest.mark.parametrize("config", CONFIGS, ids=["oda-c", "oda-ps", "oda-ps-grouped"])
def test_finalize_matches_per_round_replay(config, monkeypatch):
    seen = record_primals(monkeypatch)
    history = simulate(config)
    primals = np.array(seen)
    assert primals.shape == (config.T, config.n, config.p)
    box, alpha = config.box, config.alpha or inv_sqrt_step

    # the recorded single-agent run is the oracle's, operation for operation
    assert np.array_equal(history.refs, centralized_reference(history.updates, box)[:-1])

    losses = [QuadraticLoss(history.losses.A, q) for q in history.losses.q]
    for T in (config.T, 700):
        trace = finalize(history, T)
        L = trace.constants["L"]
        e1, e2, e3, bound = replay_terms(
            history.updates[:T], primals[:T], losses[:T], box, L, trace.constants["C"], alpha
        )
        assert np.array_equal(trace.e2, e2)
        for name, want in (("e1", e1), ("e3", e3), ("bound_partial", bound)):
            assert close(getattr(trace, name), want), name
        costs = [replay_cost(f, x) for f, x in zip(losses, history.actions[:T])]
        comparator_costs = [replay_cost(f, trace.y_star) for f in losses[:T]]
        assert close(trace.costs, costs)
        assert close(trace.comparator_costs, comparator_costs)
        assert close(trace.comparator_value, sum(comparator_costs))
        assert close(trace.regret_partial, np.cumsum(np.subtract(costs, comparator_costs)))
