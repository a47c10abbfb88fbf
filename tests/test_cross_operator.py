"""The cross-operator identity: on the symmetric n-cycle with self-loops
and weights 1/3, ``oda-c`` with uniform r and ``oda-ps`` on that digraph's
period-1 schedule run the same update. Their trajectories agree to
roundoff at small n, so their two certified bounds differ only by each
network's contraction factor kappa."""

import math

import numpy as np
import pytest

from netdual import (
    ActionBox,
    DigraphSchedule,
    ReversiblePair,
    RunConfig,
    StaticTopology,
    UndirectedGraph,
    harness,
    run,
)


def third_weight_cycle(n: int) -> StaticTopology:
    g = UndirectedGraph(n=n, edges=frozenset((i, (i + 1) % n) for i in range(n)))
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i] = M[i, (i + 1) % n] = M[i, (i - 1) % n] = 1.0 / 3.0
    return StaticTopology(graph=g, pair=ReversiblePair(r=np.full(n, 1.0 / n), M=M))


def cycle_schedule(n: int) -> DigraphSchedule:
    arcs = {(i, i) for i in range(n)}
    arcs |= {(i, (i + 1) % n) for i in range(n)} | {((i + 1) % n, i) for i in range(n)}
    return DigraphSchedule(n=n, graphs=(tuple(sorted(arcs)),), period=1)


@pytest.mark.parametrize("n", [3, 5, 10])
def test_circulation_and_pushsum_agree_on_the_third_weight_cycle(n):
    box = ActionBox.uniform(-10, 10, n)
    static = RunConfig("oda-c", third_weight_cycle(n), box, T=2000, seed=5)
    pushed = RunConfig("oda-ps", cycle_schedule(n), box, T=2000, seed=5)
    c, ps = run(static), run(pushed)

    assert np.allclose(ps.costs, c.costs, rtol=1e-12, atol=0.0)
    assert ps.regret == pytest.approx(c.regret, rel=1e-12)
    assert c.regret <= c.theory_bound and ps.regret <= ps.theory_bound

    log_kappa_c = harness.network_constants(static).log_kappa
    log_kappa_ps = harness.network_constants(pushed).log_kappa
    ratio = ps.constants["disagreement_bound"] / c.constants["disagreement_bound"]
    assert ratio == pytest.approx(math.exp(2.0 * (log_kappa_ps - log_kappa_c)), rel=1e-12)
    # the cycle schedule is regular, so push-sum certifies its singular-value
    # constants and its bound sits within a factor 20 of the circulation's
    assert ratio <= 20.0
