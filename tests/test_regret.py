import math

import numpy as np
import pytest
from conftest import centralized_reference, in_box, inv_sqrt_step, projected_gradient_comparator

from netdual import (
    ActionBox,
    ComparatorError,
    ConfigError,
    QuadraticLoss,
    RegretTrace,
    circulation_disagreement_bound,
    circulation_regret_bound,
    contraction_constants,
    decomposition_terms,
    network_regret,
    offline_comparator,
    pushsum_disagreement_bound,
    pushsum_regret_bound,
)
from netdual import objectives, regret
from netdual.regret import round_columns, step_sizes


def reduced_history(update_history, primal_history, box):
    """The refs and ref_gaps simulate records, from updates (T, p) and the
    per-agent points (T, n, p) the blocks were read at."""
    refs = centralized_reference(update_history, box)[:-1]
    gaps = np.linalg.norm(np.asarray(primal_history) - refs[:, None, :], axis=2).sum(axis=1)
    return refs, gaps


def split_terms(u, refs, gaps, losses, box, n, L, C):
    """The regret split over a whole history: its prefix-free columns, then
    the terms of the full prefix."""
    steps = step_sizes(len(u))
    columns = round_columns(losses, np.zeros_like(u), u, refs, box, n, steps)
    return decomposition_terms(columns, gaps, L, C)


class TestStepSchedule:
    def test_values(self):
        assert inv_sqrt_step(0) == 1.0
        assert inv_sqrt_step(3) == 0.5
        assert inv_sqrt_step(99) == pytest.approx(0.1)


class TestCentralizedReference:
    def test_hand_trajectory(self):
        box = ActionBox.uniform(-1.0, 1.0, 1)
        refs = centralized_reference([[2.0], [-4.0]], box)
        # round 1 acts on clamp(0); totals 2 then -2 hit the box walls
        assert np.allclose(refs, [[0.0], [-1.0], [1.0]])

    def test_interior_point_uses_step(self):
        box = ActionBox.uniform(-10.0, 10.0, 1)
        refs = centralized_reference([[2.0], [2.0]], box)
        assert refs[1, 0] == pytest.approx(-2.0)  # alpha(0) = 1
        assert refs[2, 0] == pytest.approx(-4.0 / math.sqrt(2))

    def test_custom_alpha(self):
        box = ActionBox.uniform(-10.0, 10.0, 1)
        refs = centralized_reference([[3.0]], box, alpha=lambda s: 0.1)
        assert refs[1, 0] == pytest.approx(-0.3)

    def test_rejects_bad_shape(self):
        box = ActionBox.uniform(-1.0, 1.0, 2)
        with pytest.raises(ConfigError):
            centralized_reference([[1.0], [2.0]], box)


class TestOfflineComparator:
    def test_interior_minimizer(self):
        losses = QuadraticLoss(A=np.eye(1), q=np.full((3, 1), 2.0))
        res = offline_comparator(losses, ActionBox.uniform(-10, 10, 1))
        assert res.y[0] == pytest.approx(2.0, abs=1e-7)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.grad_residual <= 1e-8

    def test_boundary_minimizer(self):
        losses = QuadraticLoss(A=np.eye(1), q=np.full((3, 1), 20.0))
        res = offline_comparator(losses, ActionBox.uniform(-10, 10, 1))
        assert res.y[0] == pytest.approx(10.0)
        assert res.value == pytest.approx(150.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1, 1, size=(2, 2)) + 2 * np.eye(2)
        q = rng.uniform(-1, 1, size=2)
        losses = QuadraticLoss(A=A, q=q[None, :])
        box = ActionBox(lo=np.array([-0.6, -0.6]), hi=np.array([0.6, 0.6]))
        res = offline_comparator(losses, box, tol=1e-10)
        grid = np.linspace(-0.6, 0.6, 1201)
        best, best_val = None, math.inf
        for a in grid:
            vals = 0.5 * np.sum((np.outer(np.full_like(grid, a), A[:, 0])
                                 + np.outer(grid, A[:, 1]) - q) ** 2, axis=1)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, best = vals[j], np.array([a, grid[j]])
        assert np.max(np.abs(res.y - best)) <= 2e-3

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            offline_comparator(
                QuadraticLoss(A=np.eye(1), q=np.zeros((0, 1))), ActionBox.uniform(-1, 1, 1)
            )

    def test_iteration_cap_attaches_best(self):
        # correlated coordinates and an optimum on a face of the box: the
        # clamped Newton start is off, and one more pass is needed
        losses = QuadraticLoss(A=np.array([[1.0, 0.99], [0.99, 1.0]]), q=np.array([[3.0, -1.0]]))
        box = ActionBox.uniform(-1, 1, 2)
        with pytest.raises(ComparatorError) as exc:
            offline_comparator(losses, box, tol=1e-12, max_iter=0)
        err = exc.value
        assert err.best.shape == (2,)
        assert in_box(box, err.best)
        assert err.value == pytest.approx(float(np.sum(losses.value(err.best))))
        assert err.grad_norm > 1e-12
        assert offline_comparator(losses, box, tol=1e-12).iterations > 1

    def test_makes_no_power_iteration(self, monkeypatch):
        calls = []
        curvature = objectives.curvature

        def counting(A, *args, **kwargs):
            calls.append(A.shape)
            return curvature(A, *args, **kwargs)

        monkeypatch.setattr(objectives, "curvature", counting)
        monkeypatch.setattr(regret, "curvature", counting)
        rng = np.random.default_rng(3)
        A = np.eye(4) + 0.3 * rng.uniform(-1, 1, (4, 4))
        losses = QuadraticLoss(A=A, q=rng.normal(scale=4.0, size=(30, 4)))
        res = offline_comparator(losses, ActionBox.uniform(-0.5, 0.5, 4), tol=1e-10)
        assert res.iterations > 1  # a constrained optimum
        assert calls == []


def random_box_qp(rng):
    """A stacked QuadraticLoss and box: p in 1..29, m in 1..2p, some with a
    near-duplicate column (H near-singular) and some with an exact duplicate
    (H singular)."""
    p = int(rng.integers(1, 30))
    m = int(rng.integers(1, 2 * p + 1))
    A = rng.normal(size=(m, p))
    kind = int(rng.integers(0, 4))
    if kind > 0 and p > 1:
        j, k = rng.choice(p, 2, replace=False)
        A[:, k] = A[:, j] + (1e-7 * rng.normal(size=m) if kind == 1 else 0.0)
    T = int(rng.integers(1, 40))
    q = rng.normal(scale=rng.uniform(0.1, 10.0), size=(T, m)) + rng.normal(scale=3.0, size=m)
    box = ActionBox(lo=-rng.uniform(0.1, 3.0, size=p), hi=rng.uniform(0.1, 3.0, size=p))
    return QuadraticLoss(A=A, q=q), box


def test_comparator_meets_kkt_on_random_box_qps():
    rng = np.random.default_rng(11)
    tol, checked = 1e-8, 0
    for case in range(300):
        losses, box = random_box_qp(rng)
        res = offline_comparator(losses, box, tol=tol)
        H = losses.q.shape[0] * (losses.A.T @ losses.A)
        b = losses.A.T @ losses.q.sum(axis=0)
        g, y = H @ res.y - b, res.y
        eps = 1e-10 * (np.linalg.norm(b) + 1.0)
        free = (y > box.lo) & (y < box.hi)
        assert res.grad_residual <= tol, case
        assert np.all(np.abs(g[free]) <= eps), case
        assert np.all(g[y <= box.lo] >= -eps) and np.all(g[y >= box.hi] <= eps), case
        assert in_box(box, y), case
        assert res.value == float(np.sum(res.costs)), case
        if case % 10 == 0:
            oracle = projected_gradient_comparator(losses, box, tol=tol)
            if oracle is not None:
                checked += 1
                assert res.value <= oracle[1] + 1e-12 * abs(oracle[1]) + 1e-20, case
    assert checked >= 25  # the oracle converges on most of the subset


class TestNetworkRegret:
    def test_hand_partial_sums(self):
        losses = QuadraticLoss(A=np.eye(1), q=np.zeros((2, 1)))
        costs = losses.value(np.array([[1.0], [2.0]]))
        comp = losses.value(np.zeros(1))
        assert np.allclose(costs, [0.5, 2.0])
        assert np.allclose(comp, [0.0, 0.0])
        assert np.allclose(network_regret(costs, comp), [0.5, 2.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            network_regret([], np.zeros(1))


class TestDecomposition:
    def test_hand_first_round(self):
        box = ActionBox.uniform(-1.0, 1.0, 2)
        u = np.array([[3.0, 4.0]])
        X = np.zeros((1, 2, 2))  # both agents act exactly at the reference
        losses = QuadraticLoss(A=np.eye(2), q=np.array([[-3.0, -4.0]]))
        refs, gaps = reduced_history(u, X, box)
        terms = split_terms(u, refs, gaps, losses, box, n=2, L=5.0, C=2.0)
        assert terms.e1[0] == pytest.approx(12.5)  # 0.5 * 1 * 25
        assert terms.e2[0] == 0.0
        assert terms.e3[0] == pytest.approx(0.0, abs=1e-12)
        assert terms.bound[0] == pytest.approx(12.5 + 2.0 * math.sqrt(2))

    def test_hand_disagreement_and_mismatch(self):
        box = ActionBox.uniform(-1.0, 1.0, 2)
        u = np.array([[3.0, 4.0]])
        X = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        # gradient at the starting reference is (3, 3): unit gap against u
        losses = QuadraticLoss(A=np.eye(2), q=np.array([[-3.0, -3.0]]))
        refs, gaps = reduced_history(u, X, box)
        terms = split_terms(u, refs, gaps, losses, box, n=2, L=5.0, C=0.0)
        assert terms.e2[0] == pytest.approx(5.0)
        D = box.diameter
        assert terms.e3[0] == pytest.approx(math.sqrt(2) * D * 1.0)
        assert terms.bound[0] == pytest.approx(12.5 + terms.e2[0] + terms.e3[0])

    def test_terms_are_cumulative(self):
        box = ActionBox.uniform(-5.0, 5.0, 1)
        u = np.array([[1.0], [1.0], [1.0]])
        X = np.zeros((3, 1, 1))
        losses = QuadraticLoss(A=np.eye(1), q=np.zeros((3, 1)))
        refs, gaps = reduced_history(u, X, box)
        terms = split_terms(u, refs, gaps, losses, box, n=1, L=1.0, C=1.0)
        assert np.all(np.diff(terms.e1) > 0)
        e1_hand = np.cumsum([0.5 * inv_sqrt_step(t) for t in range(3)])
        assert np.allclose(terms.e1, e1_hand)

    def test_rejects_history_mismatch(self):
        box = ActionBox.uniform(-1.0, 1.0, 1)
        losses = QuadraticLoss(A=np.eye(1), q=np.zeros((1, 1)))
        with pytest.raises(ConfigError):
            round_columns(
                losses, np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((1, 1)), box, 1,
                step_sizes(2),
            )
        one = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            round_columns(losses, one, one, one, box, 1, step_sizes(2))
        columns = round_columns(losses, one, one, one, box, 1, step_sizes(1))
        with pytest.raises(ConfigError):
            decomposition_terms(columns, np.zeros(2), L=1.0, C=1.0)


class TestClosedFormBounds:
    def test_zero_lipschitz_leaves_only_prox_term(self):
        assert circulation_regret_bound(
            T=3, n=4, L=0.0, G=1.0, D=1.0, C=2.0, r_min=0.25, lam=0.5
        ) == pytest.approx(4.0)  # 2 * sqrt(4)

    def test_single_agent_drops_disagreement(self):
        got = circulation_regret_bound(
            T=4, n=1, L=2.0, G=3.0, D=1.0, C=1.0, r_min=1.0, lam=1.0
        )
        assert got == pytest.approx(4.0 * 2.0 + math.sqrt(5))
        c = contraction_constants(1, 1)
        got_ps = pushsum_regret_bound(T=4, n=1, L=2.0, G=3.0, D=1.0, C=1.0, constants=c)
        assert got_ps == pytest.approx(4.0 * 2.0 + math.sqrt(5))
        assert circulation_disagreement_bound(1, 2.0, 1.0, 1.0) == 0.0
        assert pushsum_disagreement_bound(1, 2.0, c) == 0.0

    def test_circulation_hand_values(self):
        # lam = 3/4 gives delta = 1/2; r_min = 1/4 gives r_min^1.5 = 1/8
        got = circulation_regret_bound(
            T=9, n=4, L=1.0, G=1.0, D=1.0, C=0.0, r_min=0.25, lam=0.75
        )
        disagree = 2.0 * 4 * (1.0 + 2.0) / ((1 / 8) * 0.5)
        assert got == pytest.approx((4.0 + disagree) * 3.0)
        assert circulation_disagreement_bound(4, 1.0, 0.25, 0.75) == pytest.approx(
            4.0 / ((0.25**3) * 0.25)
        )

    def test_circulation_rejects_zero_gap(self):
        with pytest.raises(ConfigError):
            circulation_regret_bound(
                T=1, n=2, L=1.0, G=1.0, D=1.0, C=0.0, r_min=0.5, lam=0.0
            )

    def test_pushsum_log_domain_matches_plain_formula(self):
        c = contraction_constants(3, 2)
        got = pushsum_regret_bound(T=16, n=3, L=2.0, G=1.5, D=4.0, C=3.0, constants=c)
        plain_disagree = (
            4.0 * c.beta * 3**1.5 * 2.0 * (2.0 + math.sqrt(3) * 1.5 * 4.0)
            / (c.gamma * c.theta * c.one_minus_theta)
        )
        plain = (3 * 4.0 + plain_disagree) * 4.0 + 3.0 * math.sqrt(17)
        assert got == pytest.approx(plain, rel=1e-9)

        sigma = pushsum_disagreement_bound(3, 2.0, c)
        plain_sigma = (2.0 * c.beta * 2.0 * 3 / (c.gamma * c.theta * c.one_minus_theta)) ** 2
        assert sigma == pytest.approx(plain_sigma, rel=1e-9)

    def test_pushsum_underflow_returns_inf(self):
        c = contraction_constants(50, 10)
        assert c.gamma == 0.0
        assert pushsum_regret_bound(
            T=10, n=50, L=1.0, G=1.0, D=1.0, C=0.0, constants=c
        ) == math.inf
        assert pushsum_disagreement_bound(50, 1.0, c) == math.inf


class TestRegretTrace:
    def test_empty_run_properties(self):
        empty = np.zeros(0)
        tr = RegretTrace(
            algorithm="oda-c", T=0, n=2, p=2, seed=0,
            costs=empty, comparator_costs=empty, regret_partial=empty,
            avg_regret=empty, disagreement=empty, disagreement_squared=empty,
            mean_field_residual=empty, e1=empty, e2=empty, e3=empty,
            bound_partial=empty, y_star=np.zeros(2), comparator_value=0.0,
        )
        assert tr.regret == 0.0
        assert tr.average_regret == 0.0
