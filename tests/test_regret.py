import math

import numpy as np
import pytest

from netdual import (
    ActionBox,
    ComparatorError,
    ConfigError,
    QuadraticLoss,
    RegretTrace,
    centralized_reference,
    circulation_disagreement_bound,
    circulation_regret_bound,
    contraction_constants,
    decomposition_terms,
    inv_sqrt_step,
    network_regret,
    offline_comparator,
    pushsum_disagreement_bound,
    pushsum_regret_bound,
)


class _CoshLoss:
    """Smooth non-quadratic test objective sum(cosh(x - c))."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def value(self, x):
        return float(np.sum(np.cosh(x - self.c)))

    def gradient(self, x):
        return np.sinh(x - self.c)


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
        objs = [QuadraticLoss(A=np.eye(1), q=np.array([2.0])) for _ in range(3)]
        res = offline_comparator(objs, ActionBox.uniform(-10, 10, 1))
        assert res.y[0] == pytest.approx(2.0, abs=1e-7)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.grad_residual <= 1e-8

    def test_boundary_minimizer(self):
        objs = [QuadraticLoss(A=np.eye(1), q=np.array([20.0])) for _ in range(3)]
        res = offline_comparator(objs, ActionBox.uniform(-10, 10, 1))
        assert res.y[0] == pytest.approx(10.0)
        assert res.value == pytest.approx(150.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1, 1, size=(2, 2)) + 2 * np.eye(2)
        q = rng.uniform(-1, 1, size=2)
        objs = [QuadraticLoss(A=A, q=q)]
        box = ActionBox(lo=np.array([-0.6, -0.6]), hi=np.array([0.6, 0.6]))
        res = offline_comparator(objs, box, tol=1e-10)
        grid = np.linspace(-0.6, 0.6, 1201)
        best, best_val = None, math.inf
        for a in grid:
            vals = 0.5 * np.sum((np.outer(np.full_like(grid, a), A[:, 0])
                                 + np.outer(grid, A[:, 1]) - q) ** 2, axis=1)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, best = vals[j], np.array([a, grid[j]])
        assert np.max(np.abs(res.y - best)) <= 2e-3

    def test_non_quadratic_requires_step(self):
        objs = [_CoshLoss([0.5])]
        with pytest.raises(ConfigError):
            offline_comparator(objs, ActionBox.uniform(-1, 1, 1))

    def test_non_quadratic_with_step(self):
        objs = [_CoshLoss([0.5]), _CoshLoss([0.5])]
        res = offline_comparator(
            objs, ActionBox.uniform(-1, 1, 1), tol=1e-6, step=0.1
        )
        assert res.y[0] == pytest.approx(0.5, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            offline_comparator([], ActionBox.uniform(-1, 1, 1))

    def test_iteration_cap_attaches_best(self):
        objs = [_CoshLoss([0.9])]
        with pytest.raises(ComparatorError) as exc:
            offline_comparator(
                objs, ActionBox.uniform(-1, 1, 1), tol=1e-12, step=1e-3, max_iter=50
            )
        err = exc.value
        assert err.best.shape == (1,)
        assert math.isfinite(err.value)
        assert err.grad_norm > 1e-12


class TestNetworkRegret:
    def test_hand_partial_sums(self):
        objs = [QuadraticLoss(A=np.eye(1), q=np.zeros(1)) for _ in range(2)]
        partial, costs, comp = network_regret(
            objs, [np.array([1.0]), np.array([2.0])], np.zeros(1)
        )
        assert np.allclose(partial, [0.5, 2.5])
        assert np.allclose(costs, [0.5, 2.0])
        assert np.allclose(comp, [0.0, 0.0])

    def test_rejects_length_mismatch(self):
        objs = [QuadraticLoss(A=np.eye(1), q=np.zeros(1))]
        with pytest.raises(ConfigError):
            network_regret(objs, [], np.zeros(1))


class TestDecomposition:
    def test_hand_first_round(self):
        box = ActionBox.uniform(-1.0, 1.0, 2)
        u = np.array([[3.0, 4.0]])
        X = np.zeros((1, 2, 2))  # both agents act exactly at the reference
        objs = [QuadraticLoss(A=np.eye(2), q=np.array([-3.0, -4.0]))]
        terms = decomposition_terms(u, X, objs, box, L=5.0, C=2.0)
        assert terms.e1[0] == pytest.approx(12.5)  # 0.5 * 1 * 25
        assert terms.e2[0] == 0.0
        assert terms.e3[0] == pytest.approx(0.0, abs=1e-12)
        assert terms.bound[0] == pytest.approx(12.5 + 2.0 * math.sqrt(2))

    def test_hand_disagreement_and_mismatch(self):
        box = ActionBox.uniform(-1.0, 1.0, 2)
        u = np.array([[3.0, 4.0]])
        X = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        # gradient at the starting reference is (3, 3): unit gap against u
        objs = [QuadraticLoss(A=np.eye(2), q=np.array([-3.0, -3.0]))]
        terms = decomposition_terms(u, X, objs, box, L=5.0, C=0.0)
        assert terms.e2[0] == pytest.approx(5.0)
        D = box.diameter
        assert terms.e3[0] == pytest.approx(math.sqrt(2) * D * 1.0)
        assert terms.bound[0] == pytest.approx(12.5 + terms.e2[0] + terms.e3[0])

    def test_terms_are_cumulative(self):
        box = ActionBox.uniform(-5.0, 5.0, 1)
        u = np.array([[1.0], [1.0], [1.0]])
        X = np.zeros((3, 1, 1))
        objs = [QuadraticLoss(A=np.eye(1), q=np.zeros(1)) for _ in range(3)]
        terms = decomposition_terms(u, X, objs, box, L=1.0, C=1.0)
        assert np.all(np.diff(terms.e1) > 0)
        e1_hand = np.cumsum([0.5 * inv_sqrt_step(t) for t in range(3)])
        assert np.allclose(terms.e1, e1_hand)

    def test_rejects_history_mismatch(self):
        box = ActionBox.uniform(-1.0, 1.0, 1)
        objs = [QuadraticLoss(A=np.eye(1), q=np.zeros(1))]
        with pytest.raises(ConfigError):
            decomposition_terms(
                np.zeros((2, 1)), np.zeros((1, 1, 1)), objs, box, L=1.0, C=1.0
            )


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
