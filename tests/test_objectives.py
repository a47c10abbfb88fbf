import numpy as np
import pytest
from conftest import power_iteration

from netdual import ActionBox, ConfigError, QuadraticLoss, lipschitz_constants

EPS = np.finfo(float).eps


def finite_diff_check(obj, x, h=1e-6, box=None):
    """Max relative deviation between the gradient and central differences of value."""
    x = np.asarray(x, dtype=float)
    if box is not None and not (np.all(x - box.lo > h) and np.all(box.hi - x > h)):
        raise ValueError("x must be interior to the box by more than h")
    g = obj.gradient(x)
    worst = 0.0
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        d = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
        worst = max(worst, abs(d - g[k]) / max(1.0, abs(g[k])))
    return worst


class TestQuadraticLoss:
    def test_zero_residual(self):
        f = QuadraticLoss(A=np.diag([2.0, 1.0]), q=np.array([2.0, 1.0]))
        x = np.array([1.0, 1.0])
        assert f.value(x) == 0.0
        assert np.array_equal(f.gradient(x), [0.0, 0.0])

    def test_hand_value_and_gradient(self):
        f = QuadraticLoss(A=np.diag([2.0, 1.0]), q=np.array([2.0, 1.0]))
        x = np.array([2.0, 0.0])
        # residual (2, -1): value 2.5, gradient A^T r = (4, -1)
        assert f.value(x) == pytest.approx(2.5)
        assert np.allclose(f.gradient(x), [4.0, -1.0])

    def test_rectangular_measurement(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        f = QuadraticLoss(A=A, q=np.zeros(3))
        x = np.array([1.0, 2.0])
        assert f.value(x) == pytest.approx(0.5 * (1 + 4 + 9))
        assert np.allclose(f.gradient(x), A.T @ (A @ x))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            QuadraticLoss(A=np.eye(2), q=np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            f = QuadraticLoss(A=rng.normal(size=(m, p)), q=rng.normal(size=m))
            x = rng.uniform(-3, 3, p)
            assert finite_diff_check(f, x) <= 1e-5

    def test_finite_diff_rejects_boundary_point(self):
        box = ActionBox.uniform(-1, 1, 1)
        f = QuadraticLoss(A=np.eye(1), q=np.zeros(1))
        with pytest.raises(ValueError):
            finite_diff_check(f, np.array([1.0]), box=box)


class TestPowerIteration:
    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = int(rng.integers(1, 7))
            B = rng.normal(size=(p, p))
            S = B.T @ B
            top = float(np.linalg.eigvalsh(S)[-1])
            assert power_iteration(S) == pytest.approx(top, rel=1e-7, abs=1e-9)

    def test_diagonal(self):
        assert power_iteration(np.diag([4.0, 9.0])) == pytest.approx(9.0)

    def test_zero_matrix(self):
        assert power_iteration(np.zeros((3, 3))) == 0.0


class TestCurvature:
    def test_diagonal_and_rotated_diagonal(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = int(rng.integers(1, 30))
            d = rng.uniform(0.1, 10.0, p) * 10.0 ** rng.integers(-3, 4)
            top = float(np.sqrt(d).max() ** 2)  # the top eigenvalue of A^T A
            assert QuadraticLoss(np.diag(np.sqrt(d)), np.zeros(p)).curvature == pytest.approx(
                top, rel=1e-12
            )
            V, _ = np.linalg.qr(rng.normal(size=(p, p)))
            A = np.sqrt(d)[:, None] * V.T  # A^T A = V diag(d) V^T
            assert QuadraticLoss(A, np.zeros(p)).curvature == pytest.approx(top, rel=1e-12)

    def test_never_below_the_power_iteration(self):
        rng = np.random.default_rng(31)
        for k in range(200):
            p = int(rng.integers(1, 25))
            m = int(rng.integers(1, 2 * p + 1))
            A = rng.normal(size=(m, p))
            if k % 4 == 1:  # rank-deficient: a repeated column
                A[:, -1] = A[:, 0]
            elif k % 4 == 2:  # rank-deficient: fewer rows than columns
                A = A[: max(1, p // 2)]
            elif k % 8 == 3:
                A = np.zeros((m, p))
            # a Rayleigh quotient never exceeds the top eigenvalue in exact
            # arithmetic; its rounding may put it an ulp above the eigensolve
            assert QuadraticLoss(A, np.zeros(len(A))).curvature >= power_iteration(A.T @ A) * (
                1 - 4 * EPS
            )
        assert QuadraticLoss(np.zeros((3, 4)), np.zeros(3)).curvature == 0.0


class TestLipschitzConstants:
    def test_identity_measurement(self):
        box = ActionBox.uniform(-20.0, 20.0, 2)
        L, G = lipschitz_constants(QuadraticLoss(np.eye(2), np.zeros(2)), box)
        assert G == pytest.approx(1.0)
        assert L == pytest.approx(20.0 * np.sqrt(2.0))

    def test_offset_measurement_set(self):
        box = ActionBox.uniform(-20.0, 20.0, 2)
        L, G = lipschitz_constants(
            QuadraticLoss(np.eye(2), np.zeros(2)), box, q_radius=2.0,
            q_center=np.array([3.0, 4.0]),
        )
        assert L == pytest.approx(20.0 * np.sqrt(2.0) + 7.0)
        assert G == pytest.approx(1.0)

    def test_curvature_is_top_eigenvalue(self):
        box = ActionBox.uniform(-1, 1, 2)
        L, G = lipschitz_constants(QuadraticLoss(np.diag([2.0, 3.0]), np.zeros(2)), box)
        assert G == pytest.approx(9.0)

    def test_rejects_unbounded_measurement_set(self):
        box = ActionBox.uniform(-1, 1, 2)
        with pytest.raises(ConfigError):
            lipschitz_constants(QuadraticLoss(np.eye(2), np.zeros(2)), box, q_radius=np.inf)

    def test_certifies_every_gradient_in_family(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            A = rng.normal(size=(p, p))
            box = ActionBox(lo=rng.uniform(-3, 0, p), hi=rng.uniform(0, 3, p))
            center = rng.normal(size=p)
            radius = float(rng.uniform(0, 2))
            L, G = lipschitz_constants(
                QuadraticLoss(A, np.zeros(p)), box, q_radius=radius, q_center=center
            )
            for _ in range(40):
                x = rng.uniform(box.lo, box.hi)
                d = rng.normal(size=p)
                norm = np.linalg.norm(d)
                q = center if norm == 0 else center + d / norm * rng.uniform(0, radius)
                f = QuadraticLoss(A=A, q=q)
                assert np.linalg.norm(f.gradient(x)) <= L + 1e-9
