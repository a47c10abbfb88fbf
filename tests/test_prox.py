import numpy as np
import pytest
from hypothesis import given, settings
from conftest import project
from hypothesis import strategies as st

from netdual import ActionBox, prox_sup


def pgd_projection_oracle(z, alpha, box, iters=200):
    """Minimize <z, x> + ||x||^2 / (2 alpha) over the box by projected
    gradient descent. Independent of the closed form under test: the step
    alpha/2 halves the distance to the minimizer each iteration."""
    x = box.clamp(np.zeros_like(z))
    step = alpha / 2.0
    for _ in range(iters):
        x = box.clamp(x - step * (z + x / alpha))
    return x


class TestProximalFunction:
    def test_half_square_value(self):
        # on a one-point box the sup of psi is psi at that point
        point = ActionBox(lo=np.array([3.0, 4.0]), hi=np.array([3.0, 4.0]))
        assert prox_sup(point) == pytest.approx(12.5)
        assert prox_sup(ActionBox.uniform(0.0, 0.0, 5)) == 0.0


class TestProject:
    def test_closed_form_is_scaled_clamp(self):
        box = ActionBox.uniform(-1.0, 1.0, 2)
        out = project(np.array([1.0, -3.0]), 0.5, box)
        assert np.allclose(out, [-0.5, 1.0])

    def test_zero_dual_maps_to_clamped_origin(self):
        box = ActionBox(lo=np.array([2.0]), hi=np.array([5.0]))
        assert np.array_equal(project(np.zeros(1), 0.1, box), [2.0])

    def test_rejects_nonpositive_alpha(self):
        box = ActionBox.uniform(-1, 1, 1)
        with pytest.raises(ValueError):
            project(np.zeros(1), 0.0, box)
        with pytest.raises(ValueError):
            project(np.zeros(1), -1.0, box)

    def test_matches_numeric_minimizer(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            lo = rng.uniform(-5.0, -0.1, p)
            hi = rng.uniform(0.1, 5.0, p)
            box = ActionBox(lo=lo, hi=hi)
            z = rng.uniform(-20.0, 20.0, p)
            alpha = float(10.0 ** rng.uniform(-2.0, 0.5))
            closed = project(z, alpha, box)
            numeric = pgd_projection_oracle(z, alpha, box)
            assert np.max(np.abs(closed - numeric)) <= 1e-8

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=4),
        st.lists(st.floats(-50, 50), min_size=1, max_size=4),
        st.floats(0.01, 3.0),
    )
    def test_alpha_lipschitz_in_dual(self, za, zb, alpha):
        p = min(len(za), len(zb))
        z1 = np.array(za[:p])
        z2 = np.array(zb[:p])
        box = ActionBox.uniform(-2.0, 2.0, p)
        d_out = np.linalg.norm(project(z1, alpha, box) - project(z2, alpha, box))
        assert d_out <= alpha * np.linalg.norm(z1 - z2) + 1e-12


class TestProxSup:
    def test_sup_over_asymmetric_box(self):
        box = ActionBox(lo=np.array([-1.0, -2.0]), hi=np.array([2.0, 1.0]))
        # per-coordinate maxima: 4 and 4
        assert prox_sup(box) == pytest.approx(4.0)

    def test_sup_matches_sampled_psi(self):
        rng = np.random.default_rng(3)
        psi = lambda x: 0.5 * float(np.dot(x, x))
        box = ActionBox(lo=rng.uniform(-4, 0, 3), hi=rng.uniform(0, 4, 3))
        cap = prox_sup(box)
        for _ in range(500):
            x = rng.uniform(box.lo, box.hi)
            assert psi(x) <= cap + 1e-12
        corner = np.where(box.hi**2 >= box.lo**2, box.hi, box.lo)
        assert psi(corner) == pytest.approx(cap)
