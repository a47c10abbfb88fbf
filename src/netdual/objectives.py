"""Quadratic sensing loss and its certified constants.

Constants follow the usual smooth-convex conventions: L bounds the gradient
norm over the feasible box (so each loss is L-Lipschitz there) and G
bounds the gradient's own Lipschitz modulus (largest eigenvalue of A^T A).
"""

from functools import cached_property

import numpy as np

from .core import ActionBox
from .errors import ConfigError


class QuadraticLoss:
    """f(x) = 0.5 * ||A x - q||^2 with gradient A^T (A x - q).

    ``q`` is one measurement (m,) or a stack of measurements (T, m), one
    loss per row with a shared A. Both methods are row-wise over the last
    axis: a point (p,) or a stack (k, p) against one q, or a stack against
    the stack of q row by row, so the measurement reads all T rounds in one
    call. The round loop calls neither: it reads A^T A and A^T q_t.

    A stack's run-level statistics are formed once, on first use, and a
    ``prefix`` of its rounds shares them: ``gram`` = A^T A, ``curvature`` =
    G, and ``spread``, 0.5 ||q_t - q_1||^2 per round, the centred part of
    each round's cost (``offline_comparator`` prices its point from these).
    """

    def __init__(self, A: np.ndarray, q: np.ndarray):
        A = np.asarray(A, dtype=float)
        q = np.asarray(q, dtype=float)
        if A.ndim != 2 or q.ndim not in (1, 2) or q.shape[-1] != A.shape[0]:
            raise ConfigError(f"shape mismatch: A is {A.shape}, q is {q.shape}")
        self.A = A
        self.q = q

    @cached_property
    def gram(self) -> np.ndarray:
        return self.A.T @ self.A

    @cached_property
    def curvature(self) -> float:
        """G, the largest eigenvalue of A^T A: the Lipschitz modulus of every
        gradient A^T (A x - q), whatever q is. One symmetric eigensolve: exact
        to roundoff, where an iteration stopped on a small change in its
        estimate reads low."""
        return max(float(np.linalg.eigvalsh(self.gram)[-1]), 0.0)

    @cached_property
    def spread(self) -> np.ndarray:
        # one (T, m) temporary and a row-by-row dot, the same for a row
        # whatever rows follow it; q_1 is the centre every prefix shares,
        # so a prefix's column is the head of the run's
        d = np.subtract(self.q, self.q[0])
        col = np.einsum("ij,ij->i", d, d)
        return np.multiply(col, 0.5, out=col)

    def prefix(self, T: int) -> "QuadraticLoss":
        """The losses of the first T rounds of a stack, sharing its statistics."""
        head = QuadraticLoss(self.A, self.q[:T])
        head.gram, head.curvature, head.spread = self.gram, self.curvature, self.spread[:T]
        return head

    def _residual(self, x: np.ndarray) -> np.ndarray:
        # A x - q, in place on the product when that has the result's shape;
        # value squares in place too, so a call over T rounds forms one
        # (T, m) array where r * r formed three
        r = x @ self.A.T
        return np.subtract(r, self.q, out=r if r.shape[:-1] == self.q.shape[:-1] else None)

    def value(self, x: np.ndarray):
        r = self._residual(x)
        return 0.5 * np.add.reduce(np.square(r, out=r), axis=-1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._residual(x) @ self.A


def lipschitz_constants(
    losses: QuadraticLoss,
    box: ActionBox,
    q_radius: float = 0.0,
    q_center: np.ndarray | None = None,
) -> tuple[float, float]:
    """Certified (L, G) for the family {0.5||Ax - q||^2 : ||q - q_center|| <= q_radius}.

    A is ``losses.A``; G = ``losses.curvature`` = lambda_max(A^T A). L is the
    upper bound ||A|| * (||A|| * rho(box) + rho(Q)) with radii measured from
    the origin: rho(box) is the norm of the farthest box corner and rho(Q) =
    ||q_center|| + q_radius. Valid (not tight) for every member of the family.
    """
    if not np.isfinite(q_radius) or q_radius < 0:
        raise ConfigError("the measurement set must be bounded (finite radius)")
    G = losses.curvature
    opnorm = float(np.sqrt(G))
    rho_q = q_radius if q_center is None else float(np.linalg.norm(q_center)) + q_radius
    L = opnorm * (opnorm * box.radius + rho_q)
    return L, G
