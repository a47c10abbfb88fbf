"""Quadratic sensing loss and its certified constants.

Constants follow the usual smooth-convex conventions: L bounds the gradient
norm over the feasible box (so each loss is L-Lipschitz there) and G
bounds the gradient's own Lipschitz modulus (largest eigenvalue of A^T A).
"""

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
    """

    def __init__(self, A: np.ndarray, q: np.ndarray):
        A = np.asarray(A, dtype=float)
        q = np.asarray(q, dtype=float)
        if A.ndim != 2 or q.ndim not in (1, 2) or q.shape[-1] != A.shape[0]:
            raise ConfigError(f"shape mismatch: A is {A.shape}, q is {q.shape}")
        self.A = A
        self.q = q

    def value(self, x: np.ndarray):
        r = x @ self.A.T - self.q
        return 0.5 * np.add.reduce(r * r, axis=-1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.A.T - self.q) @ self.A


def power_iteration(S: np.ndarray, tol: float = 1e-9, max_iter: int = 100_000) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite matrix.

    Deterministic start vector; stops when successive Rayleigh quotients agree
    to ``tol`` relative.
    """
    p = S.shape[0]
    v = np.ones(p) + np.linspace(0.0, 0.5, p)  # breaks symmetry against ones
    v /= np.linalg.norm(v)
    lam = float(v @ S @ v)
    for _ in range(max_iter):
        w = S @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new = float(v @ S @ v)
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return new
        lam = new
    return lam


def curvature(A: np.ndarray) -> float:
    """G, the largest eigenvalue of A^T A: the Lipschitz modulus of every
    gradient A^T (A x - q), whatever q is."""
    return max(power_iteration(A.T @ A), 0.0)


def lipschitz_constants(
    A: np.ndarray,
    box: ActionBox,
    q_radius: float = 0.0,
    q_center: np.ndarray | None = None,
    G: float | None = None,
) -> tuple[float, float]:
    """Certified (L, G) for the family {0.5||Ax - q||^2 : ||q - q_center|| <= q_radius}.

    G is the largest eigenvalue of A^T A (``curvature(A)`` unless the caller
    has it already). L is the upper bound
    ||A|| * (||A|| * rho(box) + rho(Q)) with radii measured from the origin:
    rho(box) is the norm of the farthest box corner and rho(Q) =
    ||q_center|| + q_radius. Valid (not tight) for every member of the family.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(q_radius) or q_radius < 0:
        raise ConfigError("the measurement set must be bounded (finite radius)")
    if G is None:
        G = curvature(A)
    opnorm = float(np.sqrt(G))
    rho_q = q_radius if q_center is None else float(np.linalg.norm(q_center)) + q_radius
    L = opnorm * (opnorm * box.radius + rho_q)
    return L, G

