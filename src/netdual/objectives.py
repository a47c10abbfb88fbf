"""Convex objective family: interface, quadratic sensing loss, constant certification.

Constants follow the usual smooth-convex conventions: L bounds the gradient
norm over the feasible box (so each objective is L-Lipschitz there) and G
bounds the gradient's own Lipschitz modulus (largest eigenvalue of A^T A for
the quadratic loss).
"""

from abc import ABC, abstractmethod

import numpy as np

from .core import ActionBox
from .errors import ConfigError


class Objective(ABC):
    """Differentiable convex function of the stacked decision vector.

    ``value`` takes one point of shape (p,). ``gradient`` takes one point
    (p,) or a stack of points (m, p) and returns the gradient at each row,
    with the same shape: the engine reads every agent's gradient at its own
    point in one call on the (n, p) primal matrix.
    """

    @abstractmethod
    def value(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray: ...


class QuadraticLoss(Objective):
    """f(x) = 0.5 * ||A x - q||^2 with gradient A^T (A x - q).

    The gradient is computed as (x A^T - q) A, which serves a single point
    and a stack of points (one per row) alike.
    """

    def __init__(self, A: np.ndarray, q: np.ndarray):
        A = np.asarray(A, dtype=float)
        q = np.asarray(q, dtype=float)
        if A.ndim != 2 or q.shape != (A.shape[0],):
            raise ConfigError(f"shape mismatch: A is {A.shape}, q is {q.shape}")
        self.A = A
        self.q = q

    def value(self, x: np.ndarray) -> float:
        r = self.A @ x - self.q
        return 0.5 * float(np.dot(r, r))

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


def lipschitz_constants(
    A: np.ndarray,
    box: ActionBox,
    q_radius: float = 0.0,
    q_center: np.ndarray | None = None,
) -> tuple[float, float]:
    """Certified (L, G) for the family {0.5||Ax - q||^2 : ||q - q_center|| <= q_radius}.

    G is the largest eigenvalue of A^T A. L is the upper bound
    ||A|| * (||A|| * rho(box) + rho(Q)) with radii measured from the origin:
    rho(box) is the norm of the farthest box corner and rho(Q) =
    ||q_center|| + q_radius. Valid (not tight) for every member of the family.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(q_radius) or q_radius < 0:
        raise ConfigError("the measurement set must be bounded (finite radius)")
    G = power_iteration(A.T @ A)
    G = max(G, 0.0)
    opnorm = float(np.sqrt(G))
    rho_q = q_radius if q_center is None else float(np.linalg.norm(q_center)) + q_radius
    L = opnorm * (opnorm * box.radius + rho_q)
    return L, G

