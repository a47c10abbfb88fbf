"""Proximal projection of dual vectors onto the feasible box.

The proximal function is fixed to psi(x) = 0.5 * ||x||^2, which is
1-strongly convex and nonnegative everywhere, so the projection

    project(z, alpha) = argmin_x  <z, x> + psi(x) / alpha

has the coordinate-wise closed form clamp(-alpha * z).
"""

import numpy as np

from .core import ActionBox


def project(z: np.ndarray, alpha: float, box: ActionBox) -> np.ndarray:
    """Map a dual vector to the feasible primal point, step size ``alpha`` > 0."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return box.clamp(-alpha * np.asarray(z, dtype=float))


def prox_sup(box: ActionBox) -> float:
    """sup over the box of psi(x): 0.5 * sum_k max(lo[k]^2, hi[k]^2)."""
    return 0.5 * float(np.sum(np.maximum(box.lo**2, box.hi**2)))
