"""Dual-averaging engine for time-varying directed graphs via push-sum.

Column-stochastic broadcast matrices conserve mass but skew it unevenly
across agents; each agent therefore carries a weight w_i alongside its dual
z_i and acts on the debiased ratio z_i/w_i. New gradients enter scaled by n
so the plain average of the duals tracks the running gradient sum exactly,
while the ratios converge to that average at the geometric rate of the
backward matrix products.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ActionBox, AgentState, BlockMap
from .errors import ConfigError
from .topology import DigraphSchedule


@dataclass
class PushSumEngine:
    schedule: DigraphSchedule
    blocks: BlockMap
    box: ActionBox
    rounds: int = field(default=0, init=False)

    def __post_init__(self):
        if self.schedule.n != self.blocks.n:
            raise ConfigError(
                f"schedule has n={self.schedule.n} agents but block map has n={self.blocks.n}"
            )
        if self.box.p != self.blocks.p:
            raise ConfigError(
                f"box dimension p={self.box.p} but block map covers p={self.blocks.p}"
            )
        n, p = self.schedule.n, self.blocks.p
        self._Z = np.zeros((n, p))
        self._w = np.ones(n)
        self._u_total = np.zeros(p)
        self._X = np.broadcast_to(self.box.clamp(np.zeros(p)), (n, p)).copy()

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def p(self) -> int:
        return self.blocks.p

    @property
    def weights(self) -> np.ndarray:
        return self._w.copy()

    @property
    def states(self) -> list:
        return [
            AgentState(z=self._Z[i].copy(), x=self._X[i].copy(), w=float(self._w[i]))
            for i in range(self.n)
        ]

    def local_updates(self, objective) -> np.ndarray:
        """Owned gradient entries, each read at its owner's primal point, as
        one length-p vector in coordinate order."""
        G = objective.gradient(self._X)
        return G[self.blocks.owner, np.arange(self.p)]

    def step(self, u: np.ndarray, alpha: float) -> None:
        """Mix with the matrix for the current slot, inject n * u[k] into the
        owner's row, then act on the debiased duals."""
        if alpha <= 0:
            raise ValueError(f"step size must be positive, got {alpha}")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.p,):
            raise ConfigError(f"update has shape {u.shape}, expected ({self.p},)")
        A = self.schedule.matrix_at(self.rounds)
        U = np.zeros((self.n, self.p))
        U[self.blocks.owner, np.arange(self.p)] = self.n * u
        self._u_total += u
        self._Z = A @ self._Z + U
        self._w = A @ self._w
        Y = self._Z / self._w[:, None]
        self._X = np.clip(-alpha * Y, self.box.lo[None, :], self.box.hi[None, :])
        self.rounds += 1

    def ratios(self) -> np.ndarray:
        return self._Z / self._w[:, None]

    def mean_field(self) -> np.ndarray:
        """Plain average of the duals; tracks the injected-gradient sum exactly."""
        return self._Z.mean(axis=0)

    def mean_field_residual(self) -> float:
        return float(np.max(np.abs(self.mean_field() - self._u_total))) if self.p else 0.0

    def weight_conservation_residual(self) -> float:
        return float(abs(np.sum(self._w) - self.n))

    def gradient_sum(self) -> np.ndarray:
        return self._u_total.copy()

    def disagreement(self) -> float:
        """Sum over agents of the debiased-dual distance to the mean field."""
        d = self.ratios() - self.mean_field()[None, :]
        return float(np.sum(np.linalg.norm(d, axis=1)))

    def disagreement_squared(self) -> float:
        d = self.ratios() - self.mean_field()[None, :]
        return float(np.sum(d * d))

    def primal_matrix(self) -> np.ndarray:
        return self._X.copy()

    def primal_disagreement_sum(self, reference: np.ndarray) -> float:
        d = self._X - np.asarray(reference)[None, :]
        return float(np.sum(np.linalg.norm(d, axis=1)))


def unrolled_dual_check(
    engine: PushSumEngine, update_history: list
) -> float:
    """Verify the engine's duals against the explicit matrix-product expansion.

    After t steps fed by update_history (one length-p vector of owned
    gradient entries per step), each dual must equal the injected gradients
    carried forward through the backward products of the broadcast matrices.
    Returns the max absolute deviation. The expansion is accumulated backward
    so each matrix is multiplied in once.
    """
    t = len(update_history)
    if engine.rounds != t:
        raise ConfigError(
            f"engine has taken {engine.rounds} steps but history has {t} entries"
        )
    n, p = engine.n, engine.p
    cols = np.arange(p)
    expected = np.zeros((n, p))
    R = np.eye(n)
    for s in range(t - 1, -1, -1):
        U = np.zeros((n, p))
        U[engine.blocks.owner, cols] = n * np.asarray(update_history[s], dtype=float)
        expected += R @ U
        R = R @ engine.schedule.matrix_at(s)
    return float(np.max(np.abs(engine._Z - expected))) if t else 0.0
