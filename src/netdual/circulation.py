"""Dual-averaging engine for a static undirected graph with reversible weights.

Each agent i holds a dual vector z_i (full length p) and a primal point
x_i. One step mixes the duals through the row-stochastic M and injects
agent k's new block gradient, scaled by 1/r_k, into row k. Because r is
the stationary distribution of M, the r-weighted mean of the duals evolves
exactly as the running gradient sum: the network tracks a centralized
dual-averaging run up to a disagreement term controlled by the spectral gap.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ActionBox, AgentState, BlockMap
from .errors import ConfigError, TopologyError
from .topology import StaticTopology, validate_reversible_pair


@dataclass
class CirculationEngine:
    topology: StaticTopology
    blocks: BlockMap
    box: ActionBox
    rounds: int = field(default=0, init=False)

    def __post_init__(self):
        pair = self.topology.pair
        if pair.n != self.blocks.n:
            raise ConfigError(
                f"topology has n={pair.n} agents but block map has n={self.blocks.n}"
            )
        if self.box.p != self.blocks.p:
            raise ConfigError(
                f"box dimension p={self.box.p} but block map covers p={self.blocks.p}"
            )
        report = validate_reversible_pair(self.topology.graph, pair)
        if not report.passed:
            names = ", ".join(
                f"{c.name} at {c.detail}" if c.detail else c.name
                for c in report.failures()
            )
            raise TopologyError(f"weight pair failed validation: {names}")
        n, p = pair.n, self.blocks.p
        self._Z = np.zeros((n, p))
        self._u_total = np.zeros(p)
        self._X = np.broadcast_to(self.box.clamp(np.zeros(p)), (n, p)).copy()

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def p(self) -> int:
        return self.blocks.p

    @property
    def states(self) -> list:
        return [
            AgentState(z=self._Z[i].copy(), x=self._X[i].copy())
            for i in range(self.n)
        ]

    def local_updates(self, objective) -> np.ndarray:
        """Each agent evaluates the gradient at its own primal point and keeps
        the coordinates it owns: one row-wise gradient of the stacked points,
        gathered into a length-p vector in coordinate order."""
        G = objective.gradient(self._X)
        return G[self.blocks.owner, np.arange(self.p)]

    def step(self, u: np.ndarray, alpha: float) -> None:
        """Mix the duals and inject each owned gradient entry u[k], scaled by
        1/r of its owner, into the owner's row."""
        if alpha <= 0:
            raise ValueError(f"step size must be positive, got {alpha}")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.p,):
            raise ConfigError(f"update has shape {u.shape}, expected ({self.p},)")
        r = self.topology.pair.r
        owner = self.blocks.owner
        U = np.zeros((self.n, self.p))
        U[owner, np.arange(self.p)] = u / r[owner]
        self._u_total += u
        self._Z = self.topology.pair.M @ self._Z + U
        self._X = np.clip(
            -alpha * self._Z, self.box.lo[None, :], self.box.hi[None, :]
        )
        self.rounds += 1

    def mean_field(self) -> np.ndarray:
        """r-weighted average of the dual vectors; tracks the injected-gradient
        sum exactly."""
        return self.topology.pair.r @ self._Z

    def mean_field_residual(self) -> float:
        return float(np.max(np.abs(self.mean_field() - self._u_total))) if self.p else 0.0

    def gradient_sum(self) -> np.ndarray:
        return self._u_total.copy()

    def disagreement(self) -> float:
        """Sum over agents of the dual distance to the mean field."""
        d = self._Z - self.mean_field()[None, :]
        return float(np.sum(np.linalg.norm(d, axis=1)))

    def disagreement_squared(self) -> float:
        d = self._Z - self.mean_field()[None, :]
        return float(np.sum(d * d))

    def primal_matrix(self) -> np.ndarray:
        return self._X.copy()

    def primal_disagreement_sum(self, reference: np.ndarray) -> float:
        """Sum over agents of ||x_i - reference||."""
        d = self._X - np.asarray(reference)[None, :]
        return float(np.sum(np.linalg.norm(d, axis=1)))
