"""One dual-averaging engine over the mixing operator of a network.

Each agent i holds a dual vector z_i (full length p) and a primal point x_i.
One step mixes the duals through the network's matrix, injects every owned
gradient entry into its owner's row, and projects. The two algorithms are
this one update over two operators, read from the type of the network:

* ``StaticTopology`` (oda-c): the row-stochastic M of a reversible pair,
  injections scaled by 1/r of the owner, and the r-weighted mean of the
  duals as the mean field. Because r is stationary for M, the mean field
  equals the running gradient sum exactly.
* ``DigraphSchedule`` (oda-ps, push-sum): the column-stochastic A(t) of the
  round's graph, injections scaled by n, and the plain mean of the duals as
  the mean field. A weight vector w is mixed alongside the duals, and the
  agents act on the debiased ratios z_i / w_i.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ActionBox, BlockMap
from .errors import ConfigError, TopologyError
from .topology import DigraphSchedule, StaticTopology, validate_reversible_pair


@dataclass
class DualAveragingEngine:
    network: StaticTopology | DigraphSchedule
    blocks: BlockMap
    box: ActionBox
    rounds: int = field(default=0, init=False)

    def __post_init__(self):
        if isinstance(self.network, StaticTopology):
            n, self._w = self.network.pair.n, None  # no weights: agents act on Z
        elif isinstance(self.network, DigraphSchedule):
            n, self._w = self.network.n, np.ones(self.network.n)
        else:
            raise ConfigError(
                "network must be a StaticTopology or a DigraphSchedule, "
                f"got {type(self.network).__name__}"
            )
        if n != self.blocks.n:
            raise ConfigError(
                f"network has n={n} agents but block map has n={self.blocks.n}"
            )
        if self.box.p != self.blocks.p:
            raise ConfigError(
                f"box dimension p={self.box.p} but block map covers p={self.blocks.p}"
            )
        if self._w is None:
            report = validate_reversible_pair(self.network.graph, self.network.pair)
            if not report.passed:
                names = ", ".join(
                    f"{c.name} at {c.detail}" if c.detail else c.name
                    for c in report.failures()
                )
                raise TopologyError(f"weight pair failed validation: {names}")
        p = self.blocks.p
        self._Z = np.zeros((n, p))
        self._u_total = np.zeros(p)
        self._X = np.broadcast_to(self.box.clamp(np.zeros(p)), (n, p)).copy()

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def p(self) -> int:
        return self.blocks.p

    def _matrix(self, t: int) -> np.ndarray:
        """The mixing matrix of round index t (0-based)."""
        if self._w is None:
            return self.network.pair.M
        return self.network.matrix_at(t)

    def _injection(self, u: np.ndarray) -> np.ndarray:
        """The (n, p) increment that puts each owned entry u[k] into its
        owner's row, scaled by 1/r of the owner or by n."""
        owner = self.blocks.owner
        U = np.zeros((self.n, self.p))
        if self._w is None:
            U[owner, np.arange(self.p)] = u / self.network.pair.r[owner]
        else:
            U[owner, np.arange(self.p)] = self.n * u
        return U

    def local_updates(self, objective) -> np.ndarray:
        """Each agent evaluates the gradient at its own primal point and keeps
        the coordinates it owns: one row-wise gradient of the stacked points,
        gathered into a length-p vector in coordinate order."""
        G = objective.gradient(self._X)
        return G[self.blocks.owner, np.arange(self.p)]

    def step(self, u: np.ndarray, alpha: float) -> None:
        """Mix the duals (and weights) with the round's matrix, inject the
        owned gradient entries, then project the debiased duals."""
        if alpha <= 0:
            raise ValueError(f"step size must be positive, got {alpha}")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.p,):
            raise ConfigError(f"update has shape {u.shape}, expected ({self.p},)")
        A = self._matrix(self.rounds)
        self._u_total += u
        self._Z = A @ self._Z + self._injection(u)
        if self._w is not None:
            self._w = A @ self._w
        self._X = np.clip(
            -alpha * self.ratios(), self.box.lo[None, :], self.box.hi[None, :]
        )
        self.rounds += 1

    def ratios(self) -> np.ndarray:
        """The duals the agents act on: z_i / w_i, or z_i with no weights."""
        if self._w is None:
            return self._Z
        return self._Z / self._w[:, None]

    def mean_field(self) -> np.ndarray:
        """Weighted average of the duals (r, or uniform); tracks the
        injected-gradient sum exactly."""
        if self._w is None:
            return self.network.pair.r @ self._Z
        return self._Z.mean(axis=0)

    def mean_field_residual(self) -> float:
        return float(np.max(np.abs(self.mean_field() - self._u_total))) if self.p else 0.0

    def weight_conservation_residual(self) -> float:
        """|sum(w) - n|; 0.0 when no weight is tracked."""
        if self._w is None:
            return 0.0
        return float(abs(np.sum(self._w) - self.n))

    def disagreement(self) -> float:
        """Sum over agents of the debiased-dual distance to the mean field."""
        d = self.ratios() - self.mean_field()[None, :]
        return float(np.sum(np.linalg.norm(d, axis=1)))

    def disagreement_squared(self) -> float:
        d = self.ratios() - self.mean_field()[None, :]
        return float(np.sum(d * d))

    def primal_matrix(self) -> np.ndarray:
        return self._X.copy()


# Aliases, not subclasses: callers and bench/tracer.py (own-vars() methods only) use these names.
CirculationEngine = PushSumEngine = DualAveragingEngine


def unrolled_dual_check(engine: DualAveragingEngine, update_history: list) -> float:
    """Verify the engine's duals against the explicit matrix-product expansion.

    After t steps fed by update_history (one length-p vector of owned
    gradient entries per step), each dual must equal the injected gradients
    carried forward through the backward products of the mixing matrices.
    Returns the max absolute deviation. The expansion is accumulated backward
    so each matrix is multiplied in once.
    """
    t = len(update_history)
    if engine.rounds != t:
        raise ConfigError(
            f"engine has taken {engine.rounds} steps but history has {t} entries"
        )
    expected = np.zeros((engine.n, engine.p))
    R = np.eye(engine.n)
    for s in range(t - 1, -1, -1):
        expected += R @ engine._injection(np.asarray(update_history[s], dtype=float))
        R = R @ engine._matrix(s)
    return float(np.max(np.abs(engine._Z - expected))) if t else 0.0
