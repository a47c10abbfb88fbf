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

The mix reads each row of the matrix over its nonzeros when the matrix is
sparse enough: ``mixing_operator`` turns a matrix into what the engine
multiplies by. Above the density threshold that is the matrix itself,
multiplied densely; below it, its padded-row form ``PaddedRows``, which
gathers each row's neighbours. Measured at p = n, the two cost the same
near n = GATHER_DENSITY * K, K the most nonzeros in any row (README,
Sparse mixing). The engine forms the operators of the pair's M and of a
periodic schedule's ``period`` slots once, when it is built; an explicit
schedule's round forms its own and keeps nothing.

The engine checks only types and shapes: whether the network meets its
algorithm's contract is certified before round 1, by
``harness.network_constants``.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ActionBox, BlockMap
from .errors import ConfigError
from .topology import DigraphSchedule, StaticTopology

# The gather replaces the dense product when GATHER_DENSITY * K <= n, K the
# most nonzeros in any row: measured at p = n, K = 2 and 3 (README, Sparse
# mixing).
GATHER_DENSITY = 32


@dataclass(frozen=True)
class PaddedRows:
    """A square matrix in ELLPACK form: row i's nonzeros are W[i, 0] at the
    columns nbr[i], by ascending column, padded at the end with weight 0 at
    column i. ``P @ X`` is the matrix product, each row summed over its
    nonzeros only: O(n K p) against the dense O(n^2 p)."""

    nbr: np.ndarray  # (n, K) column indices
    W: np.ndarray  # (n, 1, K) weights

    @classmethod
    def of(cls, A: np.ndarray) -> "PaddedRows":
        nz = A != 0
        K = max(int(nz.sum(axis=1).max()), 1)
        # a stable sort puts each row's nonzero columns first, in ascending order
        cols = np.argsort(~nz, axis=1, kind="stable")[:, :K]
        held = np.take_along_axis(nz, cols, axis=1)
        nbr = np.where(held, cols, np.arange(A.shape[0])[:, None])
        W = np.where(held, np.take_along_axis(A, cols, axis=1), 0.0)
        return cls(nbr=nbr, W=W[:, None, :])

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        if X.ndim == 1:  # the weight channel: one small (n, K) gather
            return (self.W @ X[self.nbr][:, :, None])[:, 0, 0]
        n, K = self.nbr.shape
        out = np.empty((n, 1, X.shape[1]))
        # blocks of ceil(n/K) rows keep the gathered (rows, K, p) temporary
        # near the size of one (n, p) array
        rows = -(-n // K)
        for s in range(0, n, rows):
            b = slice(s, s + rows)
            np.matmul(self.W[b], X[self.nbr[b]], out=out[b])
        return out[:, 0, :]


if hasattr(np, "vecdot"):
    # numpy's dot of each row pair, the dot a stacked (1, p) @ (p, 1) matmul
    # takes too, without matmul's dispatch: 5.2 -> 3.4 us at n = p = 50
    _row_dots = np.vecdot
else:  # numpy < 2

    def _row_dots(X: np.ndarray, H: np.ndarray) -> np.ndarray:
        return (X[:, None, :] @ H[:, :, None])[:, 0, 0]


def block_diagnostics(Z, ratios, w, u_total, r=None, overwrite=False) -> tuple:
    """The diagnostics of c stacked rounds, each (c,) and bit for bit as one
    round at a time: the disagreement, its square, the mean-field residual
    and the weight residual |sum(w) - n|. Z and ratios are (c, n, p), w is
    (c, n) or None, u_total (c, p); the mean field is r @ Z, or the mean.

    Z, w and u_total are only read. ratios is only read unless
    ``overwrite``: then the call forms the deviation from the mean field in
    ratios itself and leaves it there, so the caller must own ratios (with
    r given, ratios may be Z, which is read before it is overwritten)."""
    mf = Z.mean(axis=1) if r is None else np.matmul(r, Z)
    d = np.subtract(ratios, mf[:, None, :], out=ratios if overwrite else None)
    row_sq = np.add.reduce(np.square(d, out=d), axis=2)
    # norm(d, axis=2) summed; bit-identical without numpy's dispatch cost
    dis = np.sqrt(row_sq).sum(axis=1)
    w_res = np.zeros(len(Z)) if w is None else np.abs(w.sum(axis=1) - Z.shape[1])
    return dis, row_sq.sum(axis=1), np.abs(mf - u_total).max(axis=1), w_res


def mixing_operator(A: np.ndarray) -> np.ndarray | PaddedRows:
    """What the engine multiplies by in place of A: A itself, or its padded
    rows when the densest row has K nonzeros with GATHER_DENSITY * K <= n."""
    K = int((A != 0).sum(axis=1).max())
    return PaddedRows.of(A) if GATHER_DENSITY * K <= A.shape[0] else A


@dataclass
class DualAveragingEngine:
    network: StaticTopology | DigraphSchedule
    blocks: BlockMap
    box: ActionBox
    rounds: int = field(default=0, init=False)

    def __post_init__(self):
        if isinstance(self.network, StaticTopology):
            self._w = None  # no weights: agents act on Z
        elif isinstance(self.network, DigraphSchedule):
            self._w = np.ones(self.network.n)
        else:
            raise ConfigError(
                "network must be a StaticTopology or a DigraphSchedule, "
                f"got {type(self.network).__name__}"
            )
        n = self.network.n
        if n != self.blocks.n:
            raise ConfigError(
                f"network has n={n} agents but block map has n={self.blocks.n}"
            )
        if self.box.p != self.blocks.p:
            raise ConfigError(
                f"box dimension p={self.box.p} but block map covers p={self.blocks.p}"
            )
        p = self.blocks.p
        # constant over the run; _inject[k] is entry (owner[k], k) of a raveled (n, p)
        self._owner = self.blocks.owner
        # local_updates gathers X[owner]; the scalar map's gather is the identity
        self._gather = not np.array_equal(self._owner, np.arange(n))
        # the identity map (n = p) owns the diagonal: a strided view, which
        # adds in place without the fancy index's gather and scatter
        diagonal = slice(None, None, p + 1)
        self._inject = self._owner * p + np.arange(p) if self._gather else diagonal
        self._r = None if self._w is not None else self.network.pair.r
        self._r_owner = None if self._r is None else self._r[self._owner]
        self._Z = np.zeros((n, p))
        self._u_total = np.zeros(p)
        self._X = np.broadcast_to(self.box.clamp(np.zeros(p)), (n, p)).copy()
        # the bounds at full size: np.maximum against a (p,) bound runs n
        # loops of length p, against an (n, p) one a single contiguous loop
        self._lo = np.tile(self.box.lo, (n, 1))
        self._hi = np.tile(self.box.hi, (n, 1))
        self._ratios = self._Z  # z_i / w_i with w = 1
        if self._w is None:
            matrices = [self.network.pair.M]
        else:  # one per slot; none for an explicit schedule (period 0)
            matrices = [self.network.matrix_at(k) for k in range(self.network.period)]
        self._operators = [mixing_operator(A) for A in matrices]

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def p(self) -> int:
        return self.blocks.p

    def _scaled(self, u: np.ndarray) -> np.ndarray:
        """Each owned entry u[k] as it enters its owner's row: scaled by 1/r
        of the owner, or by n."""
        if self._w is None:
            return u / self._r_owner
        return self.n * u

    def _injection(self, u: np.ndarray) -> np.ndarray:
        """The (n, p) increment that puts each owned entry u[k] into its
        owner's row."""
        U = np.zeros((self.n, self.p))
        U.reshape(-1)[self._inject] = self._scaled(u)
        return U

    def local_updates(self, H: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The owned gradient entries of f(x) = 0.5||Ax - q||^2 from its normal
        form H = A^T A, b = A^T q: entry k is (H x_owner(k))_k - b_k, the
        gradient in coordinate k at the point of the agent that owns k. One
        length-p dot product per coordinate, O(p^2); H is symmetric, so row k
        of H stands for its column k."""
        # row k of X[owner] times row k of H: np.einsum would add 0.2-0.7 MB
        # of its own code pages to a run's peak resident memory on first use
        X = self._X[self._owner] if self._gather else self._X
        return _row_dots(X, H) - b

    def step(self, u: np.ndarray, alpha: float) -> None:
        """Mix the duals (and weights) with the round's matrix, inject the
        owned gradient entries, then project the debiased duals."""
        if alpha <= 0:
            raise ValueError(f"step size must be positive, got {alpha}")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.p,):
            raise ConfigError(f"update has shape {u.shape}, expected ({self.p},)")
        ops, t = self._operators, self.rounds
        A = ops[t % len(ops)] if ops else mixing_operator(self.network.matrix_at(t))
        self._u_total += u
        Z = A @ self._Z
        # in place, with no (n, p) increment formed, to keep a round's peak
        # memory down; each (owner, k) pair occurs once, so the sums match
        # (Z is a fresh C-contiguous product, so the reshape is a view)
        Z.reshape(-1)[self._inject] += self._scaled(u)
        self._Z = Z
        if self._w is not None:
            self._w = A @ self._w
        # the ratios are kept for the round's diagnostics: one division per round
        self._ratios = self.ratios()
        X = -alpha * self._ratios
        # np.clip's values without its dispatch cost; at a signed-zero tie
        # (-0.0 against a bound of +0.0) the bound's zero is kept, where
        # np.clip may keep X's
        np.maximum(X, self._lo, out=X)
        self._X = np.minimum(X, self._hi, out=X)
        self.rounds += 1

    def ratios(self) -> np.ndarray:
        """The duals the agents act on: z_i / w_i, or z_i with no weights."""
        if self._w is None:
            return self._Z
        return self._Z / self._w[:, None]

    def _diagnostics(self) -> list:
        """The round's four diagnostics: ``block_diagnostics`` on a block of
        one. ``simulate`` measures whole blocks itself; these methods serve
        tests and the benchmark tracer's ``engine.diag`` layer. The block
        holds the engine's own arrays, so nothing is overwritten."""
        w = None if self._w is None else self._w[None]
        Z, R, u_total = self._Z[None], self._ratios[None], self._u_total[None]
        return [float(v[0]) for v in block_diagnostics(Z, R, w, u_total, self._r)]

    def disagreement(self) -> float:
        """Sum over agents of the debiased-dual distance to the mean field."""
        return self._diagnostics()[0]

    def disagreement_squared(self) -> float:
        return self._diagnostics()[1]

    def mean_field_residual(self) -> float:
        return self._diagnostics()[2]

    def weight_conservation_residual(self) -> float:
        """|sum(w) - n|; 0.0 when no weight is tracked."""
        return self._diagnostics()[3]

    def primal_matrix(self) -> np.ndarray:
        """The agents' points, (n, p), as a read-only view: the step replaces
        the array, so the view keeps this round's points."""
        X = self._X.view()
        X.flags.writeable = False
        return X
