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
from functools import partial

import numpy as np

from .core import ActionBox, BlockMap
from .errors import ConfigError
from .topology import DigraphSchedule, StaticTopology

# The gather replaces the dense product when GATHER_DENSITY * K <= n, K the
# most nonzeros in any row: measured at p = n, K = 2 and 3 (README, Sparse
# mixing).
GATHER_DENSITY = 32

# the engine steps its rounds in blocks of c = max(1, BLOCK_VALUES // (n p)),
# which spread a block's fixed cost of ~30 numpy calls: at n = p = 50 a round
# took 57.9 us at 1 << 14 (c = 6), 51.9 at 3 << 13 (c = 9) and 50.5 at 1 << 15
# (c = 13), which failed the memory guard of n = p = 20 (T = 4000) by 5 kB
BLOCK_VALUES = 3 << 13


@dataclass(frozen=True)
class PaddedRows:
    """A square matrix in ELLPACK form: row i's nonzeros are W[i, 0] at the
    columns nbr[i], by ascending column, padded at the end with weight 0 at
    column i. ``P @ X`` is the matrix product, each row summed over its
    nonzeros only: O(n K p) against the dense O(n^2 p). A band, rows whose K
    columns are consecutive and move up by one from row to row (the interior
    of a cycle or a path), reads its neighbourhoods in place through a
    read-only strided window of X; the other rows gather theirs. Each row is
    the same gemv on the same data (row stride p for a C-contiguous X), so
    the bits are the gather's."""

    nbr: np.ndarray  # (n, K) column indices
    W: np.ndarray  # (n, 1, K) weights
    runs: tuple  # (rows, window slice or gathered nbr rows), covering 0..n-1

    @classmethod
    def of(cls, A: np.ndarray) -> "PaddedRows":
        nz = A != 0
        n, i = A.shape[0], np.arange(A.shape[0])
        K = max(int(nz.sum(axis=1).max()), 1)
        # a stable sort puts each row's nonzero columns first, in ascending order
        cols = np.argsort(~nz, axis=1, kind="stable")[:, :K]
        held = np.take_along_axis(nz, cols, axis=1)
        nbr = np.where(held, cols, i[:, None])
        W = np.where(held, np.take_along_axis(A, cols, axis=1), 0.0)
        # band row i reads window[i + shift]; a run is rows of one shift, and
        # gather rows (shift -n) are cut every ceil(n/K) rows, which keeps
        # their gathered (rows, K, p) temporary near one (n, p) array
        band = (np.diff(nbr, axis=1) == 1).all(axis=1)
        shift = np.where(band, nbr[:, 0] - i, -n)
        cut = (np.diff(shift, prepend=n) != 0) | (~band & (i % -(-n // K) == 0))
        edges = [*np.flatnonzero(cut).tolist(), n]
        runs = tuple(
            (slice(a, b), slice(a + s, b + s) if s > -n else nbr[a:b])
            for a, b, s in zip(edges, edges[1:], shift[edges[:-1]].tolist())
        )
        return cls(nbr=nbr, W=W[:, None, :], runs=runs)

    def matmul(self, X: np.ndarray, out=None) -> np.ndarray:
        """``P @ X``, into ``out`` (C-contiguous, apart from X) when given."""
        n, K = self.nbr.shape
        if X.ndim == 1:  # the weight channel: one small (n, K) gather
            out = None if out is None else out.reshape(n, 1, 1)
            return np.matmul(self.W, X[self.nbr][:, :, None], out=out)[:, 0, 0]
        X = np.ascontiguousarray(X)  # the window's buffer; a no-op on the engine's duals
        out = np.empty((n, 1, X.shape[1])) if out is None else out.reshape(n, 1, -1)
        s0, s1 = X.strides
        # as_strided's view without its Python wrapper: ~1 against ~6 us
        window = np.ndarray((n - K + 1, K, X.shape[1]), X.dtype, X, 0, (s0, s0, s1))
        window.flags.writeable = False
        for rows, src in self.runs:
            block = window[src] if type(src) is slice else X[src]
            np.matmul(self.W[rows], block, out=out[rows])
        return out[:, 0, :]

    __matmul__ = matmul


# numpy's dot of each row pair, the dot a stacked (1, p) @ (p, 1) matmul
# takes too, without matmul's dispatch: 5.2 -> 3.4 us at n = p = 50. Also
# the measurement's squared norms, _row_dots(d, d): one read-only pass, one
# ddot a row whatever the block length, where square-then-reduce writes d
# and reads it again (10.8 against 9.3 + 16.5 us at n = p = 200)
_row_dots = np.vecdot


def block_diagnostics(Z, ratios, w, u_total, r=None, out=None) -> tuple:
    """The diagnostics of c stacked rounds, each (c,) and bit for bit as one
    round at a time: the disagreement, its square, the mean-field residual
    and the weight residual |sum(w) - n|. Z and ratios are (c, n, p), w is
    (c, n) or None, u_total (c, p); the mean field is r @ Z, or the mean.

    Only ``out``, a (c, n, p) buffer the caller owns, is written: it takes
    the deviation from the mean field (a fresh array without it), which the
    norms only read. It may be ratios, or Z itself, which is read before it
    is written."""
    if r is None:  # Z.mean(axis=1)'s reduction and division, without its wrapper
        mf = np.add.reduce(Z, axis=1)
        np.divide(mf, Z.shape[1], out=mf)
    else:
        mf = np.matmul(r, Z)
    d = np.subtract(ratios, mf[:, None, :], out=out)
    row_sq = _row_dots(d, d)
    dis = np.sqrt(row_sq).sum(axis=1)
    w_res = np.zeros(len(Z)) if w is None else np.abs(w.sum(axis=1) - Z.shape[1])
    return dis, row_sq.sum(axis=1), np.abs(mf - u_total).max(axis=1), w_res


def mixing_operator(A: np.ndarray) -> np.ndarray | PaddedRows:
    """What the engine multiplies by in place of A: A itself, or its padded
    rows when the densest row has K nonzeros with GATHER_DENSITY * K <= n."""
    K = int((A != 0).sum(axis=1).max())
    return PaddedRows.of(A) if GATHER_DENSITY * K <= A.shape[0] else A


def _mix(A: np.ndarray | PaddedRows):
    """``mix(X, out=None)``, the product A @ X by the operator's own matmul."""
    return A.matmul if type(A) is PaddedRows else partial(np.matmul, A)


@dataclass
class DualAveragingEngine:
    network: StaticTopology | DigraphSchedule
    blocks: BlockMap
    box: ActionBox
    rounds: int = field(default=0, init=False)

    def __post_init__(self):
        pushsum = isinstance(self.network, DigraphSchedule)  # else agents act on Z
        if not pushsum and not isinstance(self.network, StaticTopology):
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
        self._r = None if pushsum else self.network.pair.r
        self._r_owner = None if self._r is None else self._r[self._owner]
        self.n, self.p, self._u_shape = n, p, (p,)
        self._u_total = np.zeros(p)
        # the operators first, so that the (n, n) temporaries of their padded
        # rows are freed before the bounds and slots are allocated: built
        # after them, they raised ring200-wide's tracemalloc peak 5.57 -> 5.89 MB
        if not pushsum:
            matrices = [self.network.pair.M]
        else:  # one per slot; none for an explicit schedule (period 0)
            matrices = [self.network.matrix_at(k) for k in range(self.network.period)]
        self._operators = [mixing_operator(A) for A in matrices]
        # bound once: a round picks its mix, it does not build one
        self._mixes = [_mix(A) for A in self._operators]
        # the bounds at full size: np.maximum against a (p,) bound runs n
        # loops of length p, against an (n, p) one a single contiguous loop
        self._lo = np.tile(self.box.lo, (n, 1))
        self._hi = np.tile(self.box.hi, (n, 1))
        # 2c + 1 (n, p) slots, c + 1 of points and c of duals, each beside an
        # (n,) weight slot, and push-sum's c ratio slots; in two buffers, which
        # took 9.68 MB of ring200-wide's resident peak where one took 10.03.
        # Round 1 acts at the projection of zero and mixes slot 2c's zeros
        c = self.block_rounds = max(1, BLOCK_VALUES // (n * p))
        self._Xb, self._Zb = np.empty((c + 1, n, p)), np.zeros((c, n, p))
        self._Xb[0] = self.box.clamp(np.zeros(p))
        self._Wb = np.ones((2 * c + 1, n)) if pushsum else None
        self._Rb = np.empty((c, n, p)) if pushsum else None
        self._x, self._z = 0, 2 * c  # the slots of the next round's point and of its duals
        self._X, self._Z = self._Xb[0], self._Zb[-1]
        self._w = None if self._Wb is None else self._Wb[-1]

    def local_updates(self, H: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        """The owned gradient entries of f(x) = 0.5||Ax - q||^2 from its normal
        form H = A^T A, b = A^T q: entry k is (H x_owner(k))_k - b_k, the
        gradient in coordinate k at the point of the agent that owns k. One
        length-p dot product per coordinate, O(p^2); H is symmetric, so row k
        of H stands for its column k. Written into ``out`` when given, which
        may be b itself: the subtraction is elementwise."""
        # row k of X[owner] times row k of H: np.einsum would add 0.2-0.7 MB
        # of its own code pages to a run's peak resident memory on first use
        X = self._X[self._owner] if self._gather else self._X
        return np.subtract(_row_dots(X, H), b, out)

    def _span(self, i: int) -> np.ndarray:
        """Slot i as a (1, n, p) view: points 0..c, then duals."""
        c = self.block_rounds
        return self._Xb[i : i + 1] if i <= c else self._Zb[i - c - 1 : i - c]

    def _slots(self, k: int) -> tuple:
        """Moves on to a block of k rounds: (k, n, p) views of the points
        they read, of their new points and of their new duals, and the slot
        of their first weights. A block of k > 1 reads point slots 0..k-1,
        its first point copied in, and steps into point slots 1..k and dual
        slots c+1..c+k. A block of one steps into the slot of the duals it
        mixes and a free one of slots c - 1, c and 2c, which no longer block
        writes first."""
        x, z, c = self._x, self._z, self.block_rounds
        if k == 1:
            self._x, self._z = z, min({c - 1, c, 2 * c} - {x, z})
            return self._span(x), self._span(z), self._span(self._z), self._z
        if x:
            self._Xb[0] = self._X
        self._x, self._z = k, c + k
        return self._Xb[:k], self._Xb[1 : k + 1], self._Zb[:k], c + 1

    def run_block(self, H: np.ndarray, updates: np.ndarray, steps) -> tuple:
        """Step 1 <= k = len(updates) <= c rounds, one step size each (else
        ConfigError, with nothing stepped): round j overwrites updates[j]
        with ``self.local_updates(H, b, b)`` and hands it and steps[j] to
        ``self.step`` with its slots as X, Z, w and R. Returns (k, ...) views
        of the points the rounds acted on, their duals, ratios (the duals for
        oda-c) and weights (None for oda-c); the caller may write into the
        points and push-sum's ratios, which the next round does not read."""
        k = len(updates)
        if not 1 <= k <= self.block_rounds or len(steps) != k:
            raise ConfigError(
                f"a block steps 1 to {self.block_rounds} rounds, one step size "
                f"each: got {k} updates and {len(steps)} step sizes"
            )
        X, Xs, Z, j = self._slots(k)
        W = None if self._Wb is None else self._Wb[j : j + k]
        R = None if self._Rb is None else self._Rb[:k]
        local_updates, step = self.local_updates, self.step
        for t, (u, alpha, x, z) in enumerate(zip(updates, steps, Xs, Z)):
            w, r = (None, None) if W is None else (W[t], R[t])
            step(local_updates(H, u, u), alpha, x, z, w, r)
        return X, Z, Z if R is None else R, W

    def step(self, u: np.ndarray, alpha: float, X=None, Z=None, w=None, R=None) -> None:
        """Mix the duals (and weights) with the round's matrix, inject the owned
        gradient entries (a float (p,) array), then project the debiased duals.
        Writes the new points, duals and weights into X, Z and w and push-sum's
        ratios z_i / w_i into R (oda-c's are Z): slots apart from the state the
        step reads, except that X may be the duals it mixes; without them, the
        engine's next slots, as a block of one."""
        if not 0 < alpha < np.inf:  # NaN fails it too
            raise ValueError(f"step size must be positive and finite, got {alpha}")
        if u.shape != self._u_shape:
            raise ConfigError(f"update has shape {u.shape}, expected {self._u_shape}")
        if X is None:
            _, (X,), (Z,), j = self._slots(1)
            if self._Wb is not None:
                w, R = self._Wb[j], self._Rb[0]
        mixes, t = self._mixes, self.rounds
        mix = mixes[t % len(mixes)] if mixes else _mix(mixing_operator(self.network.matrix_at(t)))
        self._u_total += u
        Z = mix(self._Z, out=Z)
        # in place, with no (n, p) increment formed, to keep a round's peak
        # memory down; each (owner, k) pair occurs once, so the sums match
        # (Z is C-contiguous, so the reshape is a view)
        if self._w is None:
            Z.reshape(-1)[self._inject] += u / self._r_owner
        else:
            Z.reshape(-1)[self._inject] += self.n * u
            self._w = mix(self._w, out=w)
        self._Z = Z
        # the ratios (Z for oda-c), projected into X: R * -alpha
        X = np.multiply(self.ratios(R), -alpha, out=X)
        # np.clip's values without its dispatch cost; at a signed-zero tie
        # (-0.0 against a bound of +0.0) the bound's zero is kept, where
        # np.clip may keep X's
        np.maximum(X, self._lo, out=X)
        self._X = np.minimum(X, self._hi, out=X)
        self.rounds += 1

    def ratios(self, out=None) -> np.ndarray:
        """The duals the agents act on: z_i / w_i (into ``out`` if given), or z_i."""
        if self._w is None:
            return self._Z
        return np.divide(self._Z, self._w[:, None], out=out)

    def _diagnostics(self) -> list:
        """The round's four diagnostics: ``block_diagnostics`` on a block of
        one. ``simulate`` measures whole blocks itself; these methods serve
        tests and the benchmark tracer's ``engine.diag`` layer."""
        w = None if self._w is None else self._w[None]
        Z, R, u_total = self._Z[None], self.ratios()[None], self._u_total[None]
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
