"""Shared value types: feasible box, its prox bound and coordinate ownership;
and the readers of JSON input (files, number arrays).

Conventions used throughout the package:

* ``p`` is the length of the global decision vector; each of the ``n`` agents
  owns a disjoint block of its coordinates (one coordinate each by default).
* States at index ``t`` are the ones produced by the update that used step
  size ``alpha(t-1)`` and the round-``t`` gradient signal; index 0 is the
  initial state (zero duals, primal = projection of the zero dual).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ActionBox:
    """Per-coordinate interval constraints [lo[k], hi[k]] for the decision vector."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ConfigError("box bounds must be 1-d arrays of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ConfigError("box bounds must be finite")
        if np.any(hi < lo):
            raise ConfigError("box has hi < lo in some coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def uniform(cls, lo: float, hi: float, p: int) -> "ActionBox":
        """Box with the same scalar interval in every one of ``p`` coordinates."""
        return cls(np.full(p, float(lo)), np.full(p, float(hi)))

    @property
    def p(self) -> int:
        return self.lo.shape[0]

    @property
    def diameter(self) -> float:
        """Largest per-coordinate width, max_k (hi[k] - lo[k])."""
        return float(np.max(self.hi - self.lo))

    @property
    def radius(self) -> float:
        """Euclidean norm of the farthest box point from the origin."""
        return float(np.sqrt(np.sum(np.maximum(self.lo**2, self.hi**2))))

    def clamp(self, x: np.ndarray) -> np.ndarray:
        # np.clip's values without its dispatch cost; at a signed-zero tie
        # (-0.0 against a bound of +0.0) the bound's zero is kept, where
        # np.clip may keep x's
        y = np.maximum(x, self.lo)
        return np.minimum(y, self.hi, out=y)


def prox_sup(box: ActionBox) -> float:
    """sup over the box of the proximal function psi(x) = 0.5 * ||x||^2:
    0.5 * sum_k max(lo[k]^2, hi[k]^2). psi is 1-strongly convex and
    nonnegative, so the prox step argmin_x <z, x> + psi(x) / alpha has the
    coordinate-wise closed form clamp(-alpha * z)."""
    return 0.5 * float(np.sum(np.maximum(box.lo**2, box.hi**2)))


@dataclass(frozen=True)
class BlockMap:
    """Partition of coordinates {0..p-1} into per-agent blocks.

    ``blocks[i]`` lists the coordinates agent ``i`` contributes to the network
    action and injects gradient signal into. Default is the scalar case
    p = n with block(i) = {i}.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(k) for k in b) for b in self.blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ConfigError("every agent must own at least one coordinate")
        flat = [k for b in blocks for k in b]
        p = len(flat)
        if sorted(flat) != list(range(p)):
            raise ConfigError("blocks must partition 0..p-1 without gaps or overlap")
        object.__setattr__(self, "blocks", blocks)
        owner = np.empty(p, dtype=int)
        for i, b in enumerate(blocks):
            for k in b:
                owner[k] = i
        object.__setattr__(self, "_owner", owner)

    @classmethod
    def scalar(cls, n: int) -> "BlockMap":
        """One coordinate per agent: p = n, block(i) = {i}."""
        return cls(tuple((i,) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def p(self) -> int:
        return self._owner.shape[0]

    @property
    def owner(self) -> np.ndarray:
        """owner[k] = index of the agent whose block contains coordinate k."""
        return self._owner


def parse_numbers(value, name: str, shape: tuple) -> np.ndarray:
    """A JSON array of finite numbers (not bools, strings, NaN or infinities)
    of the given shape, as floats; a None in ``shape`` matches any positive
    length."""
    try:
        a = np.asarray(value)
        ok = a.dtype.kind in "iuf" and a.ndim == len(shape)
    except ValueError:  # ragged nesting
        ok = False
    if not ok or any(k == 0 if w is None else k != w for k, w in zip(a.shape, shape)):
        raise ConfigError(f"{name} must be an array of numbers of shape {shape}, got {value!r}")
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} must hold finite numbers, got {value!r}")
    return a.astype(float, copy=False)


def load_json(path: str, kind: str):
    """The JSON value in the ``kind`` file (a graph or a config) at path; a
    file that cannot be read or is not JSON raises ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {kind} file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{kind} file {path} is not valid JSON: {e}") from None
