"""Deterministic simulation harness.

One run wires an engine, an environment and a step schedule together.
Before round 1 the environment gives A and the T measurements q_t of the
losses 0.5 ||A x - q_t||^2. Each round every agent reads the gradient
entries it owns at its own point from their normal form (H = A^T A, formed
once per run, and b_t = A^T q_t), and the engine mixes and steps. All
randomness flows through one PCG64 generator keyed by (seed, horizon), so a
sweep row and a standalone run at the same horizon are bit-identical.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .core import ActionBox, BlockMap, load_json, parse_numbers, prox_sup
from .engine import DualAveragingEngine, block_diagnostics
from .errors import ConfigError, TopologyError
from .objectives import QuadraticLoss, lipschitz_constants
from .regret import (
    RegretTrace,
    RoundColumns,
    circulation_disagreement_bound,
    circulation_regret_bound,
    decomposition_terms,
    network_regret,
    offline_comparator,
    pushsum_disagreement_bound,
    pushsum_regret_bound,
    round_columns,
    step_sizes,
)
from .topology import (
    DigraphSchedule,
    StaticTopology,
    contraction_constants,
    lazy_cycle_pair,
    load_graph,
    spectral_gap,
    split_ring_schedule,
    topology_from_dict,
    validate_b_strong,
    validate_reversible_pair,
)

# the name under which bench/tracer.py (ENGINE_CLASSES) finds the engine's methods
CirculationEngine = DualAveragingEngine

TRACE_HEADER = (
    "t,cost,regret_partial,avg_regret,disagreement,"
    "mean_field_residual,e1,e2,e3,bound_partial"
)
# rows as csv.writer writes them: no %.12g field needs quoting
TRACE_ROW = "%d," + ",".join(["%.12g"] * 9) + "\r\n"
SWEEP_HEADER = "T,regret,avg_regret,theory_bound"
SWEEP_ROW = "%d," + ",".join(["%.12g"] * 3) + "\r\n"


# ---------------------------------------------------------------------------
# randomness

# simulate measures its rounds in blocks of max(1, BLOCK_VALUES // (n p))
# rounds: each block stacks that many (n, p) states per array, and its
# ~30 numpy calls carry a fixed cost that larger blocks spread over more
# rounds. In-process at n = p = 50 the measurement took 50 us a round at
# 1 << 13 (c = 3) and 40 at 1 << 14 (c = 6); 1 << 15 (c = 13) took 33 but
# raised the tracemalloc peak of a run by 0.6 MB (3.97 -> 4.55). normal_rows
# draws the noise in blocks of about BLOCK_VALUES uniforms: the same bits at
# any block size, 2.1 us a round at p = 50 against 3.0 at 1 << 13
BLOCK_VALUES = 1 << 14


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normal draws built from the generator's uniforms by the polar
    rejection method; batched so large counts stay vectorized."""
    out = np.empty(count)
    filled = 0
    while filled < count:
        pairs = max(8, (count - filled) // 2 + (count - filled) // 4 + 8)
        u = 2.0 * rng.random(pairs) - 1.0
        v = 2.0 * rng.random(pairs) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        f = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
        vals = np.concatenate([u[ok] * f, v[ok] * f])
        take = min(vals.shape[0], count - filled)
        out[filled : filled + take] = vals[:take]
        filled += take
    return out


def normal_rows(rng: np.random.Generator, T: int, p: int) -> np.ndarray:
    """The (T, p) stack of T calls of ``standard_normals(rng, p)``, bit for
    bit, drawn in blocks of rounds, with rng left in the same state.

    A round whose first polar attempt accepts at least p/2 pairs takes its
    values from that attempt alone, so a block draws every round's first
    attempt as one (rounds, 2, pairs) array of uniforms (u then v, in the
    generator's order) and keeps the first p of each round's accepted u and
    v values. At the first round that needs a second attempt the block
    stops: the generator goes back to the block's start and redraws the
    rounds before that one, and ``standard_normals`` draws the round itself;
    the next block starts after it."""
    out = np.empty((T, p))
    pairs = max(8, p // 2 + p // 4 + 8)
    size = max(1, BLOCK_VALUES // (2 * pairs))
    cols = np.arange(p)
    t = 0
    while t < T and p:
        saved = rng.bit_generator.state
        B = rng.random((min(size, T - t), 2, pairs))
        B *= 2.0
        B -= 1.0
        s = np.square(B[:, 0]) + np.square(B[:, 1])
        ok = (s > 0.0) & (s < 1.0)
        # log over the accepted s alone, contiguous as standard_normals has them
        f = np.zeros_like(s)
        acc = s[ok]
        f[ok] = np.sqrt(-2.0 * np.log(acc) / acc)
        B *= f[:, None, :]
        # the accepted values in draw order: each round's u, then its v
        vals = B[np.broadcast_to(ok[:, None, :], B.shape)]
        twice = 2 * ok.sum(axis=1)
        short = np.flatnonzero(twice < p)
        c = int(short[0]) if short.size else len(B)
        starts = np.cumsum(twice[:c]) - twice[:c]
        out[t : t + c] = vals[starts[:, None] + cols]
        t += c
        if c < len(B):
            # a redraw, not bit_generator.advance: advance would also drop
            # a PCG64's buffered 32-bit half
            rng.bit_generator.state = saved
            rng.random(out=B[:c])
            out[t] = standard_normals(rng, p)
            t += 1
    return out


def covariance_sqrt(P: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD covariance via eigendecomposition."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ConfigError(f"covariance must be square, got {P.shape}")
    if np.max(np.abs(P - P.T)) > 1e-10:
        raise ConfigError("covariance must be symmetric")
    w, V = np.linalg.eigh(P)
    floor = -1e-8 * max(1.0, float(np.max(np.abs(w))))
    if np.min(w) < floor:
        raise ConfigError("covariance must be positive semidefinite")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


# ---------------------------------------------------------------------------
# environments


@dataclass
class SensingEnvironment:
    """Noisy linear measurements of a fixed target: q_t = A target + noise."""

    A: np.ndarray
    target: np.ndarray
    cov: np.ndarray
    center: np.ndarray = field(init=False, repr=False)  # A target: the noise-free q
    _cov_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        p = self.target.shape[0]
        if self.A.shape != (p, p):
            raise ConfigError(f"A must be ({p},{p}), got {self.A.shape}")
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (p, p):
            raise ConfigError(f"covariance must be ({p},{p}), got {self.cov.shape}")
        self._cov_sqrt = covariance_sqrt(self.cov)
        self.center = self.A @ self.target

    @property
    def p(self) -> int:
        return self.target.shape[0]

    def measurements(self, T: int, rng: np.random.Generator) -> np.ndarray:
        """The (T, p) stack q_1..q_T: the T rounds' standard normals drawn in
        blocks (``normal_rows``, bit for bit one round after another), then
        mapped in place to their measurements, BLOCK_VALUES // p rounds at a
        time through one reused product buffer."""
        Q = normal_rows(rng, T, self.p)
        k = max(1, min(T, BLOCK_VALUES // self.p))
        buf = np.empty((k, self.p, 1))
        for a in range(0, T, k):
            N = Q[a : a + k]
            self.next_objective(N, buf[: len(N)], N)
        return Q

    # a batched matmul of the (p, p) root with (k, p, 1) runs one gemv per
    # round, the call cov_sqrt @ z makes, so each row is bit for bit the
    # per-round map; a 2-D N @ cov_sqrt.T is one gemm and rounds some rows
    # differently for a general covariance. A method of its own, so the
    # benchmark times the map (harness.env, one span per block)
    def next_objective(self, N: np.ndarray, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write into ``out`` the measurements q = A target + cov_sqrt z of a
        (k, p) block of rounds' standard normals N, one row per round;
        ``buf`` takes the (k, p, 1) products, and ``out`` may be N itself."""
        np.matmul(self._cov_sqrt, N[:, :, None], out=buf)
        return np.add(self.center, buf[:, :, 0], out=out)

    def measurement_ball(self) -> tuple:
        """A-priori (center, radius) of q_t: A target, six noise deviations."""
        return self.center, 6.0 * math.sqrt(max(0.0, float(np.linalg.eigvalsh(self.cov)[-1])))


@dataclass
class FixedEnvironment:
    """Cycles through a fixed list of measurement vectors with no noise."""

    A: np.ndarray
    q_list: tuple

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        qs = tuple(np.asarray(q, dtype=float) for q in self.q_list)
        if not qs:
            raise ConfigError("fixed environment needs at least one q vector")
        p = self.A.shape[0]
        for q in qs:
            if q.shape != (p,):
                raise ConfigError(f"each q must have shape ({p},), got {q.shape}")
        self.q_list = qs

    def measurements(self, T: int, rng: np.random.Generator) -> np.ndarray:
        """The (T, m) stack whose row t-1 is list entry (t-1) mod its length."""
        return np.array(self.q_list)[np.arange(T) % len(self.q_list)]

    def measurement_ball(self) -> tuple:
        """(center, radius) of q_t: the origin and the list's largest norm."""
        return np.zeros(self.A.shape[0]), max(float(np.linalg.norm(q)) for q in self.q_list)


def sensing_environment_factory(
    A=None, target=None, cov=None
) -> Callable[[int, np.random.Generator], SensingEnvironment]:
    """Factory for the sensing environment; unset pieces are drawn from the
    run generator (A first, then the target) so runs stay reproducible."""

    def make(p: int, rng: np.random.Generator) -> SensingEnvironment:
        if A is None:
            off = rng.uniform(-1.0, 1.0, size=(p, p))
            np.fill_diagonal(off, 0.0)
            A_ = np.eye(p) + 0.1 * off
        else:
            A_ = A
        target_ = rng.uniform(-10.0, 10.0, size=p) if target is None else target
        cov_ = 0.25 * np.eye(p) if cov is None else cov
        return SensingEnvironment(A=A_, target=target_, cov=cov_)

    return make


def fixed_environment_factory(
    q_list, A=None
) -> Callable[[int, np.random.Generator], FixedEnvironment]:
    def make(p: int, rng: np.random.Generator) -> FixedEnvironment:
        return FixedEnvironment(A=np.eye(p) if A is None else A, q_list=tuple(q_list))

    return make


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    algorithm: str
    topology: object
    box: ActionBox
    T: int
    seed: int = 0
    blocks: BlockMap | None = None
    alpha: tuple | None = None  # the step sizes alpha(0), alpha(1), ...; None: 1/sqrt(s+1)
    # (p, run generator) -> SensingEnvironment or FixedEnvironment
    environment: Callable[[int, np.random.Generator], object] | None = None
    regular: bool = False
    sigma2_sup: float | None = None
    b_cap: int | None = None
    comparator_tol: float = 1e-8

    def __post_init__(self):
        if self.algorithm not in ("oda-c", "oda-ps"):
            raise ConfigError(f'algorithm must be "oda-c" or "oda-ps", got {self.algorithm!r}')
        if self.T < 0:
            raise ConfigError(f"horizon must be nonnegative, got {self.T}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.algorithm == "oda-c" and not isinstance(self.topology, StaticTopology):
            raise ConfigError("oda-c runs on a static topology (graph + weight pair)")
        if self.algorithm == "oda-ps" and not isinstance(self.topology, DigraphSchedule):
            raise ConfigError("oda-ps runs on a digraph schedule")
        if isinstance(self.topology, DigraphSchedule) and self.topology.period == 0:
            if len(self.topology.graphs) < self.T:
                raise ConfigError(
                    f"explicit schedule has {len(self.topology.graphs)} graphs; "
                    f"a horizon of T={self.T} needs one per round"
                )
        n = self.topology.n
        if self.blocks is None:
            self.blocks = BlockMap.scalar(n)
        if self.blocks.n != n:
            raise ConfigError(
                f"block map has {self.blocks.n} agents, topology has {n}"
            )
        if self.box.p != self.blocks.p:
            raise ConfigError(
                f"box dimension {self.box.p} disagrees with block map dimension {self.blocks.p}"
            )
        # finalize needs both of these after round T: fail before round 1
        if self.sigma2_sup is not None and not self.regular:
            raise ConfigError("a singular-value sup is only accepted for regular schedules")
        if self.alpha is not None:
            if len(self.alpha) <= self.T:
                raise ConfigError(
                    f"alpha value list has {len(self.alpha)} entries; need index {self.T} "
                    "(the list must cover the horizon plus one)"
                )
            # a step value that is not positive and finite would stop the run
            # in its round, or bend the bounds after round T
            bad = [v for v in self.alpha if not 0 < v < math.inf]
            if bad:
                raise ConfigError(f"alpha values must be positive and finite, got {bad[0]}")

    @property
    def n(self) -> int:
        return self.blocks.n

    @property
    def p(self) -> int:
        return self.blocks.p


def _integer(value, name: str, minimum: int) -> int:
    """A JSON integer (not a bool, not a float) no smaller than ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


def _real(value, name: str) -> float:
    """A JSON number (not a bool) as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _alpha_from_spec(spec) -> tuple | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError('alpha must be an object like {"rule": "inv-sqrt"}')
    if "values" in spec:
        if not isinstance(spec["values"], (list, tuple)):
            raise ConfigError(f'alpha "values" must be a list of numbers, got {spec["values"]!r}')
        # RunConfig checks the values themselves
        return tuple(_real(v, "alpha value") for v in spec["values"])
    rule = spec.get("rule", "inv-sqrt")
    if rule != "inv-sqrt":
        raise ConfigError(f'unknown alpha rule "{rule}"')
    return None


def _box_from_spec(spec, p: int) -> ActionBox:
    if isinstance(spec, (list, tuple)) and len(spec) == 2 and np.isscalar(spec[0]):
        return ActionBox.uniform(_real(spec[0], "box lo"), _real(spec[1], "box hi"), p)
    if isinstance(spec, dict) and "lo" in spec and "hi" in spec:
        return ActionBox(
            lo=parse_numbers(spec["lo"], "box lo", (p,)),
            hi=parse_numbers(spec["hi"], "box hi", (p,)),
        )
    raise ConfigError('box must be [lo, hi] or {"lo": [...], "hi": [...]}')


def _environment_from_spec(spec, p: int):
    """The environment factory, with every given piece converted and checked
    against the dimension p here rather than inside the run."""
    if spec is None:
        return None
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError('environment must be an object with a "type"')

    def piece(key, shape):
        value = spec.get(key)
        return None if value is None else parse_numbers(value, f"environment {key}", shape)

    kind = spec["type"]
    if kind == "sensing":
        return sensing_environment_factory(
            A=piece("A", (p, p)), target=piece("target", (p,)), cov=piece("P", (p, p))
        )
    if kind == "fixed":
        if "q" not in spec:
            raise ConfigError('fixed environment needs "q": a list of vectors')
        return fixed_environment_factory(piece("q", (None, p)), A=piece("A", (p, p)))
    raise ConfigError(f'unknown environment type "{kind}"')


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from the experiment-file dict schema."""
    if not isinstance(d, dict):
        raise ConfigError("experiment config must be a JSON object")
    algorithm = d.get("algorithm")
    if algorithm not in ("oda-c", "oda-ps"):
        raise ConfigError('config needs "algorithm": "oda-c" or "oda-ps"')

    graph = d.get("graph")
    if graph is None:
        topology = lazy_cycle_pair(5) if algorithm == "oda-c" else split_ring_schedule(5, 3)
    elif isinstance(graph, str):
        topology = load_graph(graph)
    elif isinstance(graph, dict):
        topology = topology_from_dict(graph)
    else:
        raise ConfigError('"graph" must be a path, an inline object, or omitted')
    n = topology.n

    blocks_spec = d.get("blocks")
    if blocks_spec is None:
        blocks = BlockMap.scalar(n)
    elif isinstance(blocks_spec, int):
        if blocks_spec != n:
            raise ConfigError(f'"blocks": {blocks_spec} disagrees with n={n} agents')
        blocks = BlockMap.scalar(n)
    elif isinstance(blocks_spec, (list, tuple)) and all(
        isinstance(b, (list, tuple)) for b in blocks_spec
    ):
        blocks = BlockMap(
            blocks=tuple(tuple(_integer(k, "block entry", 0) for k in b) for b in blocks_spec)
        )
    else:
        raise ConfigError('"blocks" must be the agent count or a list of coordinate lists')

    box = _box_from_spec(d.get("box", [-10.0, 10.0]), blocks.p)
    if "T" not in d:
        raise ConfigError('config needs a horizon "T"')

    regular = d.get("regular", False)
    if not isinstance(regular, bool):
        raise ConfigError(f'"regular" must be true or false, got {regular!r}')
    sigma2_sup = d.get("sigma2_sup")
    b_cap = d.get("b_cap")
    comparator_tol = _real(d.get("comparator_tol", 1e-8), '"comparator_tol"')
    if not (comparator_tol > 0 and math.isfinite(comparator_tol)):
        raise ConfigError(f'"comparator_tol" must be positive and finite, got {comparator_tol}')

    return RunConfig(
        algorithm=algorithm,
        topology=topology,
        box=box,
        T=_integer(d["T"], '"T"', 0),
        seed=_integer(d.get("seed", 0), '"seed"', 0),
        blocks=blocks,
        alpha=_alpha_from_spec(d.get("alpha")),
        environment=_environment_from_spec(d.get("environment"), blocks.p),
        regular=regular,
        sigma2_sup=None if sigma2_sup is None else _real(sigma2_sup, '"sigma2_sup"'),
        b_cap=None if b_cap is None else _integer(b_cap, '"b_cap"', 1),
        comparator_tol=comparator_tol,
    )


def load_config(path: str) -> RunConfig:
    return config_from_dict(load_json(path, "config"))


# ---------------------------------------------------------------------------
# simulation


# spectral_gap reads a pair that does not mix as 0 plus ~n*eps of roundoff
# (4.4e-16 at n=3); the slowest stock pair, the lazy 200-cycle, has 4.9e-4
SPECTRAL_GAP_TOL = 1e-10


@dataclass(frozen=True)
class NetworkConstants:
    """The network's part of the certified bounds. It does not change with T
    or the losses, so a run works it out once, before round 1."""

    fields: dict  # spectral_gap and r_min, or B and the contraction constants
    disagreement_bound: Callable[[float], float]  # of L
    regret_bound: Callable[[int, float, float, float, float], float]  # of T, L, G, D, C
    weighted: bool  # push-sum: finalize reports the weight-conservation residual


def network_constants(config: RunConfig) -> NetworkConstants:
    """Choose the circulation or the push-sum bound family for the config's
    network and certify its constants. This is the one network check every
    command makes before round 1: a weight pair that fails
    validate_reversible_pair or whose spectral gap is not above
    SPECTRAL_GAP_TOL, or a schedule with no strongly connected window within
    the cap, raises TopologyError."""
    n = config.n
    if isinstance(config.topology, StaticTopology):
        pair = config.topology.pair
        report = validate_reversible_pair(config.topology.graph, pair)
        if not report.passed:
            names = ", ".join(
                f"{c.name} at {c.detail}" if c.detail else c.name for c in report.failures()
            )
            raise TopologyError(f"weight pair failed validation: {names}")
        lam, r_min = spectral_gap(pair), pair.r_min
        if not lam > SPECTRAL_GAP_TOL:
            raise TopologyError(
                f"weight pair does not mix: spectral gap not above {SPECTRAL_GAP_TOL:g}"
            )
        return NetworkConstants(
            {"spectral_gap": lam, "r_min": r_min},
            lambda L: circulation_disagreement_bound(n, L, r_min, lam),
            lambda T, L, G, D, C: circulation_regret_bound(T, n, L, G, D, C, r_min, lam),
            weighted=False,
        )
    # module-level names: bench/tracer.py wraps these two in this module
    B = validate_b_strong(config.topology, cap=config.b_cap)
    if B is None:
        raise TopologyError("schedule is not strongly connected over any window within the cap")
    cc = contraction_constants(n, B, regular=config.regular, sigma2_sup=config.sigma2_sup)
    return NetworkConstants(
        {
            "B": B, "beta": cc.beta, "theta": cc.theta, "gamma": cc.gamma,
            "log_gamma": cc.log_gamma, "log_one_minus_theta": cc.log_one_minus_theta,
        },
        lambda L: pushsum_disagreement_bound(n, L, cc),
        lambda T, L, G, D, C: pushsum_regret_bound(T, n, L, G, D, C, cc),
        weighted=True,
    )


@dataclass
class RunHistory:
    """Raw per-round record of a simulation, before any bound is attached.
    O(T p): the agents' points are reduced in the loop to refs and ref_gaps."""

    config: RunConfig
    network: NetworkConstants
    losses: QuadraticLoss      # the T rounds' losses as one stack
    actions: np.ndarray        # (T, p) network actions
    updates: np.ndarray        # (T, p) owned gradient entries, coordinate order
    refs: np.ndarray           # (T, p) single-agent reference point of each round
    ref_gaps: np.ndarray       # (T,) sum over agents of ||x_i(t) - refs[t-1]||
    steps: np.ndarray          # (T + 1,) the step sizes alpha(0..T)
    disagreement: np.ndarray
    disagreement_squared: np.ndarray
    mean_field_residual: np.ndarray
    weight_residual: np.ndarray  # push-sum only; zeros for oda-c

    @cached_property
    def columns(self) -> RoundColumns:
        """The measurement no prefix changes, formed by the first finalize of
        a nonempty prefix and read by every finalize after it."""
        config = self.config
        return round_columns(
            self.losses, self.actions, self.updates, self.refs, config.box,
            config.n, self.steps,
        )


def run_generator(config: RunConfig) -> np.random.Generator:
    """The run's generator: PCG64 keyed by (seed, horizon)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([config.seed, config.T]))
    )


def simulate(config: RunConfig, network: NetworkConstants | None = None) -> RunHistory:
    """Execute the round loop and record everything needed for measurement.
    ``network`` is ``network_constants(config)`` when the caller has it."""
    rng = run_generator(config)
    # certified once the generator exists: certifying first measured +1.2 MB
    # of resident peak on 50-agent push-sum (heap layout; same Python data)
    if network is None:
        network = network_constants(config)
    p, T = config.p, config.T
    steps = step_sizes(T, config.alpha)
    env = (config.environment or sensing_environment_factory())(p, rng)
    # nothing else draws from rng: the stack holds the noise in round order
    losses = QuadraticLoss(env.A, env.measurements(T, rng))
    del env  # its covariance and root, 2 p^2 floats the loop never reads
    # built once those are freed, so its (n, p) bounds can take their place
    # on the heap: ring200-wide measured 10.0-10.4 MB of resident peak
    # built before the environment, 9.3 MB after
    engine = DualAveragingEngine(config.topology, config.blocks, config.box)
    A, Q = losses.A, losses.q
    if A.shape[1] != p or Q.shape != (T, A.shape[0]):
        raise ConfigError(
            f"environment dimension: A is {A.shape}, measurements {Q.shape}, p={p}, T={T}"
        )
    H = A.T @ A

    flat = config.blocks.owner * p + np.arange(p)  # (owner[k], k) in a raveled (n, p)
    neg_steps = -steps[:, None]
    r = None if network.weighted else config.topology.pair.r
    actions, updates, refs = (np.empty((T, p)) for _ in range(3))
    ref_gaps, diag = np.empty(T), np.empty((4, T))  # diag: the four per-round diagnostics
    # the single-agent run on the same updates: the reference of round t
    # projects the sum through round t-1 with step alpha(t-2)
    total = np.zeros(p)  # the sum through the last measured round
    ref = config.box.clamp(np.zeros(p))  # the reference of the next round to measure

    def measure(Xs, Zs, Rs, Ws, t):
        """Rounds t0+1..t in one vectorised pass over their held states."""
        nonlocal total, ref
        t0 = t - len(Xs)
        d = np.array(Xs)  # the block's own copy of the points: X - ref is formed in it
        Xs.clear()
        actions[t0:t] = d.reshape(t - t0, -1)[:, flat]
        # the running sums: cumsum adds in the order of total += u, bit for bit
        U = updates[t0:t]
        sums = total + U if t - t0 == 1 else np.cumsum(np.concatenate([total[None], U]), 0)[1:]
        # nxt[k] = project(sums[k], alpha(t0+k)), the reference of round t0+k+2
        nxt = config.box.clamp(neg_steps[t0:t] * sums)
        refs[t0], refs[t0 + 1 : t] = ref, nxt[:-1]
        total, ref = sums[-1], nxt[-1]
        np.subtract(d, refs[t0:t, None, :], out=d)
        ref_gaps[t0:t] = np.sqrt(np.add.reduce(np.square(d, out=d), axis=2)).sum(axis=1)
        del d  # freed before the duals are stacked
        Z = _stacked(Zs)
        R, W = (Z, None) if r is not None else (_stacked(Rs), _stacked(Ws))
        # overwrite: a block of more than one round holds stacked copies,
        # which the call may write into; a block of one holds the engine's
        # own arrays
        diag[:, t0:t] = block_diagnostics(Z, R, W, sums, r, t - t0 > 1)
        ok = np.isfinite(diag[0:3:2, t0:t])  # the disagreement and mean-field residual
        if not ok.all():
            k = t0 + int(ok.all(axis=0).argmin())
            dis, _, mf, _ = diag[:, k].tolist()
            raise FloatingPointError(
                f"round {k + 1} left disagreement {dis}, mean-field residual {mf}"
            )

    c = max(1, BLOCK_VALUES // (config.n * p))
    step_list = steps.tolist()
    Xs, Zs, Rs, Ws = [], [], [], []  # the states of the open block's rounds
    for t0 in range(0, T, c):
        t1 = min(t0 + c, T)
        # the block's b_t = A^T q_t, one gemv per row: bit for bit the
        # per-round Q[t] @ A, where a 2-D Q @ A (one gemm) is not
        Bs = np.matmul(Q[t0:t1, None, :], A)[:, 0, :]
        for t in range(t0, t1):
            Xs.append(engine.primal_matrix())
            updates[t] = u = engine.local_updates(H, Bs[t - t0])
            engine.step(u, step_list[t])
            # the engine replaces these arrays each step and never writes into them
            Zs.append(engine._Z)
            if r is None:  # push-sum: the ratios and the weights as well
                Rs.append(engine._ratios)
                Ws.append(engine._w)
        measure(Xs, Zs, Rs, Ws, t1)

    dis, dis_sq, mf_res, w_res = diag
    return RunHistory(
        config=config, network=network, losses=losses, actions=actions, updates=updates,
        refs=refs, ref_gaps=ref_gaps, steps=steps, disagreement=dis,
        disagreement_squared=dis_sq, mean_field_residual=mf_res, weight_residual=w_res,
    )


def _stacked(held: list) -> np.ndarray:
    """The held arrays on a new first axis (one array as a view); empties the list."""
    out = held[0][None] if len(held) == 1 else np.array(held)
    held.clear()
    return out


def finalize(history: RunHistory, T: int | None = None) -> RegretTrace:
    """Measure regret and attach certified bounds over the first T rounds."""
    config = history.config
    if T is None:
        T = config.T
    if T > config.T:
        raise ConfigError(f"prefix {T} exceeds simulated horizon {config.T}")
    n, p = config.n, config.p
    box = config.box
    C = prox_sup(box)
    D = box.diameter

    if T == 0:
        empty = np.zeros(0)
        return RegretTrace(
            algorithm=config.algorithm, T=0, n=n, p=p, seed=config.seed,
            costs=empty, comparator_costs=empty, regret_partial=empty,
            avg_regret=empty, disagreement=empty, disagreement_squared=empty,
            mean_field_residual=empty, e1=empty, e2=empty, e3=empty,
            bound_partial=empty, y_star=box.clamp(np.zeros(p)),
            comparator_value=0.0,
            constants={"L": 0.0, "G": 0.0, "D": D, "C": C},
            theory_bound=C,
        )

    # O(T) per prefix from here on: the prefix-free columns are formed once
    cols = history.columns
    losses = QuadraticLoss(history.losses.A, history.losses.q[:T])
    L, G = lipschitz_constants(losses.A, box, q_radius=float(cols.q_radius[T - 1]), G=cols.G)
    comp = offline_comparator(losses, box, tol=config.comparator_tol)
    costs = cols.costs[:T].copy()
    regret_partial = network_regret(costs, comp.costs)
    terms = decomposition_terms(cols, history.ref_gaps[:T], L, C)
    net = history.network
    constants = {
        "L": L, "G": G, "D": D, "C": C, "n": n, **net.fields,
        "disagreement_bound": net.disagreement_bound(L),
    }
    if net.weighted:
        constants["max_weight_residual"] = float(np.max(history.weight_residual[:T]))

    return RegretTrace(
        algorithm=config.algorithm,
        T=T, n=n, p=p, seed=config.seed,
        costs=costs,
        comparator_costs=comp.costs,
        regret_partial=regret_partial,
        avg_regret=regret_partial / np.arange(1, T + 1),
        disagreement=history.disagreement[:T].copy(),
        disagreement_squared=history.disagreement_squared[:T].copy(),
        mean_field_residual=history.mean_field_residual[:T].copy(),
        e1=terms.e1, e2=terms.e2, e3=terms.e3, bound_partial=terms.bound,
        y_star=comp.y,
        comparator_value=comp.value,
        comparator_iterations=comp.iterations,
        comparator_residual=comp.grad_residual,
        constants=constants,
        theory_bound=net.regret_bound(T, L, G, D, C),
    )


def run(config: RunConfig) -> RegretTrace:
    """Simulate one run and measure it over its full horizon."""
    return finalize(simulate(config))


@dataclass(frozen=True)
class SweepRow:
    T: int
    regret: float
    avg_regret: float
    theory_bound: float


def sweep(config: RunConfig, horizons, cumulative: bool = False) -> list:
    """Regret growth across horizons.

    Fresh mode restarts each horizon as its own run (identical to calling
    run() with that T), on network constants certified once. Cumulative
    mode simulates the longest horizon once and measures each shorter
    horizon as a prefix: the prefix-free columns are formed once, and each
    prefix re-solves the comparator.
    """
    horizons = [int(T) for T in horizons]
    if not horizons:
        raise ConfigError("sweep needs at least one horizon")
    if any(T <= 0 for T in horizons):
        raise ConfigError("sweep horizons must be positive")
    if sorted(horizons) != horizons:
        raise ConfigError("sweep horizons must be increasing")
    if cumulative:
        history = simulate(replace(config, T=max(horizons)))
        traces = (finalize(history, T) for T in horizons)
    else:
        # every horizon's config is checked before the first run starts
        configs = [replace(config, T=T) for T in horizons]
        network = network_constants(config)
        traces = (finalize(simulate(c, network)) for c in configs)
    return [SweepRow(tr.T, tr.regret, tr.average_regret, tr.theory_bound) for tr in traces]


# ---------------------------------------------------------------------------
# serialization


def write_trace_csv(trace: RegretTrace, path: str) -> None:
    """Per-round trace; floats carry 12 significant digits so reruns are
    byte-comparable."""
    columns = (
        trace.costs, trace.regret_partial, trace.avg_regret, trace.disagreement,
        trace.mean_field_residual, trace.e1, trace.e2, trace.e3, trace.bound_partial,
    )
    rows = zip(range(1, trace.T + 1), *(c.tolist() for c in columns))
    with open(path, "w", newline="") as f:
        f.write(TRACE_HEADER + "\r\n")
        f.writelines(TRACE_ROW % row for row in rows)


def write_sweep_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(SWEEP_HEADER + "\r\n")
        f.writelines(
            SWEEP_ROW % (row.T, row.regret, row.avg_regret, row.theory_bound) for row in rows
        )
