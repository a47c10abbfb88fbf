"""Deterministic simulation harness.

One run wires an engine, an environment and a step schedule together:
each round reveals the network action assembled from the owned blocks, the
environment answers with a loss, every agent reads the gradient entries it
owns at its own point (one row-wise gradient of the stacked points), and the
engine mixes and steps. Everything random flows through a single
PCG64 generator keyed by (seed, horizon), so a sweep row and a standalone
run at the same horizon are bit-identical.
"""

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol

import numpy as np

from .core import ActionBox, BlockMap
# bench/tracer.py wraps the engine's methods under the two alias names in this module
from .engine import CirculationEngine, DualAveragingEngine, PushSumEngine  # noqa: F401
from .errors import ConfigError, TopologyError
from .objectives import QuadraticLoss, lipschitz_constants
from .prox import prox_sup
from .regret import (
    RegretTrace,
    circulation_disagreement_bound,
    circulation_regret_bound,
    decomposition_terms,
    inv_sqrt_step,
    network_regret,
    offline_comparator,
    pushsum_disagreement_bound,
    pushsum_regret_bound,
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
)

TRACE_HEADER = (
    "t,cost,regret_partial,avg_regret,disagreement,"
    "mean_field_residual,e1,e2,e3,bound_partial"
)
SWEEP_HEADER = "T,regret,avg_regret,theory_bound"


# ---------------------------------------------------------------------------
# randomness


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


class Environment(Protocol):
    p: int

    def next_objective(self, t: int, x_t: np.ndarray, rng: np.random.Generator):
        ...


@dataclass
class SensingEnvironment:
    """Noisy linear measurements of a fixed target: q_t = A target + noise.

    The revealed action is accepted (the interface allows reactive
    environments) but does not influence the measurement.
    """

    A: np.ndarray
    target: np.ndarray
    cov: np.ndarray
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

    @property
    def p(self) -> int:
        return self.target.shape[0]

    def next_objective(self, t: int, x_t: np.ndarray, rng: np.random.Generator):
        noise = self._cov_sqrt @ standard_normals(rng, self.p)
        return QuadraticLoss(A=self.A, q=self.A @ self.target + noise)


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

    @property
    def p(self) -> int:
        return self.A.shape[0]

    def next_objective(self, t: int, x_t: np.ndarray, rng: np.random.Generator):
        return QuadraticLoss(A=self.A, q=self.q_list[(t - 1) % len(self.q_list)])


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
            A_ = np.asarray(A, dtype=float)
        if target is None:
            target_ = rng.uniform(-10.0, 10.0, size=p)
        else:
            target_ = np.asarray(target, dtype=float)
        cov_ = 0.25 * np.eye(p) if cov is None else np.asarray(cov, dtype=float)
        return SensingEnvironment(A=A_, target=target_, cov=cov_)

    return make


def fixed_environment_factory(
    q_list, A=None
) -> Callable[[int, np.random.Generator], FixedEnvironment]:
    def make(p: int, rng: np.random.Generator) -> FixedEnvironment:
        A_ = np.eye(p) if A is None else np.asarray(A, dtype=float)
        return FixedEnvironment(A=A_, q_list=tuple(q_list))

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
    alpha: Callable[[int], float] | None = None
    environment: Callable[[int, np.random.Generator], Environment] | None = None
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
        n = (
            self.topology.pair.n
            if isinstance(self.topology, StaticTopology)
            else self.topology.n
        )
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


def _alpha_from_spec(spec) -> Callable[[int], float] | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError('alpha must be an object like {"rule": "inv-sqrt"}')
    if "values" in spec:
        values = [_real(v, "alpha value") for v in spec["values"]]
        if any(v <= 0 for v in values):
            raise ConfigError("alpha values must be positive")

        def alpha(s: int) -> float:
            if s >= len(values):
                raise ConfigError(
                    f"alpha value list has {len(values)} entries; need index {s} "
                    "(the list must cover the horizon plus one)"
                )
            return values[s]

        return alpha
    rule = spec.get("rule", "inv-sqrt")
    if rule != "inv-sqrt":
        raise ConfigError(f'unknown alpha rule "{rule}"')
    return None


def _box_from_spec(spec, p: int) -> ActionBox:
    if isinstance(spec, (list, tuple)) and len(spec) == 2 and np.isscalar(spec[0]):
        return ActionBox.uniform(_real(spec[0], "box lo"), _real(spec[1], "box hi"), p)
    if isinstance(spec, dict) and "lo" in spec and "hi" in spec:
        return ActionBox(
            lo=np.asarray(spec["lo"], dtype=float),
            hi=np.asarray(spec["hi"], dtype=float),
        )
    raise ConfigError('box must be [lo, hi] or {"lo": [...], "hi": [...]}')


def _environment_from_spec(spec):
    if spec is None:
        return None
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError('environment must be an object with a "type"')
    kind = spec["type"]
    if kind == "sensing":
        return sensing_environment_factory(
            A=spec.get("A"), target=spec.get("target"), cov=spec.get("P")
        )
    if kind == "fixed":
        if "q" not in spec:
            raise ConfigError('fixed environment needs "q": a list of vectors')
        return fixed_environment_factory(spec["q"], A=spec.get("A"))
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
    n = topology.pair.n if isinstance(topology, StaticTopology) else topology.n

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
        environment=_environment_from_spec(d.get("environment")),
        regular=regular,
        sigma2_sup=None if sigma2_sup is None else _real(sigma2_sup, '"sigma2_sup"'),
        b_cap=None if b_cap is None else _integer(b_cap, '"b_cap"', 1),
        comparator_tol=comparator_tol,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            d = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    return config_from_dict(d)


# ---------------------------------------------------------------------------
# simulation


@dataclass
class RunHistory:
    """Raw per-round record of a simulation, before any bound is attached."""

    config: RunConfig
    objectives: list
    actions: np.ndarray        # (T, p) network actions
    updates: np.ndarray        # (T, p) owned gradient entries, coordinate order
    primals: np.ndarray        # (T, n, p) per-agent points the blocks were read at
    disagreement: np.ndarray
    disagreement_squared: np.ndarray
    mean_field_residual: np.ndarray
    weight_residual: np.ndarray  # push-sum only; zeros for oda-c


def run_generator(config: RunConfig) -> np.random.Generator:
    """The run's generator: PCG64 keyed by (seed, horizon)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([config.seed, config.T]))
    )


def simulate(config: RunConfig) -> RunHistory:
    """Execute the round loop and record everything needed for measurement."""
    rng = run_generator(config)
    engine = DualAveragingEngine(config.topology, config.blocks, config.box)
    n, p, T = config.n, config.p, config.T
    alpha = config.alpha or inv_sqrt_step
    env_factory = config.environment or sensing_environment_factory()
    env = env_factory(p, rng)
    if getattr(env, "p", p) != p:
        raise ConfigError(f"environment dimension {env.p} disagrees with p={p}")

    owner = config.blocks.owner
    cols = np.arange(p)
    objectives = []
    actions = np.empty((T, p))
    updates = np.empty((T, p))
    primals = np.empty((T, n, p))
    disagreement = np.empty(T)
    disagreement_sq = np.empty(T)
    mf_residual = np.empty(T)
    w_residual = np.zeros(T)
    is_pushsum = config.algorithm == "oda-ps"

    for t in range(1, T + 1):
        X = engine.primal_matrix()
        x_t = X[owner, cols]
        obj = env.next_objective(t, x_t, rng)
        if not isinstance(obj, QuadraticLoss):
            # bounds are certified for quadratic losses only; reject before
            # this round's step rather than after the whole horizon
            raise ConfigError(
                "bound certification needs quadratic objectives; round "
                f"{t} returned {type(obj).__name__}"
            )
        u = engine.local_updates(obj)
        engine.step(u, alpha(t - 1))

        objectives.append(obj)
        actions[t - 1] = x_t
        updates[t - 1] = u
        primals[t - 1] = X
        disagreement[t - 1] = engine.disagreement()
        disagreement_sq[t - 1] = engine.disagreement_squared()
        mf_residual[t - 1] = engine.mean_field_residual()
        if is_pushsum:
            w_residual[t - 1] = engine.weight_conservation_residual()

    return RunHistory(
        config=config,
        objectives=objectives,
        actions=actions,
        updates=updates,
        primals=primals,
        disagreement=disagreement,
        disagreement_squared=disagreement_sq,
        mean_field_residual=mf_residual,
        weight_residual=w_residual,
    )


def _certified_constants(objectives, box: ActionBox) -> tuple:
    """Gradient and curvature constants valid for every observed objective
    (each a QuadraticLoss: simulate rejects any other kind)."""
    L = 0.0
    G = 0.0
    by_matrix = {}
    for obj in objectives:
        key = obj.A.tobytes()
        by_matrix.setdefault(key, (obj.A, []))[1].append(float(np.linalg.norm(obj.q)))
    for A, q_norms in by_matrix.values():
        L_m, G_m = lipschitz_constants(A, box, q_radius=max(q_norms))
        L = max(L, L_m)
        G = max(G, G_m)
    return L, G


def finalize(history: RunHistory, T: int | None = None) -> RegretTrace:
    """Measure regret and attach certified bounds over the first T rounds."""
    config = history.config
    if T is None:
        T = config.T
    if T > config.T:
        raise ConfigError(f"prefix {T} exceeds simulated horizon {config.T}")
    n, p = config.n, config.p
    alpha = config.alpha or inv_sqrt_step
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

    objectives = history.objectives[:T]
    actions = history.actions[:T]
    L, G = _certified_constants(objectives, box)
    comp = offline_comparator(objectives, box, tol=config.comparator_tol)
    regret_partial, costs, comparator_costs = network_regret(objectives, actions, comp.y)
    terms = decomposition_terms(
        history.updates[:T], history.primals[:T], objectives, box, L, C, alpha
    )
    rounds = np.arange(1, T + 1)

    constants = {"L": L, "G": G, "D": D, "C": C, "n": n}
    if config.algorithm == "oda-c":
        pair = config.topology.pair
        lam = spectral_gap(pair)
        constants["spectral_gap"] = lam
        constants["r_min"] = pair.r_min
        constants["disagreement_bound"] = circulation_disagreement_bound(
            n, L, pair.r_min, lam
        )
        theory = circulation_regret_bound(T, n, L, G, D, C, pair.r_min, lam)
    else:
        schedule = config.topology
        B = validate_b_strong(schedule, cap=config.b_cap)
        if B is None:
            raise TopologyError(
                "schedule is not strongly connected over any window within the cap"
            )
        cc = contraction_constants(
            n, B, regular=config.regular, sigma2_sup=config.sigma2_sup
        )
        constants.update(
            B=B, beta=cc.beta, theta=cc.theta, gamma=cc.gamma,
            log_gamma=cc.log_gamma, log_one_minus_theta=cc.log_one_minus_theta,
        )
        constants["disagreement_bound"] = pushsum_disagreement_bound(n, L, cc)
        constants["max_weight_residual"] = float(np.max(history.weight_residual[:T]))
        theory = pushsum_regret_bound(T, n, L, G, D, C, cc)

    return RegretTrace(
        algorithm=config.algorithm,
        T=T, n=n, p=p, seed=config.seed,
        costs=costs,
        comparator_costs=comparator_costs,
        regret_partial=regret_partial,
        avg_regret=regret_partial / rounds,
        disagreement=history.disagreement[:T].copy(),
        disagreement_squared=history.disagreement_squared[:T].copy(),
        mean_field_residual=history.mean_field_residual[:T].copy(),
        e1=terms.e1, e2=terms.e2, e3=terms.e3, bound_partial=terms.bound,
        y_star=comp.y,
        comparator_value=comp.value,
        constants=constants,
        theory_bound=theory,
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
    run() with that T). Cumulative mode simulates the longest horizon once
    and measures each shorter horizon as a prefix, re-solving the comparator
    per prefix.
    """
    horizons = [int(T) for T in horizons]
    if not horizons:
        raise ConfigError("sweep needs at least one horizon")
    if any(T <= 0 for T in horizons):
        raise ConfigError("sweep horizons must be positive")
    if sorted(horizons) != horizons:
        raise ConfigError("sweep horizons must be increasing")
    rows = []
    if cumulative:
        history = simulate(replace(config, T=max(horizons)))
        for T in horizons:
            trace = finalize(history, T)
            rows.append(
                SweepRow(T, trace.regret, trace.average_regret, trace.theory_bound)
            )
    else:
        for T in horizons:
            trace = run(replace(config, T=T))
            rows.append(
                SweepRow(T, trace.regret, trace.average_regret, trace.theory_bound)
            )
    return rows


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return "%.12g" % x


def write_trace_csv(trace: RegretTrace, path: str) -> None:
    """Per-round trace; floats carry 12 significant digits so reruns are
    byte-comparable."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_HEADER.split(","))
        for t in range(1, trace.T + 1):
            i = t - 1
            w.writerow(
                [str(t)]
                + [
                    _fmt(v)
                    for v in (
                        trace.costs[i],
                        trace.regret_partial[i],
                        trace.avg_regret[i],
                        trace.disagreement[i],
                        trace.mean_field_residual[i],
                        trace.e1[i],
                        trace.e2[i],
                        trace.e3[i],
                        trace.bound_partial[i],
                    )
                ]
            )


def write_sweep_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SWEEP_HEADER.split(","))
        for row in rows:
            w.writerow(
                [str(row.T), _fmt(row.regret), _fmt(row.avg_regret), _fmt(row.theory_bound)]
            )
