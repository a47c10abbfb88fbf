import contextlib
import functools
import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from netdual import (
    ActionBox,
    ConfigError,
    ContractionConstants,
    DigraphSchedule,
    DualAveragingEngine,
    QuadraticLoss,
    ReversiblePair,
    RunConfig,
    StaticTopology,
    UndirectedGraph,
    harness,
)
from netdual.regret import step_sizes
from netdual.topology import _strongly_connected


def inv_sqrt_step(s: int) -> float:
    """The default step-size rule alpha(s) = 1/sqrt(s+1), s >= 0, one call per
    entry; ``step_sizes`` forms it as one vector."""
    return 1.0 / math.sqrt(s + 1)


def project(z: np.ndarray, alpha: float, box: ActionBox) -> np.ndarray:
    """The prox step argmin_x <z, x> + psi(x) / alpha, psi = 0.5 * ||x||^2,
    by its closed form clamp(-alpha * z); alpha > 0."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return box.clamp(-alpha * np.asarray(z, dtype=float))


def in_box(box: ActionBox, x: np.ndarray, tol: float = 0.0) -> bool:
    """Whether x lies in the box, each bound widened by tol."""
    return bool(np.all(x >= box.lo - tol) and np.all(x <= box.hi + tol))


def mean_field(engine: DualAveragingEngine) -> np.ndarray:
    """Weighted average of the engine's duals (r, or uniform); tracks the
    injected-gradient sum exactly."""
    if engine._w is None:
        return engine._r @ engine._Z
    return engine._Z.mean(axis=0)


def centralized_reference(update_history, box: ActionBox, alpha=None) -> np.ndarray:
    """Trajectory a single agent would produce from the stacked gradients.

    Row j is the point acted on at round j+1: the projection of the gradient
    sum through round j with step alpha(j-1). Row 0 is the starting point
    (projection of zero). Shape (T+1, p).
    """
    if alpha is None:
        alpha = inv_sqrt_step
    U = np.asarray(update_history, dtype=float)
    if U.ndim != 2 or U.shape[1] != box.p:
        raise ConfigError(f"update history must be (T, {box.p}), got {U.shape}")
    T = U.shape[0]
    refs = np.empty((T + 1, box.p))
    refs[0] = box.clamp(np.zeros(box.p))
    total = np.zeros(box.p)
    for j in range(1, T + 1):
        total += U[j - 1]
        refs[j] = project(total, alpha(j - 1), box)
    return refs


def power_iteration(S: np.ndarray, tol: float = 1e-9, max_iter: int = 100_000) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite matrix.

    Deterministic start vector; stops when successive Rayleigh quotients agree
    to ``tol`` relative, so the estimate can sit below the true value by
    about ``tol``. The old solver's step and a lower check on
    ``QuadraticLoss.curvature`` read it.
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


def projected_gradient_comparator(
    losses: QuadraticLoss, box: ActionBox, tol: float = 1e-8, max_iter: int = 20_000
):
    """The hindsight comparator by fixed-step projected gradient on the normal
    form 0.5 y^T H y - b^T y: step 1/lambda_max(H) from the clamped
    least-squares point, stopped when the gradient map's norm is at most tol.

    Returns (y, value), or None when max_iter steps do not reach tol.
    """
    H = losses.q.shape[0] * (losses.A.T @ losses.A)
    b = losses.A.T @ losses.q.sum(axis=0)
    lip = power_iteration(H)
    step = 1.0 / lip if lip > 0 else 1.0
    y = box.clamp(np.linalg.lstsq(H, b, rcond=None)[0])
    for _ in range(max_iter):
        y_next = box.clamp(y - step * (H @ y - b))
        residual = float(np.linalg.norm(y - y_next)) / step
        y = y_next
        if residual <= tol:
            return y, float(np.sum(losses.value(y)))
    return None


def injection(engine: DualAveragingEngine, u: np.ndarray) -> np.ndarray:
    """The (n, p) increment by which a step puts each owned entry u[k] into
    its owner's row, through the engine's own injection index."""
    U = np.zeros((engine.n, engine.p))
    U.reshape(-1)[engine._inject] = u / engine._r_owner if engine._w is None else engine.n * u
    return U


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
        expected += R @ injection(engine, np.asarray(update_history[s], dtype=float))
        R = R @ (engine.network.pair.M if engine._w is None else engine.network.matrix_at(s))
    return float(np.max(np.abs(engine._Z - expected))) if t else 0.0


def svd_spectral_gap(pair: ReversiblePair) -> float:
    """1 minus the squared second singular value of S = diag(sqrt(r)) M
    diag(1/sqrt(r)), taken by the SVD: the oracle for ``spectral_gap``,
    which reads the same values as S's eigenvalue magnitudes."""
    if pair.n == 1:
        return 1.0
    s = np.sqrt(pair.r)
    sing = np.linalg.svd((s[:, None] * pair.M) / s[None, :], compute_uv=False)
    return float(min(1.0, max(0.0, 1.0 - float(sing[1]) ** 2)))


def measurements_per_round(env: harness.SensingEnvironment, T: int, rng) -> np.ndarray:
    """A sensing environment's (T, p) measurement stack drawn one round after
    another, each round's standard normals by their own
    ``rng.standard_normal(p)`` call. The oracle the one-call draw and the
    blocked map in ``SensingEnvironment.measurements`` are checked against,
    bit for bit."""
    Q = np.empty((T, env.p))
    for t in range(T):
        Q[t] = env.center + env._cov_sqrt @ rng.standard_normal(env.p)
    return Q


def numpy_build() -> str:
    """numpy's version and the name and version of the BLAS it was built
    against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy < 1.26 only prints its configuration
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            np.show_config()
        blas = out.getvalue()
    return f"numpy {np.__version__}, BLAS {blas}"


def run_bytes(config: RunConfig, path) -> tuple:
    """The bytes of one run: each RunHistory array and ``losses.q`` by name,
    and the trace CSV written to ``path``."""
    history = harness.simulate(config)
    harness.write_trace_csv(harness.finalize(history), path)
    arrays = {
        f.name: getattr(history, f.name).tobytes()
        for f in fields(history)
        if isinstance(getattr(history, f.name), np.ndarray)
    }
    arrays["losses.q"] = history.losses.q.tobytes()
    return arrays, path.read_bytes()


def simulate_per_round(config: RunConfig) -> harness.RunHistory:
    """``simulate`` measured round by round: each round's reference gap,
    reference and diagnostics formed right after its step, by the formulas
    the engine used before the diagnostics became one block function, with
    each squared norm one row's ``np.vecdot``, as the blocked measurement
    takes it. The oracle every blocked ``RunHistory`` is checked against,
    bit for bit."""
    rng = harness.run_generator(config)
    network = harness.network_constants(config)
    engine = DualAveragingEngine(config.topology, config.blocks, config.box)
    p, T = config.p, config.T
    steps = step_sizes(T, config.alpha)
    env = (config.environment or harness.sensing_environment_factory())(p, rng)
    losses = QuadraticLoss(env.A, env.measurements(T, rng))
    A, Q = losses.A, losses.q
    H = A.T @ A

    owner, cols = config.blocks.owner, np.arange(p)
    actions, updates, refs = (np.empty((T, p)) for _ in range(3))
    ref_gaps, dis, dis_sq, mf_res, w_res = (np.empty(T) for _ in range(5))
    total = np.zeros(p)
    ref = config.box.clamp(np.zeros(p))
    for t, step in zip(range(1, T + 1), steps.tolist()):
        X = engine._X
        u = engine.local_updates(H, Q[t - 1] @ A)
        engine.step(u, step)

        actions[t - 1] = X[owner, cols]
        updates[t - 1] = u
        refs[t - 1] = ref
        d = X - ref
        ref_gaps[t - 1] = np.sqrt(np.vecdot(d, d)).sum()
        total += u
        ref = project(total, step, config.box)
        mf = mean_field(engine)
        d = engine.ratios() - mf[None, :]
        row_sq = np.vecdot(d, d)
        dis[t - 1] = dis_t = float(np.sqrt(row_sq).sum())
        dis_sq[t - 1] = float(row_sq.sum())
        mf_res[t - 1] = mf_t = float(np.abs(mf - total).max())
        w_res[t - 1] = 0.0 if engine._w is None else float(abs(engine._w.sum() - engine.n))
        if not (math.isfinite(dis_t) and math.isfinite(mf_t)):
            raise FloatingPointError(
                f"round {t} left disagreement {dis_t}, mean-field residual {mf_t}"
            )

    return harness.RunHistory(
        config=config, network=network, losses=losses, actions=actions,
        updates=updates, refs=refs, ref_gaps=ref_gaps, steps=steps,
        disagreement=dis, disagreement_squared=dis_sq,
        mean_field_residual=mf_res, weight_residual=w_res,
    )


def backward_product(schedule: DigraphSchedule, t: int, s: int) -> np.ndarray:
    """A(t:s) = A(t) A(t-1) ... A(s); the empty product A(s-1:s) is the identity."""
    if s > t + 1:
        raise ConfigError(f"need s <= t+1, got t={t}, s={s}")
    P = np.eye(schedule.n)
    for j in range(s, t + 1):
        P = schedule.matrix_at(j) @ P
    return P


def record_primals(monkeypatch) -> list:
    """Collect every (n, p) primal matrix the engine's local updates read,
    in order.

    simulate forms the owned gradients once per round, before the step, so
    during a run entry t-1 holds the points acted on at round t."""
    seen = []
    local_updates = DualAveragingEngine.local_updates

    def recording(self, *args):
        seen.append(self._X.copy())
        return local_updates(self, *args)

    monkeypatch.setattr(DualAveragingEngine, "local_updates", recording)
    return seen


def random_digraph_schedule(n: int, period: int, rng, edge_prob: float = 0.5):
    """Random digraphs with all self-loops; no connectivity guarantee."""
    graphs = []
    for _ in range(period):
        edges = {(i, i) for i in range(n)}
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < edge_prob:
                    edges.add((i, j))
        graphs.append(frozenset(edges))
    return DigraphSchedule(n=n, graphs=tuple(graphs), period=period)


def metropolis_topology(n: int, rng, extra_edges: int = 2) -> StaticTopology:
    """Random connected graph with Metropolis weights: reversible with
    respect to the uniform distribution by construction."""
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    g = UndirectedGraph(n=n, edges=frozenset(edges))
    deg = np.zeros(n)
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    M = np.zeros((n, n))
    for a, b in g.edges:
        M[a, b] = M[b, a] = 1.0 / (max(deg[a], deg[b]) + 1.0)
    M[np.diag_indices(n)] = 1.0 - M.sum(axis=1)
    return StaticTopology(graph=g, pair=ReversiblePair(r=np.full(n, 1.0 / n), M=M))


def singleton_topology() -> StaticTopology:
    return StaticTopology(
        graph=UndirectedGraph(n=1, edges=frozenset()),
        pair=ReversiblePair(r=np.array([1.0]), M=np.array([[1.0]])),
    )


def validate_b_strong_search(schedule: DigraphSchedule, cap: int | None = None) -> int | None:
    """``validate_b_strong`` as it searched before windows were capped at the
    graph list's length: every window length up to the cap, even past one
    period of a periodic schedule. The oracle the capped search is checked
    against."""
    n = schedule.n
    if cap is None:
        cap = 10 * n
    if schedule.period >= 1:
        starts = lambda B: range(schedule.period)
        limit = cap
    else:
        starts = lambda B: range(len(schedule.graphs) - B + 1)
        limit = min(cap, len(schedule.graphs))
    for B in range(1, limit + 1):
        ok = True
        for s in starts(B):
            union = set()
            for j in range(B):
                union |= schedule.graph_at(s + j)
            if not _strongly_connected(union, n):
                ok = False
                break
        if ok:
            return B
    return None


@dataclass(frozen=True)
class DecayReport:
    max_ratio: float
    worst: tuple  # (t, s, i, j) attaining the max
    horizon: int


def check_geometric_decay(
    schedule: DigraphSchedule, constants: ContractionConstants, horizon: int
) -> DecayReport:
    """Empirical certificate that backward products contract geometrically.

    For every 0 <= s <= t <= horizon, compares |[A(t:s)]_ij - phi_i(t)|
    against beta * theta^(t-s), where phi_i(t) is estimated as the row mean
    of A(t:0) (the limiting column profile). A max ratio <= 1 certifies the
    claimed constants over the sampled range.
    """
    log_theta = math.log1p(-constants.one_minus_theta) if constants.theta > 0 else None
    worst = (0, 0, 0, 0)
    max_ratio = 0.0
    # built once each: an explicit schedule builds its matrix on every call
    matrices = [schedule.matrix_at(t) for t in range(horizon + 1)]
    for t in range(horizon + 1):
        products = {}
        P = matrices[t]
        products[t] = P
        for s in range(t - 1, -1, -1):
            P = P @ matrices[s]
            products[s] = P
        phi = products[0].mean(axis=1)
        for s, P in products.items():
            gap = t - s
            if log_theta is None:
                envelope = constants.beta if gap == 0 else 0.0
                if envelope == 0.0:
                    continue
            else:
                envelope = constants.beta * math.exp(gap * log_theta)
            diff = np.abs(P - phi[:, None])
            ratio = float(np.max(diff)) / envelope
            if ratio > max_ratio:
                max_ratio = ratio
                ij = np.unravel_index(np.argmax(diff), diff.shape)
                worst = (t, s, int(ij[0]), int(ij[1]))
    return DecayReport(max_ratio=max_ratio, worst=worst, horizon=horizon)


# ---------------------------------------------------------------------------
# reference closed forms: the four bound functions as the library wrote them,
# one per engine and bound, before both bounds took one contraction factor.
# The oracle ``regret.disagreement_bound`` and ``regret.regret_bound`` are
# checked against.


def _one_minus_sqrt_one_minus(lam: float) -> float:
    # stable form of 1 - sqrt(1-lam) for small lam
    return lam / (1.0 + math.sqrt(max(0.0, 1.0 - lam)))


def circulation_disagreement_bound(n: int, L: float, r_min: float, lam: float) -> float:
    """Worst-case sum over agents of the squared dual distance to the mean
    field, valid at every round, for the static-graph engine.

    A single agent coincides with its own mean field, so n = 1 gives 0.
    """
    if L == 0.0 or n == 1:
        return 0.0
    delta = _one_minus_sqrt_one_minus(lam)
    if delta <= 0.0:
        raise ConfigError("spectral gap must be positive for a finite bound")
    return n * L * L / (r_min**3 * delta * delta)


def pushsum_disagreement_bound(
    n: int, L: float, constants: ContractionConstants
) -> float:
    """Worst-case sum over agents of the squared debiased-dual distance to the
    mean field, valid at every round, for the push-sum engine."""
    if L == 0.0 or n == 1 or constants.theta == 0.0:
        return 0.0
    log_val = (
        math.log(2.0 * constants.beta * L * n)
        - constants.log_gamma
        - math.log1p(-constants.one_minus_theta)
        - constants.log_one_minus_theta
    )
    try:
        return math.exp(2.0 * log_val)
    except OverflowError:
        return math.inf


def circulation_regret_bound(
    T: int, n: int, L: float, G: float, D: float, C: float, r_min: float, lam: float
) -> float:
    """A-priori regret bound for the static-graph engine with the default
    step schedule. The disagreement coefficient vanishes for n = 1."""
    if L == 0.0 or n == 1:
        disagree = 0.0
    else:
        delta = _one_minus_sqrt_one_minus(lam)
        if delta <= 0.0:
            raise ConfigError("spectral gap must be positive for a finite bound")
        disagree = 2.0 * n * L * (L + math.sqrt(n) * G * D) / (r_min**1.5 * delta)
    return (n * L * L + disagree) * math.sqrt(T) + C * math.sqrt(T + 1)


def pushsum_regret_bound(
    T: int, n: int, L: float, G: float, D: float, C: float,
    constants: ContractionConstants,
) -> float:
    """A-priori regret bound for the push-sum engine with the default step
    schedule; evaluated in log space so huge contraction ratios do not
    overflow prematurely. The disagreement coefficient vanishes for n = 1."""
    if L == 0.0 or n == 1 or constants.theta == 0.0:
        disagree = 0.0
    else:
        log_val = (
            math.log(4.0 * constants.beta)
            + 1.5 * math.log(n)
            + math.log(L)
            + math.log(L + math.sqrt(n) * G * D)
            - constants.log_gamma
            - math.log1p(-constants.one_minus_theta)
            - constants.log_one_minus_theta
        )
        try:
            disagree = math.exp(log_val)
        except OverflowError:
            disagree = math.inf
    return (n * L * L + disagree) * math.sqrt(T) + C * math.sqrt(T + 1)


def count_evaluations(monkeypatch, cls, name: str) -> list:
    """Count the evaluations of the cached property ``name`` of ``cls``: each
    one, not each read, appends its owner's ``A.shape`` to the returned list."""
    func = getattr(cls, name).func
    calls = []

    def counting(self):
        calls.append(self.A.shape)
        return func(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, counted)
    return calls


# the five conditions ``check-invariants`` gates on, by the flag each sets
# in its "checks"
INVARIANT_FLAGS = (
    "regret_within_partial_bound",
    "disagreement_within_bound",
    "regret_within_theory_bound",
    "mean_field_ok",
    "weights_ok",
)


@pytest.fixture(scope="session")
def pushsum_trace():
    """A finished 40-round push-sum run that meets all five conditions with
    finite bounds."""
    return harness.run(harness.config_from_dict({"algorithm": "oda-ps", "T": 40, "seed": 6}))


def pushed_past(trace, flag: str):
    """A copy of ``trace`` with the one condition behind ``flag`` pushed to
    the next float past its tolerance: a middle round's partial regret or
    squared disagreement just above its bound, the theory bound just below
    the regret, a mean-field residual just above 1e-8, or the weight
    residual just above 1e-9."""
    def up(x):
        return float(np.nextafter(x, math.inf))

    k = trace.T // 2
    if flag == "regret_within_partial_bound":
        column = trace.regret_partial.copy()
        column[k] = up(trace.bound_partial[k] + 1e-9)
        return replace(trace, regret_partial=column)
    if flag == "disagreement_within_bound":
        column = trace.disagreement_squared.copy()
        column[k] = up(trace.constants["disagreement_bound"] * (1 + 1e-12) + 1e-12)
        return replace(trace, disagreement_squared=column)
    if flag == "regret_within_theory_bound":
        return replace(trace, theory_bound=float(np.nextafter(trace.regret, -math.inf)))
    if flag == "mean_field_ok":
        column = trace.mean_field_residual.copy()
        column[k] = up(1e-8)
        return replace(trace, mean_field_residual=column)
    if flag == "weights_ok":
        return replace(trace, constants={**trace.constants, "max_weight_residual": up(1e-9)})
    raise ValueError(flag)
