"""Regret measurement and certified upper bounds.

Network regret compares the realized per-round costs against the best fixed
feasible point chosen in hindsight. The measured decomposition splits the
regret into a step-size term (e1), a primal-disagreement term (e2), a
gradient-mismatch term (e3) and a proximal term, each computable from the
run history; the closed-form bounds replace the measured disagreement with
its worst case from the communication structure.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ActionBox
from .errors import ComparatorError, ConfigError
from .objectives import QuadraticLoss, power_iteration
from .prox import project
from .topology import ContractionConstants


def inv_sqrt_step(s: int) -> float:
    """Default step-size schedule alpha(s) = 1/sqrt(s+1), s >= 0."""
    return 1.0 / math.sqrt(s + 1)


def centralized_reference(
    update_history, box: ActionBox, alpha=None
) -> np.ndarray:
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


@dataclass(frozen=True)
class ComparatorResult:
    y: np.ndarray
    value: float
    grad_residual: float
    iterations: int


def _aggregate_quadratic(objectives):
    p = objectives[0].A.shape[1]
    H = np.zeros((p, p))
    b = np.zeros(p)
    for obj in objectives:
        H += obj.A.T @ obj.A
        b += obj.A.T @ obj.q
    return H, b


def offline_comparator(
    objectives,
    box: ActionBox,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    step: float | None = None,
) -> ComparatorResult:
    """Best fixed feasible point in hindsight for the summed objectives.

    Projected gradient descent with step 1/(sum of curvature constants);
    quadratic losses are aggregated into a single normal-equation form so
    each iteration costs O(p^2). Convergence is declared when the projected
    gradient norm falls below tol; exceeding max_iter raises, with the best
    point found attached to the error.
    """
    if not objectives:
        raise ConfigError("need at least one objective")
    p = box.p
    quadratic = all(isinstance(obj, QuadraticLoss) for obj in objectives)
    if quadratic:
        H, b = _aggregate_quadratic(objectives)
        if H.shape != (p, p):
            raise ConfigError("objective dimension disagrees with the box")
        grad = lambda y: H @ y - b
        if step is None:
            lip = power_iteration(H)
            step = 1.0 / lip if lip > 0 else 1.0
        y = box.clamp(np.linalg.lstsq(H, b, rcond=None)[0])
    else:
        if step is None:
            raise ConfigError("supply a step size for non-quadratic objectives")
        grad = lambda y: sum(obj.gradient(y) for obj in objectives)
        y = box.clamp(np.zeros(p))

    residual = math.inf
    for it in range(1, max_iter + 1):
        y_next = box.clamp(y - step * grad(y))
        residual = float(np.linalg.norm(y - y_next)) / step
        y = y_next
        if residual <= tol:
            value = float(sum(obj.value(y) for obj in objectives))
            return ComparatorResult(y=y, value=value, grad_residual=residual, iterations=it)
    value = float(sum(obj.value(y) for obj in objectives))
    raise ComparatorError(
        f"comparator search did not reach tol={tol} in {max_iter} iterations "
        f"(projected gradient norm {residual:.3e})",
        best=y,
        value=value,
        grad_norm=residual,
    )


def network_regret(objectives, actions, y: np.ndarray) -> tuple:
    """Cumulative regret partial sums against the fixed point y, with the
    per-round costs they are built from.

    Returns (partial, costs, comparator_costs): costs[t-1] = f_t(x(t)),
    comparator_costs[t-1] = f_t(y), and partial[t-1] = sum_{s<=t}
    [f_s(x(s)) - f_s(y)]; the final partial is the full-horizon regret.
    """
    if len(objectives) != len(actions):
        raise ConfigError(
            f"{len(objectives)} objectives but {len(actions)} actions"
        )
    y = np.asarray(y, dtype=float)
    costs = np.array([obj.value(np.asarray(x, float)) for obj, x in zip(objectives, actions)])
    comp = np.array([obj.value(y) for obj in objectives])
    return np.cumsum(costs - comp), costs, comp


@dataclass(frozen=True)
class DecompositionTerms:
    """Cumulative measured terms of the regret split; entry t-1 covers rounds 1..t.

    bound[t-1] = e1 + e2 + e3 + C/alpha(t) evaluated at round t; the final
    entry upper-bounds the full-horizon regret.
    """

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    bound: np.ndarray


def decomposition_terms(
    update_history,
    primal_history,
    objectives,
    box: ActionBox,
    L: float,
    C: float,
    alpha=None,
) -> DecompositionTerms:
    """Measured regret-split terms from a completed run.

    e1 accumulates (alpha(t-1)/2)*||u_t||^2; e2 accumulates L times the sum
    over agents of the distance from each acting point to the single-agent
    reference; e3 accumulates sqrt(n)*D times the gap between the reference
    gradient and the stacked blocks the agents actually used.
    """
    if alpha is None:
        alpha = inv_sqrt_step
    U = np.asarray(update_history, dtype=float)
    X = np.asarray(primal_history, dtype=float)
    T = U.shape[0]
    if X.shape[0] != T or len(objectives) != T:
        raise ConfigError("histories and objectives must cover the same rounds")
    n = X.shape[1]
    D = box.diameter
    refs = centralized_reference(U, box, alpha)
    e1 = np.zeros(T)
    e2 = np.zeros(T)
    e3 = np.zeros(T)
    bound = np.zeros(T)
    c1 = c2 = c3 = 0.0
    for t in range(1, T + 1):
        u = U[t - 1]
        ref = refs[t - 1]
        c1 += 0.5 * alpha(t - 1) * float(u @ u)
        c2 += L * float(np.sum(np.linalg.norm(X[t - 1] - ref[None, :], axis=1)))
        c3 += math.sqrt(n) * D * float(
            np.linalg.norm(objectives[t - 1].gradient(ref) - u)
        )
        e1[t - 1], e2[t - 1], e3[t - 1] = c1, c2, c3
        bound[t - 1] = c1 + c2 + c3 + C / alpha(t)
    return DecompositionTerms(e1=e1, e2=e2, e3=e3, bound=bound)


# ---------------------------------------------------------------------------
# closed-form bounds


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


# ---------------------------------------------------------------------------
# run record


@dataclass
class RegretTrace:
    """Complete per-round record of one simulated run.

    All arrays have length T. Cumulative columns (regret_partial, e1, e2,
    e3, bound_partial) cover rounds 1..t at index t-1. disagreement is the
    post-step sum of dual distances to the mean field (debiased for
    push-sum); disagreement_squared the corresponding sum of squares.
    """

    algorithm: str
    T: int
    n: int
    p: int
    seed: int | None
    costs: np.ndarray
    comparator_costs: np.ndarray
    regret_partial: np.ndarray
    avg_regret: np.ndarray
    disagreement: np.ndarray
    disagreement_squared: np.ndarray
    mean_field_residual: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    bound_partial: np.ndarray
    y_star: np.ndarray
    comparator_value: float
    constants: dict = field(default_factory=dict)
    theory_bound: float = math.inf

    @property
    def regret(self) -> float:
        return float(self.regret_partial[-1]) if self.T else 0.0

    @property
    def average_regret(self) -> float:
        return self.regret / self.T if self.T else 0.0
