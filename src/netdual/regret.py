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
from .objectives import QuadraticLoss, curvature
from .topology import ContractionConstants


def step_sizes(T: int, alpha=None) -> np.ndarray:
    """alpha(0..T) as one vector, alpha the rule; the default rule is
    alpha(s) = 1/sqrt(s+1), formed without a call per entry."""
    if alpha is None:
        return 1.0 / np.sqrt(np.arange(1, T + 2))
    return np.array([alpha(s) for s in range(T + 1)], dtype=float)


@dataclass(frozen=True)
class ComparatorResult:
    y: np.ndarray
    value: float
    grad_residual: float
    iterations: int
    costs: np.ndarray  # f_t(y), one per round; value is their sum


def offline_comparator(
    losses: QuadraticLoss,
    box: ActionBox,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> ComparatorResult:
    """Best fixed feasible point in hindsight for the summed losses.

    The T rounds of ``losses`` share A, so their sum is the normal form
    0.5 y^T H y - b^T y + const with H = T A^T A and b = A^T sum_t q_t,
    minimised over the box by projected Newton (Bertsekas 1982) from a
    clamped Newton solve, until the norm of the gradient less what the
    bounds hold is at most tol. ``iterations`` counts Newton passes, the
    start's included; more than max_iter after the start, or an arc with no
    decrease, raises.
    """
    Q = losses.q
    if Q.ndim != 2 or Q.shape[0] == 0:
        raise ConfigError("need a stack of at least one measurement")
    if losses.A.shape[1] != box.p:
        raise ConfigError("objective dimension disagrees with the box")
    H = Q.shape[0] * (losses.A.T @ losses.A)
    b = losses.A.T @ Q.sum(axis=0)
    diag = np.where(np.diag(H) > 0, np.diag(H), 1.0)  # a zero column of A never moves g
    # keeps a singular H_FF factorable; the start's gradient is off by ~mu ||y||,
    # which at 1e-12 missed tol=1e-8 on 12 of sweep20-prefix's 16 prefixes
    mu = 1e-13 * diag.max()

    def newton(F, g_F):
        # the part of g_F a singular H_FF cannot reach takes a diagonal step
        H_FF = H[np.ix_(F, F)]
        x = np.linalg.solve(H_FF + mu * np.eye(len(F)), g_F)
        return x + (g_F - H_FF @ x) / diag[F]

    def held(y, g, eps):  # within eps of a bound that -g pushes against
        return ((y <= box.lo + eps) & (g > 0)) | ((y >= box.hi - eps) & (g < 0))

    y = box.clamp(newton(np.arange(box.p), b))
    for passes in range(1, max_iter + 2):
        g = H @ y - b
        residual = float(np.linalg.norm(np.where(held(y, g, 0.0), 0.0, g)))
        if residual <= tol or passes > max_iter:
            break
        d = -g / diag
        # a scaled gradient step on the held coordinates, Newton on the rest
        free = ~held(y, g, min(1e-3, float(np.linalg.norm(y - box.clamp(y + d)))))
        d[free] = -newton(np.flatnonzero(free), g[free])
        for _ in range(64):  # Armijo (sigma 1e-4) on the exact decrease along the arc
            z = box.clamp(y + d)
            s = z - y
            slope = float(g @ s)
            if -(slope + 0.5 * float(s @ (H @ s))) >= -1e-4 * slope > 0:
                break
            d *= 0.5
        else:
            break  # no decrease left at roundoff scale
        y = z
    costs = losses.value(y)
    value = float(np.sum(costs))
    if not residual <= tol:  # a NaN residual never converges
        raise ComparatorError(
            f"comparator search did not reach tol={tol} (Newton passes {passes}, "
            f"projected gradient norm {residual:.3e})",
            best=y, value=value, grad_norm=residual,
        )
    return ComparatorResult(
        y=y, value=value, grad_residual=residual, iterations=passes, costs=costs
    )


def network_regret(costs, comparator_costs) -> np.ndarray:
    """Cumulative regret partial sums against a fixed point y from the
    per-round costs: costs[t-1] = f_t(x(t)) and comparator_costs[t-1] =
    f_t(y) give partial[t-1] = sum_{s<=t} [f_s(x(s)) - f_s(y)]; the final
    partial is the full-horizon regret.
    """
    costs, comp = (np.asarray(a, dtype=float) for a in (costs, comparator_costs))
    if costs.shape != comp.shape or costs.ndim != 1:
        raise ConfigError(
            f"need one comparator cost per round: {costs.shape} against {comp.shape}"
        )
    return np.cumsum(costs - comp)


@dataclass(frozen=True)
class RoundColumns:
    """The part of a run's measurement that no measured prefix changes.

    Entry t-1 of each column covers round t: costs[t-1] = f_t(x(t)),
    q_radius[t-1] the largest ||q_s|| over rounds 1..t, and the cumulative
    e1 and e3 over rounds 1..t. alphas holds alpha(0..T). A prefix of T'
    rounds reads the first T' entries (alpha(0..T')).
    """

    G: float  # lambda_max(A^T A), shared by every round's loss
    q_radius: np.ndarray
    costs: np.ndarray
    alphas: np.ndarray
    e1: np.ndarray
    e3: np.ndarray


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


def round_columns(
    losses: QuadraticLoss, actions, update_history, refs, box: ActionBox,
    n: int, steps,
) -> RoundColumns:
    """The prefix-free columns of a completed run, one pass over its rounds.

    steps holds the step sizes alpha(0..T) (``step_sizes``). Round t's
    single-agent reference refs[t-1] is the projection of the gradient sum
    through round t-1. e1 accumulates (alpha(t-1)/2)*||u_t||^2; e3
    accumulates sqrt(n)*D times the gap between the reference gradient and
    the stacked blocks the agents actually used.
    """
    X, U, R = (np.asarray(a, dtype=float) for a in (actions, update_history, refs))
    T = U.shape[0]
    alphas = np.asarray(steps, dtype=float)
    if (
        X.shape != U.shape or R.shape != U.shape or losses.q.shape[:-1] != (T,)
        or alphas.shape != (T + 1,)
    ):
        raise ConfigError("histories and losses must cover the same rounds")
    e1 = np.cumsum(0.5 * alphas[:T] * np.add.reduce(U * U, axis=1))
    mismatch = np.linalg.norm(losses.gradient(R) - U, axis=1)
    return RoundColumns(
        G=curvature(losses.A),
        q_radius=np.maximum.accumulate(np.linalg.norm(losses.q, axis=1)),
        costs=losses.value(X),
        alphas=alphas,
        e1=e1,
        e3=np.cumsum(math.sqrt(n) * box.diameter * mismatch),
    )


def decomposition_terms(
    columns: RoundColumns, ref_gaps, L: float, C: float
) -> DecompositionTerms:
    """Measured regret-split terms over the first len(ref_gaps) rounds.

    ref_gaps[t-1] is the sum over the agents of the distance from each
    acting point to round t's reference; e2 accumulates L times it, with
    the L of this prefix. e1 and e3 are the prefix of the run's columns.
    """
    gaps = np.asarray(ref_gaps, dtype=float)
    T = gaps.shape[0]
    if gaps.ndim != 1 or T > columns.e1.shape[0]:
        raise ConfigError(
            f"{gaps.shape} reference gaps for a run of {columns.e1.shape[0]} rounds"
        )
    e1, e3 = columns.e1[:T].copy(), columns.e3[:T].copy()
    e2 = np.cumsum(L * gaps)
    return DecompositionTerms(
        e1=e1, e2=e2, e3=e3, bound=e1 + e2 + e3 + C / columns.alphas[1 : T + 1]
    )


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
    comparator_iterations: int = 0  # Newton passes of the hindsight solve
    comparator_residual: float = 0.0  # its projected gradient norm
    constants: dict = field(default_factory=dict)
    theory_bound: float = math.inf

    @property
    def regret(self) -> float:
        return float(self.regret_partial[-1]) if self.T else 0.0

    @property
    def average_regret(self) -> float:
        return self.regret / self.T if self.T else 0.0
