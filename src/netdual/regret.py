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
from .objectives import QuadraticLoss
from .topology import ContractionConstants


def step_sizes(T: int, alpha=None) -> np.ndarray:
    """alpha(0..T) as one vector: the first T + 1 of the step values alpha,
    or with alpha None the default rule alpha(s) = 1/sqrt(s+1)."""
    if alpha is None:
        return 1.0 / np.sqrt(np.arange(1, T + 2))
    return np.array(alpha[: T + 1], dtype=float)


MAX_NEWTON_PASSES = 500  # after the start; a solve usually takes 1-4 in all


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
) -> ComparatorResult:
    """Best fixed feasible point in hindsight for the summed losses.

    The T rounds of ``losses`` share A, so their sum is the normal form
    0.5 y^T H y - b^T y + const with H = T A^T A and b = A^T sum_t q_t,
    minimised over the box by projected Newton (Bertsekas 1982) from a
    clamped Newton solve, until the norm of the gradient less what the
    bounds hold is at most tol. ``iterations`` counts Newton passes, the
    start's included; more than MAX_NEWTON_PASSES after the start, or an arc
    with no decrease, raises.

    The solve reads run-level statistics that every prefix of a run shares
    (``QuadraticLoss.prefix``): H scales the stack's Gram ``losses.gram``,
    b is A^T times one gemv 1^T Q, and the per-round costs at y come from
    the expansion centred on the first round,
    f_t(y) = 0.5 ||q_t - q_1||^2 + 0.5 ||e||^2 - (q_t - q_1) . e with
    e = A y - q_1: the stack's ``spread`` column and one gemv Q e, with no
    (T, m) residual. Each cost rounds at about eps ||q_t|| ||e||, where the
    uncentred 0.5 ||q_t||^2 - q_t . A y + 0.5 ||A y||^2 rounds at
    eps ||q_t||^2.
    """
    Q = losses.q
    if Q.ndim != 2 or Q.shape[0] == 0:
        raise ConfigError("need a stack of at least one measurement")
    if losses.A.shape[1] != box.p:
        raise ConfigError("objective dimension disagrees with the box")
    T = Q.shape[0]
    H = T * losses.gram
    b = losses.A.T @ (np.ones(T) @ Q)
    diag = np.where(np.diag(H) > 0, np.diag(H), 1.0)  # a zero column of A never moves g
    # keeps a singular H_FF factorable; the start's gradient is off by ~mu ||y||,
    # which at 1e-12 missed tol=1e-8 on 12 of sweep20-prefix's 16 prefixes
    mu = 1e-13 * diag.max()

    def newton(F, g_F):
        # the part of g_F a singular H_FF cannot reach takes a diagonal step
        H_FF = H[np.ix_(F, F)]
        # mu goes on H_FF's diagonal in place and comes off after the solve,
        # so no p x p eye, scaled eye or sum is formed beside the Gram the
        # losses keep
        ridge = H_FF.reshape(-1)[:: len(F) + 1]
        d_FF = ridge.copy()
        ridge += mu
        x = np.linalg.solve(H_FF, g_F)
        ridge[:] = d_FF
        return x + (g_F - H_FF @ x) / diag[F]

    def held(y, g, eps):  # within eps of a bound that -g pushes against
        return ((y <= box.lo + eps) & (g > 0)) | ((y >= box.hi - eps) & (g < 0))

    y = box.clamp(newton(np.arange(box.p), b))
    for passes in range(1, MAX_NEWTON_PASSES + 2):
        g = H @ y - b
        residual = float(np.linalg.norm(np.where(held(y, g, 0.0), 0.0, g)))
        if residual <= tol or passes > MAX_NEWTON_PASSES:
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
            break  # no decrease left: a point that is not finite, or roundoff
        y = z
    e = losses.A @ y - Q[0]
    costs = Q @ e  # q_t . e
    # (q_t - q_1) . e; the rows of one gemv can round apart, so a cost that
    # is 0.5 ||e||^2 alone, at a point that fits every q_t, can read below 0
    costs -= costs[0]
    np.subtract(losses.spread, costs, out=costs)
    costs += 0.5 * float(e @ e)
    np.maximum(costs, 0.0, out=costs)
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
#
# One argument bounds both engines: the network enters only through a
# contraction factor kappa, which caps the worst-case disagreement of the
# duals. Each family gives log kappa, so push-sum's n^(nB) stays finite;
# the two evaluators take it, and an overflow gives inf.


def circulation_log_kappa(n: int, r_min: float, lam: float) -> float:
    """log kappa of a reversible pair: kappa = r_min^(-3/2) / delta with
    delta = 1 - sqrt(1 - lam). A single agent coincides with its own mean
    field, so n = 1 gives -inf."""
    if n == 1:
        return -math.inf
    delta = lam / (1.0 + math.sqrt(max(0.0, 1.0 - lam)))  # 1 - sqrt(1-lam), stable for small lam
    if delta <= 0.0:
        raise ConfigError("spectral gap must be positive for a finite bound")
    return -1.5 * math.log(r_min) - math.log(delta)


def pushsum_log_kappa(n: int, constants: ContractionConstants) -> float:
    """log kappa of a push-sum schedule: kappa = 2 beta sqrt(n) / (gamma
    theta (1 - theta)). A single agent mixes at once: -inf."""
    if n == 1:
        return -math.inf
    return (
        math.log(2.0 * constants.beta) + 0.5 * math.log(n)
        - constants.log_gamma
        - math.log1p(-constants.one_minus_theta)
        - constants.log_one_minus_theta
    )


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _exp(log_val: float) -> float:
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


def disagreement_bound(n: int, L: float, log_kappa: float) -> float:
    """n L^2 kappa^2: the worst-case sum over agents of the squared
    (debiased) dual distance to the mean field, valid at every round."""
    return _exp(math.log(n) + 2.0 * (_log(L) + log_kappa))


def regret_bound(
    T: int, n: int, L: float, G: float, D: float, C: float, log_kappa: float
) -> float:
    """A-priori regret bound for the default step rule alpha(s) = 1/sqrt(s+1):
    (n L^2 + 2 n L (L + sqrt(n) G D) kappa) sqrt(T) + C sqrt(T + 1)."""
    if T == 0:  # C, also where the sqrt(T) coefficient is inf (inf * 0 is NaN)
        return C
    disagree = _exp(
        math.log(2.0 * n) + _log(L) + _log(L + math.sqrt(n) * G * D) + log_kappa
    )
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
