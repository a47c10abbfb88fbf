"""Communication structures: the two mixing operators of the engine.

Static side: an undirected connected graph with a reversible weight pair
(r, M), meaning M is row-stochastic, r is a positive probability vector,
and r_i M_ij = r_j M_ji; the pair's mixing rate enters the disagreement
bound through the spectral gap. Time-varying side: a schedule of directed graphs with
self-loops, turned into column-stochastic broadcast matrices A(t) weighted
by out-degrees, with geometric-contraction constants (beta, theta, gamma)
describing how backward products A(t:s) approach a rank-one limit.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import load_json, parse_numbers
from .errors import ConfigError


# ---------------------------------------------------------------------------
# static graphs


def _count(value, name: str) -> int:
    """A whole number (2, 2.0 and numpy integers alike; not a bool), as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)) or value % 1:
        raise ConfigError(f"graph {name} must be a whole number, got {value!r}")
    return int(value)


def _agent_count(value) -> int:
    n = _count(value, "n")
    if n < 1:
        raise ConfigError(f"graph n must be at least 1, got {n}")
    return n


def _arcs(value, n: int, name: str) -> frozenset:
    """The arcs ``value`` lists: [i, j] pairs of whole numbers in 0..n-1, as
    a set of int pairs. Every arc is checked before the set merges equal
    ones, so a bool arc is refused beside its int twin."""
    try:
        arcs = [(i, j) for i, j in value]
    except (TypeError, ValueError):  # not a list, not pairs
        raise ConfigError(
            f"graph {name} must be a list of [i, j] pairs of whole numbers, got {value!r}"
        ) from None
    if all(type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n for i, j in arcs):
        return frozenset(arcs)  # ints, not bools, in range
    return frozenset(_arc(i, j, n) for i, j in arcs)


def _arc(i, j, n: int) -> tuple:
    i, j = _count(i, "node index"), _count(j, "node index")
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigError(f"edge ({i}, {j}) out of range for n={n}")
    return i, j


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    edges: frozenset

    def __post_init__(self):
        n = _agent_count(self.n)
        norm = set()
        for i, j in _arcs(self.edges, n, "edges"):
            if i == j:
                raise ConfigError(f"self-loop ({i}, {j}) not allowed in an undirected graph")
            norm.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    def is_connected(self) -> bool:
        return _strongly_connected(self.edges | {(b, a) for a, b in self.edges}, self.n)


@dataclass(frozen=True)
class ReversiblePair:
    """Row-stochastic M reversible with respect to the positive vector r."""

    r: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        r = parse_numbers(self.r, "graph r", (None,))
        M = parse_numbers(self.M, "graph M", (None, None))
        if M.shape != (r.shape[0], r.shape[0]):
            raise ConfigError(f"shape mismatch: r is {r.shape}, M is {M.shape}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "M", M)

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @property
    def r_min(self) -> float:
        return float(np.min(self.r))


@dataclass(frozen=True)
class StaticTopology:
    graph: UndirectedGraph
    pair: ReversiblePair

    def __post_init__(self):
        if not (isinstance(self.graph, UndirectedGraph) and isinstance(self.pair, ReversiblePair)):
            raise ConfigError(
                "a static topology is an UndirectedGraph and a ReversiblePair, got "
                f"{type(self.graph).__name__} and {type(self.pair).__name__}"
            )
        if self.pair.n != self.graph.n:
            raise ConfigError(f"pair has n={self.pair.n} but graph has n={self.graph.n}")

    @property
    def n(self) -> int:
        return self.pair.n


@dataclass(frozen=True)
class CheckResult:
    name: str
    violation: float
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class GraphReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


PAIR_TOL = 1e-9  # a numeric violation validate_reversible_pair passes as roundoff


def validate_reversible_pair(g: UndirectedGraph, pair: ReversiblePair) -> GraphReport:
    """Check the (r, M) conditions against the graph; violations are reported, not raised.

    Conditions: graph connectivity, r positive and summing to one, M
    nonnegative and row-stochastic, M supported on edges plus the diagonal,
    and the reversibility symmetry r_i M_ij = r_j M_ji.
    """
    if pair.n != g.n:
        raise ConfigError(f"pair has n={pair.n} but graph has n={g.n}")
    r, M = pair.r, pair.M
    n = g.n

    connected = g.is_connected()
    r_pos = float(max(0.0, -np.min(r)))
    r_sum = float(abs(np.sum(r) - 1.0))
    nonneg = float(max(0.0, -np.min(M)))
    row_gaps = np.abs(M.sum(axis=1) - 1.0)
    row_sums = float(np.max(row_gaps))
    worst_row = int(np.argmax(row_gaps))

    allowed = np.eye(n, dtype=bool)
    for a, b in g.edges:
        allowed[a, b] = allowed[b, a] = True
    off = np.abs(np.where(allowed, 0.0, M))
    support = float(np.max(off))
    support_at = np.unravel_index(int(np.argmax(off)), off.shape)

    sym_gaps = np.abs(r[:, None] * M - (r[:, None] * M).T)
    symmetry = float(np.max(sym_gaps))
    sym_at = np.unravel_index(int(np.argmax(sym_gaps)), sym_gaps.shape)

    def check(name, violation, ok, detail=""):
        return CheckResult(name, violation, ok, "" if ok else detail)

    checks = (
        check("connected", 0.0 if connected else 1.0, connected),
        check("r_positive", r_pos, bool(np.all(r > 0)), f"r[{int(np.argmin(r))}]"),
        check("r_sums_to_one", r_sum, r_sum <= PAIR_TOL),
        check(
            "m_nonnegative",
            nonneg,
            nonneg <= PAIR_TOL,
            "entry (%d, %d)" % np.unravel_index(int(np.argmin(M)), M.shape),
        ),
        check("row_stochastic", row_sums, row_sums <= PAIR_TOL, f"row {worst_row}"),
        check("support", support, support <= PAIR_TOL, "entry (%d, %d)" % support_at),
        check("symmetry", symmetry, symmetry <= PAIR_TOL, "pair (%d, %d)" % sym_at),
    )
    return GraphReport(checks)


def spectral_gap(pair: ReversiblePair) -> float:
    """Consensus rate of the pair: 1 minus the squared second singular value
    of diag(sqrt(r)) M diag(1/sqrt(r)).

    Equals the infimum of (||f||_r^2 - ||Mf||_r^2) / ||f||_r^2 over vectors f
    with <r, f> = 0, where ||f||_r^2 = sum_i r_i f_i^2. A single agent mixes
    instantly: gap 1. The pair must already have passed
    validate_reversible_pair; nothing is checked here.
    """
    r, M = pair.r, pair.M
    if pair.n == 1:
        return 1.0
    s = np.sqrt(r)
    S = (s[:, None] * M) / s[None, :]
    # S is symmetric for a reversible pair: its singular values are |eigenvalues|
    sing = np.sort(np.abs(np.linalg.eigvalsh(S)))
    lam = 1.0 - float(sing[-2]) ** 2
    return float(min(1.0, max(0.0, lam)))


# ---------------------------------------------------------------------------
# time-varying digraph schedules


@dataclass(frozen=True)
class DigraphSchedule:
    """Directed edge sets over time; edge (i, j) means i sends to j.

    ``period`` >= 1 cycles through ``graphs``; period 0 means ``graphs`` is an
    explicit finite list indexed directly by t. Every graph must carry all n
    self-loops. The connectivity window is found by validate_b_strong.
    """

    n: int
    graphs: tuple
    period: int = 1

    def __post_init__(self):
        if not isinstance(self.graphs, (list, tuple)):
            raise ConfigError('schedule "graphs" must be a list of arc lists')
        n, period = _agent_count(self.n), _count(self.period, "period")
        if period < 0:
            raise ConfigError("period must be >= 0")
        if period >= 1 and len(self.graphs) != period:
            raise ConfigError(f"period {period} but {len(self.graphs)} graphs supplied")
        if not self.graphs:
            raise ConfigError("schedule needs at least one graph")
        graphs = tuple(_arcs(E, n, "arcs") for E in self.graphs)
        # a graph of m arcs that lacks a self-loop lacks one at a node in
        # 0..m, so a huge n from a file costs no more than its arcs
        loops = {(i, i) for i in range(min(n, 1 + max(map(len, graphs))))}
        for k, E in enumerate(graphs):
            if not loops <= E:
                node = min(i for i, _ in loops - E)
                raise ConfigError(f"node {node} is missing its self-loop in graph {k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "graphs", graphs)

    def graph_at(self, t: int) -> frozenset:
        if t < 0:
            raise ConfigError(f"negative time {t}")
        if self.period >= 1:
            return self.graphs[t % self.period]
        if t >= len(self.graphs):
            raise ConfigError(f"explicit schedule has {len(self.graphs)} graphs; t={t}")
        return self.graphs[t]

    def matrix_at(self, t: int) -> np.ndarray:
        """Column-stochastic broadcast matrix for the graph active at time t.

        Entry (i, j) is 1/out_degree(j) when j sends to i (self-loops
        included, and counted in the out-degree); the schedule checked the
        self-loops. Built per call: the engine forms a periodic schedule's
        ``period`` matrices once, and an explicit schedule's one per round.
        """
        src, dst = _arc_ends(self.graph_at(t))
        A = np.zeros((self.n, self.n))
        A[dst, src] = 1.0 / np.bincount(src, minlength=self.n)[src]
        return A


def _arc_ends(E: frozenset) -> tuple:
    """The senders and the receivers of a graph's arcs, as two index arrays
    in one arc order."""
    ends = np.fromiter(chain.from_iterable(E), dtype=np.intp, count=2 * len(E))
    return ends[0::2], ends[1::2]


def _strongly_connected(edges: set, n: int) -> bool:
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for a, b in edges:
        if a != b:
            fwd[a].append(b)
            bwd[b].append(a)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    return reach(fwd) and reach(bwd)


def validate_b_strong(schedule: DigraphSchedule, cap: int | None = None) -> int | None:
    """Smallest window length B such that every B consecutive edge sets union
    to a strongly connected digraph; None if no B up to the cap works.

    Windows are at most as long as the graph list: on a periodic schedule a
    window of one period already holds every graph, so a longer window adds
    no edge. Periodic schedules are checked over every start offset in one
    period; explicit schedules over every start that fits.
    """
    n, K = schedule.n, len(schedule.graphs)
    if cap is None:
        cap = 10 * n
    for B in range(1, min(cap, K) + 1):
        starts = range(K) if schedule.period >= 1 else range(K - B + 1)
        if all(
            _strongly_connected(set().union(*(schedule.graph_at(s + j) for j in range(B))), n)
            for s in starts
        ):
            return B
    return None


# ---------------------------------------------------------------------------
# contraction constants


@dataclass(frozen=True)
class ContractionConstants:
    """Geometric-contraction description of backward products A(t:s).

    |[A(t:s)]_ij - phi_i(t)| <= beta * theta^(t-s), and the accumulated weight
    vector stays >= gamma entrywise. For large n^(nB) the plain fields
    degenerate (gamma underflows to 0.0, theta rounds to 1.0); log_gamma and
    log_one_minus_theta stay finite and are what the bound evaluators use.
    """

    beta: float
    theta: float
    gamma: float
    log_gamma: float
    one_minus_theta: float
    log_one_minus_theta: float


def contraction_constants(
    n: int,
    B: int,
    regular: bool = False,
    sigma2_sup: float | None = None,
) -> ContractionConstants:
    """Mixing constants for an n-node schedule with connectivity window B.

    General case: beta = 4, theta = (1 - n^(-nB))^(1/B), gamma = n^(-nB).
    Regular schedules sharpen to beta = 2*sqrt(2), theta = (1 - 1/(4n^3))^(1/B),
    gamma = 1; a caller-certified sup of second singular values sharpens
    further to beta = sqrt(2), theta = max(sigma2_sup, 1/2): a sup certifies
    every theta at or above it, and kappa ~ 1/(theta (1 - theta)) is least
    at 1/2 (a sup of 0 still leaves one round's injections between the
    duals). All arithmetic is done in log space so huge n^(nB) never
    overflows.
    """
    if n < 1 or B < 1:
        raise ConfigError("need n >= 1 and B >= 1")
    if sigma2_sup is not None:
        if not regular:
            raise ConfigError("a singular-value sup is only accepted for regular schedules")
        if not (0.0 <= sigma2_sup < 1.0):
            raise ConfigError(f"sigma2_sup must lie in [0, 1), got {sigma2_sup}")
        theta = max(float(sigma2_sup), 0.5)
        return ContractionConstants(
            math.sqrt(2), theta, 1.0, 0.0, 1.0 - theta, math.log(1.0 - theta)
        )

    if regular:
        eps = 1.0 / (4.0 * n**3)
        one_minus_theta = -math.expm1(math.log1p(-eps) / B)
        return ContractionConstants(
            beta=2.0 * math.sqrt(2),
            theta=1.0 - one_minus_theta,
            gamma=1.0,
            log_gamma=0.0,
            one_minus_theta=one_minus_theta,
            log_one_minus_theta=math.log(one_minus_theta),
        )

    if n == 1:
        # singleton mixes instantly: gamma = 1, theta = 0
        return ContractionConstants(4.0, 0.0, 1.0, 0.0, 1.0, 0.0)

    log_gamma = -n * B * math.log(n)
    gamma = math.exp(log_gamma) if log_gamma > -745.0 else 0.0
    if gamma > 0.0:
        one_minus_theta = -math.expm1(math.log1p(-gamma) / B)
        log_one_minus_theta = math.log(one_minus_theta)
    else:
        # 1 - theta ~ gamma / B once gamma is below representable range
        log_one_minus_theta = log_gamma - math.log(B)
        one_minus_theta = 0.0
    return ContractionConstants(
        beta=4.0,
        theta=1.0 - one_minus_theta,
        gamma=gamma,
        log_gamma=log_gamma,
        one_minus_theta=one_minus_theta,
        log_one_minus_theta=log_one_minus_theta,
    )


# ---------------------------------------------------------------------------
# stock topologies and file loading


def lazy_cycle_pair(n: int = 5) -> StaticTopology:
    """n-node undirected cycle with holding weight 1/2, neighbor weights 1/4, uniform r."""
    n = _count(n, "n")
    if n < 3:
        raise ConfigError("cycle needs n >= 3")
    edges = frozenset((i, (i + 1) % n) for i in range(n))
    g = UndirectedGraph(n=n, edges=edges)
    eye = np.eye(n)
    M = 0.5 * eye + 0.25 * (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1))
    return StaticTopology(graph=g, pair=ReversiblePair(r=np.full(n, 1.0 / n), M=M))


def split_ring_schedule(n: int = 5, phases: int = 3) -> DigraphSchedule:
    """Directed n-ring whose edges are dealt out over ``phases`` consecutive graphs.

    Every graph keeps all self-loops. No single phase (or union of fewer than
    ``phases`` consecutive phases) is strongly connected, while any window of
    ``phases`` consecutive graphs unions to the full ring, so the smallest
    valid connectivity window is exactly ``phases``.
    """
    n, phases = _count(n, "n"), _count(phases, "phases")
    if not (1 <= phases <= n):
        raise ConfigError("need 1 <= phases <= n")
    ring = [(i, (i + 1) % n) for i in range(n)]
    loops = {(i, i) for i in range(n)}
    chunk = math.ceil(n / phases)
    graphs = tuple(loops.union(ring[k * chunk : (k + 1) * chunk]) for k in range(phases))
    return DigraphSchedule(n=n, graphs=graphs, period=phases)


def topology_from_dict(spec: dict):
    """Build a StaticTopology or DigraphSchedule from the graph-file dict schema."""
    if not isinstance(spec, dict):
        raise ConfigError("graph spec must be a JSON object")
    try:
        if spec["mode"] == "static":
            return StaticTopology(
                graph=UndirectedGraph(n=spec["n"], edges=spec["edges"]),
                pair=ReversiblePair(r=spec["r"], M=spec["M"]),
            )
        if spec["mode"] == "schedule":
            graphs = spec["graphs"]
            # one period runs through the listed graphs by default; a value
            # that is not a list is the schedule's to refuse
            period = spec.get("period", len(graphs) if isinstance(graphs, list) else 1)
            return DigraphSchedule(n=spec["n"], graphs=graphs, period=period)
    except KeyError as e:
        raise ConfigError(f"graph spec missing required key {e}") from None
    raise ConfigError(f'unknown graph mode "{spec["mode"]}"')


def load_graph(path: str):
    """Load a graph description file (JSON, 0-based indices)."""
    return topology_from_dict(load_json(path, "graph"))
