import numpy as np

from netdual import (
    ActionBox,
    ConfigError,
    DigraphSchedule,
    DualAveragingEngine,
    ReversiblePair,
    StaticTopology,
    UndirectedGraph,
    inv_sqrt_step,
    project,
)


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


def record_primals(monkeypatch) -> list:
    """Collect every (n, p) primal matrix the engine hands out, in order.

    simulate reads the agents' points once per round, before the step, so
    during a run entry t-1 holds the points acted on at round t."""
    seen = []
    primal_matrix = DualAveragingEngine.primal_matrix

    def recording(self):
        X = primal_matrix(self)
        seen.append(X.copy())
        return X

    monkeypatch.setattr(DualAveragingEngine, "primal_matrix", recording)
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
