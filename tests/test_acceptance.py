"""Acceptance battery for the package.

Each test exercises one advertised behavior end to end at its stated
tolerance and prints a single summary line ("[criterion NN] ...: PASS/FAIL")
before asserting, so a full run doubles as a checklist.
"""

import math
import time
from dataclasses import replace

import numpy as np
from conftest import random_digraph_schedule, unrolled_dual_check

from netdual import (
    ActionBox,
    BlockMap,
    DualAveragingEngine,
    ReversiblePair,
    RunConfig,
    StaticTopology,
    UndirectedGraph,
    check_geometric_decay,
    contraction_constants,
    lazy_cycle_pair,
    offline_comparator,
    project,
    run,
    simulate,
    spectral_gap,
    split_ring_schedule,
    sweep,
    write_trace_csv,
)
from netdual.harness import sensing_environment_factory
from netdual.objectives import QuadraticLoss


def stock_config(algorithm, T, seed=0):
    topology = lazy_cycle_pair(5) if algorithm == "oda-c" else split_ring_schedule(5, 3)
    return RunConfig(
        algorithm=algorithm,
        topology=topology,
        box=ActionBox.uniform(-10.0, 10.0, 5),
        T=T,
        seed=seed,
    )


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_static_mean_field_tracks_gradient_sums():
    start = time.perf_counter()
    history = simulate(stock_config("oda-c", T=1000))
    elapsed = time.perf_counter() - start
    worst = float(np.max(history.mean_field_residual))
    ok = worst <= 1e-8 and elapsed < 1.0
    report(
        1,
        "static engine keeps the weighted dual mean equal to the gradient sum",
        ok,
        f"max residual {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_02_pushsum_conserves_weight_and_mean_field():
    history = simulate(stock_config("oda-ps", T=1000))
    worst_w = float(np.max(history.weight_residual))
    worst_mf = float(np.max(history.mean_field_residual))
    ok = worst_w <= 1e-9 and worst_mf <= 1e-8
    report(
        2,
        "push-sum conserves total weight and the dual mean every round",
        ok,
        f"max weight residual {worst_w:.3g}, max mean-field residual {worst_mf:.3g}",
    )


def test_criterion_03_recursive_duals_match_product_formula():
    rng = np.random.default_rng(303)
    # push-sum over a random schedule (injection n * u), and a static path
    # with a non-uniform reversible pair (injection u / r_owner)
    path = StaticTopology(
        graph=UndirectedGraph(n=3, edges=frozenset({(0, 1), (1, 2)})),
        pair=ReversiblePair(
            r=np.array([1 / 2, 1 / 3, 1 / 6]),
            M=np.array([[0.75, 0.25, 0.0], [0.375, 0.375, 0.25], [0.0, 0.5, 0.5]]),
        ),
    )
    gaps = []
    for network in (random_digraph_schedule(3, 4, rng), path):
        engine = DualAveragingEngine(
            network=network, blocks=BlockMap.scalar(3), box=ActionBox.uniform(-5, 5, 3)
        )
        history = []
        for t in range(1, 21):
            u = rng.uniform(-3.0, 3.0, 3)
            engine.step(u, 1.0 / math.sqrt(t))
            history.append(u)
        gaps.append(unrolled_dual_check(engine, history))
    ok = max(gaps) <= 1e-10
    report(
        3,
        "recursive duals (push-sum and static) equal the unrolled matrix-product form",
        ok,
        "max entry gap " + ", ".join(f"{g:.3g}" for g in gaps) + " over 20 rounds",
    )


def test_criterion_04_disagreement_stays_within_certified_bounds():
    details = []
    ok = True
    for algorithm in ("oda-c", "oda-ps"):
        trace = run(stock_config(algorithm, T=200))
        bound = trace.constants["disagreement_bound"]
        worst = float(np.max(trace.disagreement_squared))
        ok = ok and bool(np.all(trace.disagreement_squared <= bound * (1 + 1e-12)))
        details.append(f"{algorithm}: max {worst:.3g} vs bound {bound:.3g}")
    report(
        4,
        "measured dual disagreement never exceeds its closed-form bound",
        ok,
        "; ".join(details),
    )


def test_criterion_05_regret_decomposition_and_theory_bounds_dominate():
    ok = True
    details = []
    for algorithm in ("oda-c", "oda-ps"):
        for T in (100, 1000):
            trace = run(stock_config(algorithm, T=T))
            within_partial = bool(
                np.all(trace.regret_partial <= trace.bound_partial + 1e-9)
            )
            within_theory = trace.regret <= trace.theory_bound
            ok = ok and within_partial and within_theory
            details.append(
                f"{algorithm} T={T}: regret {trace.regret:.4g} "
                f"<= split {trace.bound_partial[-1]:.4g} <= theory {trace.theory_bound:.4g}"
            )
    report(
        5,
        "measured regret obeys the per-round split and the a-priori bounds",
        ok,
        "; ".join(details),
    )


def test_criterion_06_average_regret_vanishes_on_horizon_sweeps():
    start = time.perf_counter()
    ok = True
    details = []
    for algorithm in ("oda-c", "oda-ps"):
        rows = sweep(stock_config(algorithm, T=1), [10, 100, 1000])
        averages = [r.avg_regret for r in rows]
        decreasing = averages[0] > averages[1] > averages[2]
        ratio = averages[2] / averages[0]
        ok = ok and decreasing and ratio <= 0.15
        details.append(f"{algorithm}: avg regret ratio {ratio:.3g}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(
        6,
        "per-round average regret decays across horizons 10, 100, 1000",
        ok,
        "; ".join(details) + f", {elapsed:.2f}s",
    )


def test_criterion_07_projection_matches_numeric_minimizer_and_is_lipschitz():
    rng = np.random.default_rng(707)
    worst_gap = 0.0
    worst_lip = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        lo = rng.uniform(-3.0, 0.0, p)
        hi = lo + rng.uniform(0.5, 4.0, p)
        box = ActionBox(lo=lo, hi=hi)
        z = rng.uniform(-20.0, 20.0, p)
        alpha = float(rng.uniform(0.05, 2.0))

        x_closed = project(z, alpha, box)
        x = box.clamp(np.zeros(p))
        step = alpha / 2.0
        for _ in range(200):
            x = box.clamp(x - step * (z + x / alpha))
        worst_gap = max(worst_gap, float(np.max(np.abs(x_closed - x))))

        z2 = rng.uniform(-20.0, 20.0, p)
        lhs = float(np.linalg.norm(project(z2, alpha, box) - x_closed))
        rhs = alpha * float(np.linalg.norm(z2 - z))
        worst_lip = max(worst_lip, lhs - rhs)
    ok = worst_gap <= 1e-6 and worst_lip <= 1e-12
    report(
        7,
        "closed-form projection equals the numeric minimizer and is dual-Lipschitz",
        ok,
        f"max argument gap {worst_gap:.3g}, max Lipschitz violation {worst_lip:.3g}",
    )


def test_criterion_08_spectral_gap_matches_eigendecomposition():
    pair = lazy_cycle_pair(5).pair
    got = spectral_gap(pair)

    S = np.diag(np.sqrt(pair.r)) @ pair.M @ np.diag(1.0 / np.sqrt(pair.r))
    eigs = np.sort(np.abs(np.linalg.eigvalsh(S)))
    oracle = 1.0 - float(eigs[-2]) ** 2
    closed = 1.0 - (0.5 + 0.5 * math.cos(2.0 * math.pi / 5.0)) ** 2

    n = 4
    identity_gap = spectral_gap(ReversiblePair(r=np.full(n, 1 / n), M=np.eye(n)))
    rank_one_gap = spectral_gap(
        ReversiblePair(r=np.full(n, 1 / n), M=np.full((n, n), 1 / n))
    )
    ok = (
        abs(got - oracle) <= 1e-6
        and abs(got - closed) <= 1e-9
        and identity_gap == 0.0
        and rank_one_gap == 1.0
    )
    report(
        8,
        "spectral gap agrees with the eigendecomposition and its edge cases",
        ok,
        f"cycle gap {got:.6f} vs oracle {oracle:.6f}; identity {identity_gap}, "
        f"uniform averaging {rank_one_gap}",
    )


def test_criterion_09_comparator_matches_grid_search():
    rng = np.random.default_rng(909)
    grid = np.linspace(-0.6, 0.6, 1201)
    worst = 0.0
    for _ in range(50):
        objs = [
            QuadraticLoss(
                A=1.5 * np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 2)),
                q=rng.uniform(-0.8, 0.8, 2),
            )
            for _ in range(3)
        ]
        box = ActionBox(lo=np.array([-0.6, -0.6]), hi=np.array([0.6, 0.6]))
        # the three losses sum to one loss with the measurements stacked
        stacked = QuadraticLoss(
            A=np.vstack([o.A for o in objs]), q=np.concatenate([o.q for o in objs])[None, :]
        )
        res = offline_comparator(stacked, box, tol=1e-10)

        H = sum(o.A.T @ o.A for o in objs)
        b = sum(o.A.T @ o.q for o in objs)
        vals = (
            0.5 * H[0, 0] * grid[:, None] ** 2
            + H[0, 1] * grid[:, None] * grid[None, :]
            + 0.5 * H[1, 1] * grid[None, :] ** 2
            - b[0] * grid[:, None]
            - b[1] * grid[None, :]
        )
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        worst = max(worst, float(np.max(np.abs(res.y - [grid[i], grid[j]]))))
    ok = worst <= 2e-3
    report(
        9,
        "hindsight comparator agrees with grid search on random instances",
        ok,
        f"max argument gap {worst:.3g} over 50 instances",
    )


def test_criterion_10_backward_products_decay_geometrically():
    schedule = split_ring_schedule(5, 3)
    constants = contraction_constants(5, 3)
    decay = check_geometric_decay(schedule, constants, horizon=60)
    ok = decay.max_ratio <= 1.0
    report(
        10,
        "backward matrix products approach their limit within the envelope",
        ok,
        f"max ratio {decay.max_ratio:.3g} over gaps up to {decay.horizon}",
    )


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    ok = True
    details = []
    for algorithm in ("oda-c", "oda-ps"):
        cfg = stock_config(algorithm, T=200, seed=17)
        first = tmp_path / f"{algorithm}-a.csv"
        second = tmp_path / f"{algorithm}-b.csv"
        write_trace_csv(run(cfg), str(first))
        write_trace_csv(run(replace(cfg, seed=17)), str(second))
        same = first.read_bytes() == second.read_bytes()
        ok = ok and same
        details.append(f"{algorithm}: {'identical' if same else 'DIFFER'}")
    report(
        11,
        "repeated executions of one config produce byte-identical traces",
        ok,
        "; ".join(details),
    )
