import json
import math
import time

import numpy as np
import pytest
from conftest import (
    backward_product,
    check_geometric_decay,
    metropolis_topology,
    random_digraph_schedule,
    svd_spectral_gap,
    validate_b_strong_search,
)

from netdual import (
    ConfigError,
    DigraphSchedule,
    ReversiblePair,
    StaticTopology,
    UndirectedGraph,
    contraction_constants,
    lazy_cycle_pair,
    load_graph,
    spectral_gap,
    split_ring_schedule,
    topology_from_dict,
    validate_b_strong,
    validate_reversible_pair,
)


def reversible_path_pair():
    """Hand-built reversible pair on the path 0-1-2 with nonuniform r.

    Detailed balance was solved by hand: r = (1/2, 1/3, 1/6), and
    r0*M01 = 1/8 = r1*M10, r1*M12 = 1/12 = r2*M21.
    """
    g = UndirectedGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))
    r = np.array([1 / 2, 1 / 3, 1 / 6])
    M = np.array(
        [
            [3 / 4, 1 / 4, 0.0],
            [3 / 8, 3 / 8, 1 / 4],
            [0.0, 1 / 2, 1 / 2],
        ]
    )
    return g, ReversiblePair(r=r, M=M)


class TestUndirectedGraph:
    def test_neighbors_and_normalization(self):
        g = UndirectedGraph(n=3, edges=frozenset({(2, 1), (0, 1)}))
        assert (1, 2) in g.edges  # stored in sorted orientation

    def test_connectivity(self):
        path = UndirectedGraph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
        assert path.is_connected()
        split = UndirectedGraph(n=4, edges=frozenset({(0, 1), (2, 3)}))
        assert not split.is_connected()
        assert UndirectedGraph(n=1, edges=frozenset()).is_connected()

    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            UndirectedGraph(n=2, edges=frozenset({(0, 0)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ConfigError):
            UndirectedGraph(n=2, edges=frozenset({(0, 2)}))


class TestValidateReversiblePair:
    def test_hand_pair_passes(self):
        g, pair = reversible_path_pair()
        report = validate_reversible_pair(g, pair)
        assert report.passed, [c.name for c in report.failures()]

    def test_stock_cycle_passes(self):
        topo = lazy_cycle_pair(5)
        assert validate_reversible_pair(topo.graph, topo.pair).passed

    def test_flags_row_stochastic_with_row_index(self):
        g, pair = reversible_path_pair()
        M = pair.M.copy()
        M[2, 2] += 0.1
        report = validate_reversible_pair(g, ReversiblePair(r=pair.r, M=M))
        failed = {c.name: c for c in report.failures()}
        assert "row_stochastic" in failed
        assert failed["row_stochastic"].detail == "row 2"
        assert failed["row_stochastic"].violation == pytest.approx(0.1)

    def test_flags_broken_symmetry_magnitude(self):
        g, pair = reversible_path_pair()
        M = pair.M.copy()
        # shift mass within row 1 keeping it stochastic; breaks detailed
        # balance on edge (1, 2) by r1 * 1/4 = 1/12
        M[1, 1] += 1 / 4
        M[1, 2] -= 1 / 4
        report = validate_reversible_pair(g, ReversiblePair(r=pair.r, M=M))
        failed = {c.name: c for c in report.failures()}
        assert set(failed) == {"symmetry"}
        assert failed["symmetry"].violation == pytest.approx(1 / 12)

    def test_flags_off_support_mass(self):
        g, pair = reversible_path_pair()
        M = pair.M.copy()
        M[0, 2] += 0.05
        M[0, 0] -= 0.05
        report = validate_reversible_pair(g, ReversiblePair(r=pair.r, M=M))
        names = {c.name for c in report.failures()}
        assert "support" in names

    def test_flags_disconnected_graph(self):
        g = UndirectedGraph(n=2, edges=frozenset())
        pair = ReversiblePair(r=np.array([0.5, 0.5]), M=np.eye(2))
        report = validate_reversible_pair(g, pair)
        assert {c.name for c in report.failures()} == {"connected"}

    def test_rejects_dimension_mismatch(self):
        g = UndirectedGraph(n=2, edges=frozenset({(0, 1)}))
        pair = ReversiblePair(r=np.full(3, 1 / 3), M=np.full((3, 3), 1 / 3))
        with pytest.raises(ConfigError):
            validate_reversible_pair(g, pair)


    def test_pair_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError, match="shape mismatch"):
            ReversiblePair(r=np.full(3, 1 / 3), M=np.eye(2))


# the library's lazy cycles at the sizes runs use, the hand-built and the
# random Metropolis pairs, and the two extremes of mixing
STOCK_PAIRS = {
    **{f"cycle{n}": lazy_cycle_pair(n).pair for n in (3, 4, 5, 10, 20, 50, 128, 200)},
    "path3": reversible_path_pair()[1],
    **{f"metropolis{n}": metropolis_topology(n, np.random.default_rng(n)).pair for n in (6, 30)},
    "single": ReversiblePair(r=np.array([1.0]), M=np.array([[1.0]])),
    "identity3": ReversiblePair(r=np.full(3, 1 / 3), M=np.eye(3)),
    "rank-one4": ReversiblePair(r=np.full(4, 1 / 4), M=np.full((4, 4), 1 / 4)),
}


class TestSpectralGap:
    def test_matches_eigendecomposition_oracle_on_cycle(self):
        pair = lazy_cycle_pair(5).pair
        # uniform r makes the symmetrized matrix equal to M itself, so the
        # singular values are the absolute eigenvalues of symmetric M
        sigma = np.sort(np.abs(np.linalg.eigvalsh(pair.M)))[::-1]
        oracle = 1.0 - sigma[1] ** 2
        assert spectral_gap(pair) == pytest.approx(oracle, abs=1e-12)
        closed_form = 1.0 - (0.5 + 0.5 * math.cos(2 * math.pi / 5)) ** 2
        assert spectral_gap(pair) == pytest.approx(closed_form, abs=1e-12)

    def test_identity_mixes_nothing(self):
        pair = ReversiblePair(r=np.full(3, 1 / 3), M=np.eye(3))
        assert spectral_gap(pair) == 0.0

    def test_rank_one_averaging_mixes_instantly(self):
        n = 4
        pair = ReversiblePair(r=np.full(n, 1 / n), M=np.full((n, n), 1 / n))
        assert spectral_gap(pair) == 1.0

    def test_single_agent(self):
        pair = ReversiblePair(r=np.array([1.0]), M=np.array([[1.0]]))
        assert spectral_gap(pair) == 1.0

    def test_nonuniform_pair_matches_symmetrization_oracle(self):
        _, pair = reversible_path_pair()
        s = np.sqrt(pair.r)
        S = (s[:, None] * pair.M) / s[None, :]
        sigma = np.linalg.svd(S, compute_uv=False)
        assert spectral_gap(pair) == pytest.approx(1.0 - sigma[1] ** 2, abs=1e-12)
        assert 0.0 < spectral_gap(pair) <= 1.0

    @pytest.mark.parametrize("name", sorted(STOCK_PAIRS))
    def test_eigenvalues_give_the_svd_gap_on_every_stock_pair(self, name):
        pair = STOCK_PAIRS[name]
        assert abs(spectral_gap(pair) - svd_spectral_gap(pair)) <= 1e-14

    # spectral_gap trusts its pair; these pairs are stopped by the validation
    # every caller runs first
    def test_rejects_nonreversible_pair(self):
        M = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        pair = ReversiblePair(r=np.full(3, 1 / 3), M=M)
        path = UndirectedGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))
        report = validate_reversible_pair(path, pair)
        assert {c.name for c in report.failures()} == {"symmetry"}

    def test_rejects_bad_weights(self):
        pair = ReversiblePair(r=np.array([0.5, 0.6]), M=np.eye(2))
        edge = UndirectedGraph(n=2, edges=frozenset({(0, 1)}))
        report = validate_reversible_pair(edge, pair)
        assert {c.name for c in report.failures()} == {"r_sums_to_one"}


class TestPushSumMatrix:
    def test_hand_two_node_case(self):
        sched = DigraphSchedule(
            n=2, graphs=(frozenset({(0, 0), (1, 1), (0, 1)}),), period=1
        )
        A = sched.matrix_at(0)
        # node 0 has out-degree 2 (self + to 1), node 1 only itself
        assert np.allclose(A, [[0.5, 0.0], [0.5, 1.0]])

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            edges = {(i, i) for i in range(n)}
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.4:
                        edges.add((i, j))
            sched = DigraphSchedule(n=n, graphs=(frozenset(edges),), period=1)
            A = sched.matrix_at(0)
            assert np.allclose(A.sum(axis=0), 1.0)
            assert np.all(A >= 0)

    def test_missing_self_loop_rejected(self):
        with pytest.raises(ConfigError, match="node 1"):
            DigraphSchedule(n=2, graphs=(frozenset({(0, 0), (0, 1)}),), period=1)


class TestDigraphSchedule:
    def test_periodic_indexing(self):
        g0 = frozenset({(0, 0), (1, 1), (0, 1)})
        g1 = frozenset({(0, 0), (1, 1), (1, 0)})
        sched = DigraphSchedule(n=2, graphs=(g0, g1), period=2)
        assert sched.graph_at(0) == g0
        assert sched.graph_at(3) == g1
        assert sched.graph_at(4) == g0

    def test_periodic_slots_share_a_matrix(self):
        sched = split_ring_schedule(5, 3)
        assert np.array_equal(sched.matrix_at(1), sched.matrix_at(4))

    def test_explicit_list_bounds(self):
        g = frozenset({(0, 0)})
        sched = DigraphSchedule(n=1, graphs=(g, g), period=0)
        assert sched.graph_at(1) == g
        with pytest.raises(ConfigError):
            sched.graph_at(2)
        with pytest.raises(ConfigError, match="negative time"):
            sched.graph_at(-1)

    def test_rejects_period_count_mismatch(self):
        with pytest.raises(ConfigError):
            DigraphSchedule(n=1, graphs=(frozenset({(0, 0)}),), period=2)


class TestBStrongValidation:
    def test_split_ring_needs_exactly_its_phase_count(self):
        assert validate_b_strong(split_ring_schedule(5, 3)) == 3
        assert validate_b_strong(split_ring_schedule(6, 2)) == 2

    def test_complete_graph_is_one_strong(self):
        n = 4
        edges = frozenset((i, j) for i in range(n) for j in range(n))
        sched = DigraphSchedule(n=n, graphs=(edges,), period=1)
        assert validate_b_strong(sched) == 1

    def test_never_connected_returns_none(self):
        loops = frozenset({(0, 0), (1, 1)})
        sched = DigraphSchedule(n=2, graphs=(loops,), period=1)
        assert validate_b_strong(sched) is None

    def test_cap_limits_search(self):
        sched = split_ring_schedule(5, 3)
        assert validate_b_strong(sched, cap=2) is None

    def test_explicit_schedule_windows(self):
        ring = split_ring_schedule(5, 3)
        graphs = tuple(ring.graph_at(t) for t in range(6))
        sched = DigraphSchedule(n=5, graphs=graphs, period=0)
        assert validate_b_strong(sched) == 3

    def test_agrees_with_the_search_past_one_period(self):
        rng = np.random.default_rng(19)
        answers = set()
        for _ in range(60):
            n, period = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            sched = random_digraph_schedule(n, period, rng, edge_prob=rng.choice([0.1, 0.2, 0.4]))
            length = int(rng.integers(1, 13))
            explicit = DigraphSchedule(
                n=n, graphs=tuple(sched.graph_at(t) for t in range(length)), period=0
            )
            for schedule in (sched, explicit):
                for cap in (None, 2):
                    got = validate_b_strong(schedule, cap)
                    assert got == validate_b_strong_search(schedule, cap)
                    answers.add(got)
        # the cases reach a window past one graph and a schedule never connected
        assert None in answers and max(b for b in answers if b is not None) >= 3

    def test_never_connected_schedule_stops_after_one_period(self):
        # two disjoint 50-rings, each dealt over the same 5 phases: a whole
        # period unions to both rings, so no longer window is tried
        ring = split_ring_schedule(50, 5)
        graphs = tuple(
            g | {(i + 50, j + 50) for i, j in g} for g in ring.graphs
        )
        sched = DigraphSchedule(n=100, graphs=graphs, period=5)
        start = time.perf_counter()
        assert validate_b_strong(sched) is None
        assert time.perf_counter() - start < 0.05


class TestContractionConstants:
    def test_general_five_node_window_three(self):
        cc = contraction_constants(5, 3)
        assert cc.beta == 4.0
        assert cc.gamma == pytest.approx(5.0**-15, rel=1e-12)
        assert cc.log_gamma == pytest.approx(-15 * math.log(5.0), rel=1e-12)
        # 1 - theta = 1 - (1-gamma)^(1/3) ~ gamma/3
        assert cc.one_minus_theta == pytest.approx(cc.gamma / 3.0, rel=1e-9)
        assert cc.theta == pytest.approx(1.0, abs=1e-9)

    def test_regular_sharpening(self):
        cc = contraction_constants(5, 1, regular=True)
        assert cc.beta == pytest.approx(2.0 * math.sqrt(2.0))
        assert cc.gamma == 1.0
        assert cc.theta == pytest.approx(1.0 - 1.0 / 500.0, rel=1e-15)

    def test_singleton_mixes_instantly(self):
        cc = contraction_constants(1, 1)
        assert cc.theta == 0.0
        assert cc.gamma == 1.0
        assert cc.log_gamma == 0.0

    def test_log_fields_survive_underflow(self):
        cc = contraction_constants(50, 10)
        assert cc.gamma == 0.0  # not representable
        assert cc.theta == 1.0
        assert cc.log_gamma == pytest.approx(-500.0 * math.log(50.0))
        assert cc.log_one_minus_theta == pytest.approx(
            cc.log_gamma - math.log(10.0)
        )
        assert math.isfinite(cc.log_one_minus_theta)

    def test_caller_certified_singular_value(self):
        cc = contraction_constants(5, 2, regular=True, sigma2_sup=0.7)
        assert cc.beta == pytest.approx(math.sqrt(2.0))
        assert cc.theta == 0.7
        assert cc.gamma == 1.0
        # a sup below 1/2 certifies theta = 1/2, where kappa is least; a sup
        # of 0 does not mix in one round, since each step injects after it mixes
        for sup in (0.3, 0.0):
            cc = contraction_constants(5, 2, regular=True, sigma2_sup=sup)
            assert (cc.beta, cc.theta, cc.gamma) == (math.sqrt(2.0), 0.5, 1.0)
            assert (cc.one_minus_theta, cc.log_one_minus_theta) == (0.5, math.log(0.5))

    def test_singular_value_requires_regular(self):
        with pytest.raises(ConfigError):
            contraction_constants(5, 2, sigma2_sup=0.3)
        with pytest.raises(ConfigError):
            contraction_constants(5, 2, regular=True, sigma2_sup=1.0)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ConfigError):
            contraction_constants(0, 1)
        with pytest.raises(ConfigError):
            contraction_constants(2, 0)


class TestBackwardProducts:
    def test_empty_product_is_identity(self):
        sched = split_ring_schedule(5, 3)
        assert np.array_equal(backward_product(sched, 4, 5), np.eye(5))

    def test_two_step_product_order(self):
        sched = split_ring_schedule(5, 3)
        expected = sched.matrix_at(1) @ sched.matrix_at(0)
        assert np.allclose(backward_product(sched, 1, 0), expected)

    def test_rejects_inverted_range(self):
        sched = split_ring_schedule(5, 3)
        with pytest.raises(ConfigError):
            backward_product(sched, 1, 4)


class TestGeometricDecay:
    def test_split_ring_within_general_envelope(self):
        sched = split_ring_schedule(5, 3)
        cc = contraction_constants(5, 3)
        report = check_geometric_decay(sched, cc, horizon=15)
        assert report.max_ratio <= 1.0
        assert report.horizon == 15

    def test_instant_averaging_has_tiny_ratios(self):
        n = 3
        edges = frozenset((i, j) for i in range(n) for j in range(n))
        sched = DigraphSchedule(n=n, graphs=(edges,), period=1)
        cc = contraction_constants(n, 1)
        report = check_geometric_decay(sched, cc, horizon=6)
        # products hit the rank-one limit after one step
        assert report.max_ratio <= 0.5


class TestStockTopologies:
    def test_lazy_cycle_structure(self):
        topo = lazy_cycle_pair(5)
        assert np.allclose(topo.pair.r, 0.2)
        assert np.allclose(np.diag(topo.pair.M), 0.5)
        assert topo.pair.M[0, 1] == 0.25
        assert topo.pair.M[0, 2] == 0.0
        assert validate_reversible_pair(topo.graph, topo.pair).passed
        with pytest.raises(ConfigError):
            lazy_cycle_pair(2)

    def test_split_ring_structure(self):
        sched = split_ring_schedule(5, 3)
        assert sched.period == 3
        assert validate_b_strong(sched) == 3
        union = set()
        for t in range(3):
            g = sched.graph_at(t)
            for i in range(5):
                assert (i, i) in g
            union |= g
        ring = {(i, (i + 1) % 5) for i in range(5)} | {(i, i) for i in range(5)}
        assert union == ring
        with pytest.raises(ConfigError):
            split_ring_schedule(3, 4)


class TestGraphFiles:
    def test_static_round_trip(self, tmp_path):
        _, pair = reversible_path_pair()
        spec = {
            "n": 3,
            "mode": "static",
            "edges": [[0, 1], [1, 2]],
            "r": pair.r.tolist(),
            "M": pair.M.tolist(),
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(spec))
        topo = load_graph(str(path))
        assert isinstance(topo, StaticTopology)
        assert np.allclose(topo.pair.M, pair.M)
        assert validate_reversible_pair(topo.graph, topo.pair).passed

    def test_schedule_dict(self):
        spec = {
            "n": 2,
            "mode": "schedule",
            "period": 2,
            "graphs": [
                [[0, 0], [1, 1], [0, 1]],
                [[0, 0], [1, 1], [1, 0]],
            ],
        }
        sched = topology_from_dict(spec)
        assert isinstance(sched, DigraphSchedule)
        assert validate_b_strong(sched) == 2

    def test_schedule_period_defaults_to_length(self):
        spec = {
            "n": 1,
            "mode": "schedule",
            "graphs": [[[0, 0]], [[0, 0]]],
        }
        assert topology_from_dict(spec).period == 2

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            topology_from_dict({"n": 2, "mode": "mesh"})

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            topology_from_dict({"mode": "static"})
        with pytest.raises(ConfigError):
            topology_from_dict({"n": 2, "mode": "static", "edges": []})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_graph("/nonexistent/graph.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_graph(str(path))
