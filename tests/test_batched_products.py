"""The two state-free products of a run are formed a stack of rounds at a
time: each round's measurement ``center + cov_sqrt @ z``, a block of rounds
a call, and its ``b_t = A^T q_t``, the whole run in one call. A batched
matmul of a matrix with a stack of vectors runs one gemv per row, the call
the per-row product makes, so every row must be the per-row product's
bytes; a 2-D gemm would round some rows differently. The sparse mix rests
on the same identity: each row of ``PaddedRows @ Z`` is one gemv over the
row's K neighbours, read through a strided window of Z or a gathered copy,
and must be the gathered per-row product's bytes. The identity is a
property of the numpy and BLAS build, so a mismatch names the build."""

import numpy as np
import pytest
from conftest import measurements_per_round, numpy_build

from netdual import harness, lazy_cycle_pair, split_ring_schedule
from netdual.engine import PaddedRows


def assert_rows_bytes(got, rows, what):
    for t, want in enumerate(rows):
        assert got[t].tobytes() == want.tobytes(), (
            f"{what}: row {t} differs from the per-row product on {numpy_build()}"
        )


# (rows of Q, m, p): square and non-square A, m != p both ways
SHAPES = [(40, m, p) for p in (1, 3, 20, 50, 200) for m in (p, p + 7)] + [(30, 50, 20)]


@pytest.mark.parametrize("T, m, p", SHAPES)
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_batched_row_times_matrix_is_the_per_row_product(T, m, p, offset):
    rng = np.random.default_rng(7 * p + m)
    Q = rng.normal(size=(T, m)) * 10.0
    A = rng.uniform(-1.0, 1.0, (m, p))
    Qs = Q[offset:]
    got = np.matmul(Qs[:, None, :], A)[:, 0, :]
    assert got.shape == (T - offset, p)
    assert_rows_bytes(got, [q @ A for q in Qs], f"Q[{offset}:] @ A, A {m}x{p}")


@pytest.mark.parametrize("T, m, p", SHAPES)
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_batched_matrix_times_rows_is_the_per_row_product(T, m, p, offset):
    rng = np.random.default_rng(11 * p + m)
    C = rng.uniform(-1.0, 1.0, (m, p))
    N = rng.normal(size=(T, p))
    Ns = N[offset:]
    got = np.matmul(C, Ns[:, :, None])[:, :, 0]
    assert got.shape == (T - offset, m)
    assert_rows_bytes(got, [C @ z for z in Ns], f"C @ N[{offset}:], C {m}x{p}")


# simulate forms every b_t before round 1, in one call into a (T, 1, p) view
# of its (T, p) updates: the workloads' stacks, and one non-square A
WHOLE_RUN_SHAPES = [(4000, 20, 20), (2000, 50, 50), (500, 200, 200), (300, 30, 20)]


@pytest.mark.parametrize("T, m, p", WHOLE_RUN_SHAPES)
def test_whole_run_product_into_a_row_view_is_the_per_row_product(T, m, p):
    rng = np.random.default_rng([T, m, p])
    Q = rng.normal(size=(T, m)) * 10.0
    A = rng.uniform(-1.0, 1.0, (m, p))
    out = np.full((T, p), np.nan)
    view = out[:, None, :]
    got = np.matmul(Q[:, None, :], A, out=view)
    assert got is view and np.shares_memory(got, out)
    assert_rows_bytes(out, [q @ A for q in Q], f"Q @ A into a (T, 1, p) view, A {m}x{p}")


def random_covariance(p, rng):
    M = rng.uniform(-1.0, 1.0, (p, p))
    return 0.1 * (M @ M.T) + 0.05 * np.eye(p)


# the map's blocks are BLOCK_VALUES // p rounds: 24576 (p = 1), 1228 (p = 20)
# and 122 (p = 200); T = 2001 and 500 are multiples of neither, 2456 of 1228
@pytest.mark.parametrize(
    "p, T",
    [(1, 2001), (20, 2001), (20, 2 * (harness.BLOCK_VALUES // 20)), (200, 500), (3, 0), (50, 7)],
)
def test_measurements_are_the_per_round_map(p, T):
    """The blocked map over the one-call draw, against the oracle that draws
    and maps one round after another, with a non-diagonal covariance."""
    env = harness.sensing_environment_factory(cov=random_covariance(p, np.random.default_rng(p)))(
        p, np.random.default_rng(3)
    )
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = env.measurements(T, rng)
    want = measurements_per_round(env, T, oracle_rng)
    assert_rows_bytes(got, want, f"measurements at p={p}")
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def path_matrix(n, rng):
    """A path graph's random row-stochastic weights: two nonzeros in the end
    rows, which are padded, and three in every interior row."""
    A = np.zeros((n, n))
    for i in range(n):
        cols = [j for j in (i - 1, i, i + 1) if 0 <= j < n]
        A[i, cols] = rng.uniform(0.1, 1.0, len(cols))
    return A / A.sum(axis=1, keepdims=True)


def mixed_rows_matrix(rng, n=60):
    """Wrap-around rows, padded rows and two bands that read different
    windows (row i from column i - 1, then from column i), K = 3."""
    A = np.zeros((n, n))
    for i in range(n):
        if i < 30 or i >= n - 2:
            cols = [(i - 1) % n, i, (i + 1) % n] if i < 30 else [i, (i + 1) % n, (i + 2) % n]
        elif i < 40:
            cols = [i, i + 1]
        else:
            cols = [i, i + 1, i + 2]
        A[i, cols] = rng.uniform(0.1, 1.0, len(cols))
    return A


def random_cycle(n, rng):
    """The n-cycle's sparsity with random weights, which round."""
    return (lazy_cycle_pair(n).pair.M != 0) * rng.uniform(0.1, 1.0, (n, n))


MIX_RNG = np.random.default_rng(17)
MIX_MATRICES = {
    "cycle40": lazy_cycle_pair(40).pair.M,
    "cycle200": lazy_cycle_pair(200).pair.M,
    "random-cycle200": random_cycle(200, MIX_RNG),
    "path50": path_matrix(50, MIX_RNG),
    "mixed60": mixed_rows_matrix(MIX_RNG),
    **{
        f"split-ring200-phase{k}": split_ring_schedule(200, 5).matrix_at(k)
        for k in range(5)
    },
}


@pytest.mark.parametrize("p", [1, 3, 200])
@pytest.mark.parametrize("name", sorted(MIX_MATRICES))
def test_padded_rows_product_is_the_gathered_per_row_product(name, p):
    """Band rows read their neighbourhoods through a strided window of Z,
    the other rows through a gathered copy; either way row i must be the
    bytes of the gathered product W[i] @ Z[nbr[i]]."""
    A = MIX_MATRICES[name]
    n = len(A)
    P = PaddedRows.of(A)
    rng = np.random.default_rng([n, p])
    Z = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    got = P @ Z
    assert got.shape == (n, p)
    rows = [(P.W[i] @ Z[P.nbr[i]])[0] for i in range(n)]
    assert_rows_bytes(got, rows, f"{name} @ Z, p={p}")


def test_band_rows_read_the_window():
    """The cycle's interior and the mixed matrix's two bands are windowed,
    the wrap-around and padded rows gathered."""

    def windowed(A):
        P = PaddedRows.of(A)
        return [(rows.start, rows.stop) for rows, src in P.runs if type(src) is slice]

    assert windowed(MIX_MATRICES["cycle200"]) == [(1, 199)]
    assert windowed(MIX_MATRICES["path50"]) == [(1, 49)]
    assert windowed(MIX_MATRICES["mixed60"]) == [(1, 30), (40, 58)]
    assert windowed(np.eye(7)) == [(0, 7)]


@pytest.mark.parametrize("name", ["cycle200", "path50", "mixed60"])
def test_a_strided_operand_is_read_by_its_values(name):
    """The window is a view of a C-contiguous buffer: a column-strided or
    Fortran-ordered operand must give the bytes of its contiguous copy."""
    A = MIX_MATRICES[name]
    n = len(A)
    P = PaddedRows.of(A)
    wide = np.random.default_rng(n).normal(size=(n, 14))
    for Z in (wide[:, ::2], np.asfortranarray(wide)):
        assert_rows_bytes(P @ Z, P @ np.ascontiguousarray(Z), f"{name} @ strided Z")


# the dense operators the engine multiplies by (GATHER_DENSITY * K > n) and
# the sparse ones as dense matrices
DENSE_MATRICES = {
    **{f"cycle{n}": lazy_cycle_pair(n).pair.M for n in (5, 20, 50)},
    **{f"split-ring50-phase{k}": split_ring_schedule(50, 5).matrix_at(k) for k in range(5)},
    **MIX_MATRICES,
}


def slot_buffer(shape, slot=2):
    """One slot of a NaN-filled (4, *shape) block buffer, as simulate steps into."""
    return np.full((4, *shape), np.nan)[slot]


def operands(n, p):
    rng = np.random.default_rng([n, p, 1])
    Z = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    return Z, rng.uniform(0.5, 2.0, n)


@pytest.mark.parametrize("p", [1, 3, 200])
@pytest.mark.parametrize("name", sorted(DENSE_MATRICES))
def test_dense_product_into_a_slot_is_the_allocated_product(name, p):
    """np.matmul(A, Z, out=slot) runs the gemm (and, for the weights, the
    gemv) that A @ Z runs: the slot must hold the allocated product's bytes."""
    A = DENSE_MATRICES[name]
    Z, w = operands(len(A), p)
    for X, what in ((Z, f"dense {name} @ Z, p={p}"), (w, f"dense {name} @ w")):
        out = slot_buffer(X.shape)
        got = np.matmul(A, X, out=out)
        assert got is out
        assert_rows_bytes(out, A @ X, what)


@pytest.mark.parametrize("p", [1, 3, 200])
@pytest.mark.parametrize("name", sorted(MIX_MATRICES))
def test_padded_rows_product_into_a_slot_is_the_allocated_product(name, p):
    """PaddedRows.matmul writes its windowed, gathered and padded rows, and
    the weight channel's gather, into the slot it is given: the bytes of the
    product that allocates its result."""
    P = PaddedRows.of(MIX_MATRICES[name])
    Z, w = operands(len(P.nbr), p)
    for X, what in ((Z, f"{name} @ Z into a slot, p={p}"), (w, f"{name} @ w into a slot")):
        out = slot_buffer(X.shape)
        got = P.matmul(X, out)
        assert np.shares_memory(got, out) and got.shape == out.shape
        assert_rows_bytes(out, P @ X, what)
