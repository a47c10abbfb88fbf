"""The two state-free products of a run are formed a block of rounds at a
time: each round's measurement ``center + cov_sqrt @ z`` and its
``b_t = A^T q_t``. A batched matmul of a matrix with a stack of vectors runs
one gemv per row, the call the per-row product makes, so every row must be
the per-row product's bytes; a 2-D gemm would round some rows differently.
The identity is a property of the numpy and BLAS build, so a mismatch names
the build."""

import contextlib
import io

import numpy as np
import pytest
from conftest import measurements_per_round

from netdual import harness


def numpy_build() -> str:
    """numpy's version and the BLAS it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its configuration
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            np.show_config()
        blas = out.getvalue()
    return f"numpy {np.__version__}, BLAS {blas}"


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


def random_covariance(p, rng):
    M = rng.uniform(-1.0, 1.0, (p, p))
    return 0.1 * (M @ M.T) + 0.05 * np.eye(p)


# the map's blocks are BLOCK_VALUES // p rounds: 16384 (p = 1), 819 (p = 20)
# and 81 (p = 200); T = 2001 and 500 are multiples of neither, 1638 of 819
@pytest.mark.parametrize("p, T", [(1, 2001), (20, 2001), (20, 1638), (200, 500)])
def test_measurements_are_the_per_round_map(p, T):
    """The blocked map over the blocked draw, against the oracle that draws
    and maps one round after another, with a non-diagonal covariance."""
    env = harness.sensing_environment_factory(cov=random_covariance(p, np.random.default_rng(p)))(
        p, np.random.default_rng(3)
    )
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = env.measurements(T, rng)
    want = measurements_per_round(env, T, oracle_rng)
    assert_rows_bytes(got, want, f"measurements at p={p}")
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
