import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmb.errors import (
    DimensionMismatch,
    EmptyQuery,
    NotPositiveDefinite,
    QueryIsEverything,
    UnknownVariable,
)
from bmb.linalg import (
    DataMatrix,
    PartitionedCov,
    SpdMatrix,
    chol_inverse,
    chol_solve,
    _chol_lower,
    cholesky,
    partition_scatter,
)
from helpers import make_spd, rel_err


def test_cholesky_round_trip(gen):
    a = make_spd(gen, 6)
    f = cholesky(a)
    assert np.allclose(f.lower @ f.lower.T, a)
    assert np.allclose(f.lower, np.tril(f.lower))


def test_cholesky_logdet_matches_slogdet(gen):
    a = make_spd(gen, 5)
    sign, ld = np.linalg.slogdet(a)
    assert sign > 0
    assert cholesky(a).logdet() == pytest.approx(ld, rel=1e-12)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot_index == 1


def test_cholesky_rejects_tiny_pivot():
    # Positive definite in exact arithmetic but the second pivot sits far
    # below the relative floor.
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(NotPositiveDefinite):
        cholesky(a)


def test_cholesky_accepts_one_huge_diagonal_entry(gen):
    # Diagonally dominant, so well conditioned row by row, but its diagonal
    # spans 13 orders of magnitude: a reciprocal shrinkage scale of 7.4e13
    # on the first sweep makes such a matrix.  The pivot floor is relative
    # to each pivot's own diagonal entry, not to the largest one.
    a = make_spd(gen, 5)
    a[2, 2] += 7.4e13
    lower = cholesky(a).lower
    assert np.allclose(lower @ lower.T, a, rtol=1e-12, atol=1e-12)


def test_chol_lower_factors_a_stack_block_by_block(gen):
    stack = np.stack([make_spd(gen, 3) for _ in range(4)])
    stack[1, 0, 0] += 7.4e13
    lower = _chol_lower(stack)
    for a, ell in zip(stack, lower):
        assert np.allclose(ell, _chol_lower(a), rtol=1e-12, atol=1e-12)
    stack[3] = [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-14, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NotPositiveDefinite) as exc:
        _chol_lower(stack)
    assert exc.value.pivot_index == 1
    stack[3, 1, 1] = 0.5
    with pytest.raises(NotPositiveDefinite):
        _chol_lower(stack)
    with pytest.raises(DimensionMismatch):
        _chol_lower(np.ones((2, 3, 4)))


def test_spd_matrix_symmetrizes_roundoff(gen):
    a = make_spd(gen, 4)
    a[0, 1] += 1e-14
    m = SpdMatrix(a)
    assert np.array_equal(m.values, m.values.T)
    assert m.dim == 4


def test_spd_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        SpdMatrix(np.ones((2, 3)))
    bad = np.eye(2)
    bad[0, 0] = np.nan
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix(bad)


def test_chol_solve_vector_and_matrix(gen):
    a = make_spd(gen, 5)
    f = cholesky(a)
    b = gen.standard_normal(5)
    assert np.allclose(a @ chol_solve(f, b), b)
    bm = gen.standard_normal((5, 3))
    assert np.allclose(a @ chol_solve(f, bm), bm)
    with pytest.raises(DimensionMismatch):
        chol_solve(f, gen.standard_normal(4))


def test_chol_inverse(gen):
    a = make_spd(gen, 4)
    inv = chol_inverse(cholesky(a))
    assert np.allclose(a @ inv, np.eye(4), atol=1e-10)
    assert np.array_equal(inv, inv.T)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**31 - 1))
def test_chol_solve_residual_property(dim, seed):
    g = np.random.default_rng(seed)
    a = make_spd(g, dim)
    b = g.standard_normal(dim)
    x = chol_solve(cholesky(a), b)
    assert rel_err(a @ x, b) < 1e-9


def test_data_matrix_validation():
    with pytest.raises(DimensionMismatch):
        DataMatrix(values=np.zeros(3), names=["a", "b", "c"])
    with pytest.raises(DimensionMismatch):
        DataMatrix(values=np.zeros((2, 4)), names=["a"])
    with pytest.raises(UnknownVariable):
        DataMatrix(values=np.zeros((2, 4)), names=["a", "a"])
    dm = DataMatrix(values=np.zeros((2, 4)), names=["a", "b"])
    assert dm.n_obs == 4


def _toy_data(gen, n_vars=5, n_obs=40):
    names = [f"x{i}" for i in range(n_vars)]
    return DataMatrix(values=gen.standard_normal((n_vars, n_obs)), names=names)


def test_partition_scatter_blocks(gen):
    dm = _toy_data(gen)
    cov = partition_scatter(dm, ["x2", "x0"], center=False)
    vals = dm.values
    order = [2, 0, 1, 3, 4]
    s = vals[order] @ vals[order].T
    assert np.allclose(cov.assemble(), s)
    assert cov.p == 2 and cov.q == 3
    assert cov.n == 40
    assert cov.query_names == ["x2", "x0"]
    assert cov.other_names == ["x1", "x3", "x4"]
    assert np.array_equal(cov.x2, vals[order][2:])


def test_partition_scatter_centering_drops_one_observation(gen):
    dm = _toy_data(gen)
    cov = partition_scatter(dm, ["x0"], center=True)
    assert cov.n == 39
    centered = dm.values - dm.values.mean(axis=1, keepdims=True)
    assert np.allclose(cov.s11, centered[:1] @ centered[:1].T)
    assert np.allclose(cov.x2, centered[1:])
    assert np.allclose(cov.x2 @ cov.x2.T, cov.s22)


def test_partition_scatter_errors(gen):
    dm = _toy_data(gen)
    with pytest.raises(EmptyQuery):
        partition_scatter(dm, [])
    with pytest.raises(UnknownVariable):
        partition_scatter(dm, ["x0", "x0"])
    with pytest.raises(UnknownVariable):
        partition_scatter(dm, ["nope"])
    with pytest.raises(QueryIsEverything):
        partition_scatter(dm, [f"x{i}" for i in range(5)])


def test_partitioned_cov_validation(gen):
    with pytest.raises(DimensionMismatch):
        PartitionedCov(s11=np.eye(2), s12=np.zeros((2, 3)), s22=np.eye(4), n=5)
    with pytest.raises(TypeError):
        # Only PartitionedCov.from_rows sets x2.
        PartitionedCov(s11=np.eye(2), s12=np.zeros((2, 3)), s22=np.eye(3), n=5,
                       x2=np.ones((2, 5)))
    with pytest.raises(NotPositiveDefinite):
        # An assembled matrix with a clearly negative eigenvalue.
        PartitionedCov(
            s11=np.eye(1), s12=np.array([[5.0]]), s22=np.eye(1), n=3
        )
    cov = PartitionedCov(
        s11=np.eye(2), s12=np.zeros((2, 2)), s22=np.eye(2), n=0
    )
    assert cov.p == cov.q == 2


def test_partitioned_cov_cannot_take_rows_that_disagree_with_s22(gen):
    # x2 used to be accepted next to any s22, and the low-rank W12 draw
    # then read x2 and ignored s22.  Now only from_rows sets it.
    rows = gen.standard_normal((42, 5))
    s = rows @ rows.T
    with pytest.raises(TypeError):
        PartitionedCov(s[:2, :2], s[:2, 2:], s[2:, 2:], 5,
                       x2=10.0 * gen.standard_normal((40, 5)))
    assert PartitionedCov(s[:2, :2], s[:2, 2:], s[2:, 2:], 5).x2 is None
    cov = PartitionedCov.from_rows(rows, 2, 5)
    assert np.allclose(cov.x2 @ cov.x2.T, cov.s22, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("center", [False, True])
def test_from_rows_returns_the_slices_of_the_scatter(gen, center):
    dm = _toy_data(gen, n_vars=7, n_obs=30)
    order = [4, 1, 0, 2, 3, 5, 6]
    rows = dm.values[order]
    if center:
        rows = rows - rows.mean(axis=1, keepdims=True)
    s = rows @ rows.T
    cov = PartitionedCov.from_rows(rows, 2, 29, ["x4", "x1"],
                                   ["x0", "x2", "x3", "x5", "x6"])
    assert np.array_equal(cov.s11, s[:2, :2])
    assert np.array_equal(cov.s12, s[:2, 2:])
    assert np.array_equal(cov.s22, s[2:, 2:])
    assert np.array_equal(cov.x2, rows[2:])
    assert cov.n == 29 and cov.p == 2 and cov.q == 5
    assert cov.query_names == ["x4", "x1"]
    # The scatter is exactly symmetric, so symmetrizing it changes nothing.
    assert np.array_equal(s, (s + s.T) / 2.0)
    # partition_scatter builds the same blocks through from_rows.
    via = partition_scatter(dm, ["x4", "x1"], center=center)
    for name in ("s11", "s12", "s22", "x2"):
        assert np.array_equal(getattr(via, name), getattr(cov, name))


def test_partition_scatter_rejects_non_finite_data(gen):
    dm = _toy_data(gen)
    dm.values[3, 7] = np.inf
    with pytest.raises(DimensionMismatch):
        partition_scatter(dm, ["x0"])
