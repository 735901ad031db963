"""Dense symmetric linear algebra and scatter-matrix partitioning.

Conventions used throughout the package:

* data matrices are variables-by-observations (rows are variables),
* scatter means ``X @ X.T`` without division by the number of observations,
* Cholesky factors are lower-triangular.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import (
    DimensionMismatch,
    EmptyQuery,
    NotPositiveDefinite,
    QueryIsEverything,
    UnknownVariable,
)

# Relative pivot floor: a Cholesky pivot at or below this fraction of its
# own diagonal entry is treated as numerically indefinite.  Comparing with
# the pivot's own entry, not the largest one, accepts a diagonally dominant
# matrix whose diagonal spans many orders of magnitude.
PIVOT_RTOL = 1e-12


def _chol_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a pivot-indexed failure report.

    ``a`` is one square matrix, or a stack of them along the first axis,
    which is factored block by block.  Only the lower triangle is read.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    if a.ndim == 3:
        try:
            c = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "a matrix of the stack is not positive definite") from exc
    else:
        c, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=0)
        if info > 0:
            raise NotPositiveDefinite(
                f"matrix is not positive definite (pivot {info - 1} failed)",
                pivot_index=info - 1,
            )
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
    floor = PIVOT_RTOL * np.maximum(np.diagonal(a, axis1=-2, axis2=-1), 0.0)
    pivots = np.diagonal(c, axis1=-2, axis2=-1) ** 2
    small = np.argwhere(pivots <= floor)
    if small.size:
        at = tuple(int(i) for i in small[0])
        j = at[-1]
        where = f"pivot {j}" if a.ndim == 2 else f"pivot {j} of matrix {at[0]}"
        raise NotPositiveDefinite(
            f"Cholesky {where} is {pivots[at]:.3e}, at or below the "
            f"{PIVOT_RTOL:g} * diagonal-entry floor {floor[at]:.3e}",
            pivot_index=j,
        )
    return c


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the source matrix."""

    lower: np.ndarray
    dim: int

    def logdet(self) -> float:
        """Log-determinant of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))


class SpdMatrix:
    """A symmetric positive definite matrix, validated on construction.

    The input is symmetrized as ``(a + a.T) / 2`` before factorization, so
    callers may pass matrices with roundoff-level asymmetry.  Construction
    fails with :class:`NotPositiveDefinite` if any Cholesky pivot is at or
    below ``1e-12`` times its own diagonal entry.
    """

    __slots__ = ("values", "chol_lower")

    def __init__(self, values: np.ndarray):
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NotPositiveDefinite("matrix has non-finite entries")
        a = (a + a.T) / 2.0
        self.values = a
        self.chol_lower = _chol_lower(a)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def factor(self) -> CholeskyFactor:
        return CholeskyFactor(lower=self.chol_lower, dim=self.dim)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdMatrix(dim={self.dim})"


def cholesky(m: SpdMatrix | np.ndarray) -> CholeskyFactor:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Only the lower triangle of an array is read: entry points that take a
    caller's matrix, such as :class:`SpdMatrix`, symmetrize it once there.

    Raises
    ------
    NotPositiveDefinite
        If factorization fails; the exception carries the index of the
        first failing pivot.
    """
    if isinstance(m, SpdMatrix):
        return m.factor()
    lower = _chol_lower(m)
    return CholeskyFactor(lower=lower, dim=lower.shape[0])


def chol_solve(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the Cholesky factor of A.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    b = np.asarray(b, dtype=float)
    n = factor.dim
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"right-hand side has leading dimension {b.shape[0]}, expected {n}"
        )
    y = solve_triangular(factor.lower, b, lower=True)
    return solve_triangular(factor.lower, y, lower=True, trans="T")


def chol_inverse(factor: CholeskyFactor) -> np.ndarray:
    """Full inverse from a Cholesky factor (symmetrized)."""
    inv = chol_solve(factor, np.eye(factor.dim))
    return (inv + inv.T) / 2.0


@dataclass
class DataMatrix:
    """Variables-by-observations data with unique variable names."""

    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DimensionMismatch("data must be a 2-d array")
        if len(self.names) != self.values.shape[0]:
            raise DimensionMismatch(
                f"{len(self.names)} names for {self.values.shape[0]} variable rows"
            )
        if len(set(self.names)) != len(self.names):
            raise UnknownVariable("variable names must be unique")

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]


@dataclass
class PartitionedCov:
    """Scatter matrix split into query/other blocks.

    ``s11`` is query-by-query, ``s12`` query-by-other, ``s22`` other-by-other.
    ``n`` is the effective number of observations (reduced by one when the
    scatter was computed from centered data).  Blocks passed here must
    reassemble into a finite, positive semi-definite matrix (blocks may be
    singular when n is small); ``s11`` and ``s22`` are symmetrized.
    ``x2``, the other variables' rows with ``s22 == x2 @ x2.T``, is set only
    by :meth:`from_rows`; the W12 update uses it when n < q.
    """

    s11: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    n: int
    query_names: list[str] = field(default_factory=list)
    other_names: list[str] = field(default_factory=list)
    x2: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        s11 = np.asarray(self.s11, dtype=float)
        s22 = np.asarray(self.s22, dtype=float)
        self.s11 = (s11 + s11.T) / 2.0
        self.s12 = np.asarray(self.s12, dtype=float)
        self.s22 = (s22 + s22.T) / 2.0
        p, q = self.s12.shape
        if self.s11.shape != (p, p) or self.s22.shape != (q, q):
            raise DimensionMismatch(
                f"inconsistent block shapes {self.s11.shape}, "
                f"{self.s12.shape}, {self.s22.shape}"
            )
        if self.n < 0:
            raise DimensionMismatch("effective observation count must be >= 0")
        full = self.assemble()
        if not np.all(np.isfinite(full)):
            raise DimensionMismatch("scatter blocks contain non-finite entries")
        scale = max(float(np.max(np.abs(full))), 1.0)
        w = np.linalg.eigvalsh(full)
        if w[0] < -1e-8 * scale:
            raise NotPositiveDefinite(
                f"reassembled scatter has eigenvalue {w[0]:.3e} < 0"
            )

    @classmethod
    def from_rows(cls, rows: np.ndarray, p: int, n: int,
                  query_names: Sequence[str] = (),
                  other_names: Sequence[str] = ()) -> "PartitionedCov":
        """Blocks of ``rows @ rows.T`` (query rows on top), ``x2 = rows[p:]``.

        The scatter is symmetric and positive semi-definite by construction,
        so nothing is checked: the caller vouches that ``rows`` is finite.
        """
        s = rows @ rows.T
        cov = cls.__new__(cls)
        cov.s11, cov.s12, cov.s22 = s[:p, :p], s[:p, p:], s[p:, p:]
        cov.n = n
        cov.query_names = list(query_names)
        cov.other_names = list(other_names)
        cov.x2 = rows[p:]
        return cov

    @property
    def p(self) -> int:
        return self.s12.shape[0]

    @property
    def q(self) -> int:
        return self.s12.shape[1]

    def assemble(self) -> np.ndarray:
        top = np.hstack([self.s11, self.s12])
        bottom = np.hstack([self.s12.T, self.s22])
        return np.vstack([top, bottom])


def split_query(names: Sequence[str],
                query: Sequence[str]) -> tuple[list[int], list[int]]:
    """Row indices of the query variables, in query order, and of the rest.

    Raises
    ------
    EmptyQuery
        If the query is empty.
    UnknownVariable
        If a query name repeats or is not among ``names``.
    QueryIsEverything
        If no variable is left outside the query.
    """
    if len(query) == 0:
        raise EmptyQuery("query set is empty")
    if len(set(query)) != len(query):
        raise UnknownVariable("query names must be unique")
    index = {name: i for i, name in enumerate(names)}
    missing = [name for name in query if name not in index]
    if missing:
        raise UnknownVariable(f"unknown query variables: {missing}")
    if len(query) == len(names):
        raise QueryIsEverything(
            "query covers every variable; nothing is left to blanket against"
        )
    query_idx = [index[name] for name in query]
    chosen = set(query_idx)
    other_idx = [i for i in range(len(names)) if i not in chosen]
    return query_idx, other_idx


def partition_scatter(
    x: DataMatrix, query: list[str], center: bool = True
) -> PartitionedCov:
    """Scatter of the data with the query variables ordered first.

    Parameters
    ----------
    x : DataMatrix
        Variables-by-observations data, checked here to be finite, the one
        check :meth:`PartitionedCov.from_rows` leaves to its caller.
    query : list of str
        Names of the query variables, in the order their block should use.
    center : bool
        Subtract each variable's mean before forming the scatter.  When set,
        the effective observation count drops by one.

    Returns
    -------
    PartitionedCov
        Blocks of ``X @ X.T`` after reordering (and optional centering),
        with the other variables' rows as ``x2``.
    """
    query_idx, other_idx = split_query(x.names, query)
    if not np.all(np.isfinite(x.values)):
        raise DimensionMismatch("data contain non-finite entries")
    vals = x.values[query_idx + other_idx, :]
    n = x.n_obs
    if center:
        vals = vals - vals.mean(axis=1, keepdims=True)
        n = max(n - 1, 0)
    return PartitionedCov.from_rows(
        vals, len(query_idx), n,
        query_names=[x.names[i] for i in query_idx],
        other_names=[x.names[i] for i in other_idx],
    )
