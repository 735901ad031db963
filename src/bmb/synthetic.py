"""Synthetic hub-graph benchmark: generators, thresholding, and scoring.

Ground truth precision matrices come from a beta-binomial propensity model:
each node draws a propensity, each potential edge fires with probability
proportional to the product of its endpoints' propensities, and magnitudes
are uniform on a fixed band with random signs.  A diagonal shift keeps the
matrix positive definite.  The resulting graphs are sparse and
hub-dominated: a few high-propensity nodes collect most edges.

Recovery is judged sign-aware: an inferred edge only counts as correct when
the true weight is nonzero and the signs agree.  A wrong-sign inference is
double-penalized (it is neither a true positive for precision nor for
recall).

The generators import the sampler's linear algebra and random streams when
called, so thresholding and scoring (all that ``bmb evaluate`` needs) load
neither scipy nor those modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, InvalidParameter

if TYPE_CHECKING:
    from .linalg import DataMatrix, SpdMatrix
    from .rng import RngStream


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for one random hub graph over p query and q other variables."""

    p: int
    q: int
    beta_a: float = 0.5
    beta_b: float = 5.0
    edge_density_target: float = 0.005
    weight_lo: float = 0.3
    weight_hi: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise InvalidParameter("p and q must be positive")
        if self.beta_a <= 0 or self.beta_b <= 0:
            raise InvalidParameter("beta propensity parameters must be positive")
        if not 0.0 <= self.edge_density_target < 1.0:
            raise InvalidParameter("edge_density_target must lie in [0, 1)")
        if not self.weight_lo < self.weight_hi:
            raise InvalidParameter("need weight_lo < weight_hi")

    @property
    def dim(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class GroundTruth:
    """A generated precision matrix and its query-by-other block."""

    w_full: SpdMatrix
    true_blanket: np.ndarray

    @property
    def p(self) -> int:
        return self.true_blanket.shape[0]

    @property
    def q(self) -> int:
        return self.true_blanket.shape[1]

    def signed_edges(self) -> frozenset[tuple[int, int, int]]:
        """Nonzero blanket entries as (query index, other index, sign)."""
        rows, cols = np.nonzero(self.true_blanket)
        return frozenset(
            (int(i), int(j), int(np.sign(self.true_blanket[i, j])))
            for i, j in zip(rows, cols)
        )

    @property
    def w11(self) -> np.ndarray:
        return self.w_full.values[:self.p, :self.p]

    @property
    def w22(self) -> np.ndarray:
        return self.w_full.values[self.p:, self.p:]

    def schur_complement(self) -> np.ndarray:
        """W22 minus W21 W11^-1 W12, the other-block conditional precision."""
        w21 = self.true_blanket.T
        return self.w22 - w21 @ np.linalg.solve(self.w11, self.true_blanket)


@dataclass(frozen=True)
class BlanketEstimate:
    """Thresholded edge calls: (query index, other index, sign) triples."""

    edges: frozenset[tuple[int, int, int]]
    source: str = ""

    def __post_init__(self):
        for i, j, s in self.edges:
            if s not in (-1, 1):
                raise InvalidParameter(f"edge sign must be +-1, got {s}")
            if i < 0 or j < 0:
                raise InvalidParameter("edge indices must be nonnegative")


@dataclass(frozen=True)
class ScoreReport:
    """Sign-aware precision/recall/f plus the underlying counts."""

    precision: float
    recall: float
    fscore: float
    true_positive: int
    wrong_sign: int
    spurious: int
    missed: int


def gen_precision(spec: GraphSpec, rng: RngStream | None = None) -> GroundTruth:
    """Draw one hub-structured sparse SPD precision matrix.

    Per-node propensities are Beta(beta_a, beta_b); edge (u, v) fires with
    probability density * pi_u * pi_v / E[pi]^2 (clipped to 1), so the
    expected edge density matches the target while high-propensity nodes
    become hubs.  Nonzero weights are uniform on [weight_lo, weight_hi]
    with random sign.  The diagonal is shifted by |smallest eigenvalue| +
    0.1 whenever that eigenvalue is not strictly positive, which it never
    is for a nonempty hollow symmetric matrix, so the result is SPD with a
    clear margin.
    """
    from .linalg import SpdMatrix
    from .rng import RngStream

    if rng is None:
        rng = RngStream(spec.seed)
    gen = rng.gen
    d = spec.dim
    pi = gen.beta(spec.beta_a, spec.beta_b, size=d)
    mean_pi = spec.beta_a / (spec.beta_a + spec.beta_b)
    prob = np.minimum(
        spec.edge_density_target * np.outer(pi, pi) / mean_pi**2, 1.0
    )
    upper = np.triu(gen.random((d, d)) < prob, k=1)
    magnitude = gen.uniform(spec.weight_lo, spec.weight_hi, size=(d, d))
    sign = np.where(gen.random((d, d)) < 0.5, 1.0, -1.0)
    w = np.where(upper, magnitude * sign, 0.0)
    w = w + w.T
    lam_min = float(np.linalg.eigvalsh(w)[0])
    if lam_min <= 0.0:
        w = w + (abs(lam_min) + 0.1) * np.eye(d)
    return GroundTruth(
        w_full=SpdMatrix(w),
        true_blanket=w[: spec.p, spec.p:].copy(),
    )


def simulate_data(truth: GroundTruth, n: int,
                  rng: RngStream | None = None) -> DataMatrix:
    """Draw n zero-mean Gaussian observations with covariance inv(W).

    Columns are produced by back-solving the upper Cholesky factor of W
    against standard normals, so W is never inverted explicitly.
    """
    from scipy.linalg import solve_triangular

    from .linalg import DataMatrix
    from .rng import RngStream

    if n < 1:
        raise InvalidParameter("n must be positive")
    if rng is None:
        rng = RngStream(0)
    d = truth.p + truth.q
    lower = truth.w_full.factor().lower
    z = rng.gen.standard_normal((d, n))
    values = solve_triangular(lower, z, lower=True, trans="T")
    names = [f"v{i}" for i in range(d)]
    return DataMatrix(values=values, names=names)


def threshold_blanket(samples: np.ndarray | list[np.ndarray],
                      level: float = 0.85) -> BlanketEstimate:
    """Call edges whose equal-tailed credible interval excludes zero.

    ``samples`` stacks posterior draws of the blanket block, shape
    (m, p, q) or a list of m matrices.  Interval endpoints are empirical
    quantiles with linear interpolation; the reported sign is the sign of
    the posterior median (necessarily nonzero when the interval excludes
    zero).
    """
    if not 0.0 < level < 1.0:
        raise InvalidParameter(f"credibility level must be in (0,1), got {level}")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 3 or arr.shape[0] < 2:
        raise InsufficientSamples(
            "need at least 2 stacked blanket samples to form an interval"
        )
    alpha = (1.0 - level) / 2.0
    lo, med, hi = np.quantile(arr, [alpha, 0.5, 1.0 - alpha], axis=0)
    include = (lo > 0.0) | (hi < 0.0)
    rows, cols = np.nonzero(include)
    edges = frozenset(
        (int(i), int(j), 1 if med[i, j] > 0 else -1)
        for i, j in zip(rows, cols)
    )
    return BlanketEstimate(edges=edges, source=f"equal-tailed level={level:g}")


def score(estimate: BlanketEstimate,
          truth: GroundTruth | np.ndarray) -> ScoreReport:
    """Sign-aware precision/recall/f against the true blanket.

    Wrong-sign inferences are counted twice over: they are not true
    positives (hurting precision) and the corresponding true edge stays
    missed (hurting recall).  ``truth`` may be a full GroundTruth or just
    the signed p-by-q blanket matrix (all that scoring needs), which is
    what survives a round trip through truth.csv.
    """
    if isinstance(truth, GroundTruth):
        blanket = truth.true_blanket
    else:
        blanket = np.asarray(truth, dtype=float)
        if blanket.ndim != 2:
            raise DimensionMismatch("truth blanket must be a 2-d array")
    p, q = blanket.shape
    for i, j, _ in estimate.edges:
        if i >= p or j >= q:
            raise DimensionMismatch(
                f"edge ({i},{j}) outside a {p}x{q} blanket"
            )
    rows, cols = np.nonzero(blanket)
    true_edges = frozenset(
        (int(i), int(j), int(np.sign(blanket[i, j])))
        for i, j in zip(rows, cols)
    )
    true_keys = {(i, j) for i, j, _ in true_edges}
    tp = len(estimate.edges & true_edges)
    wrong_sign = sum(
        1 for i, j, s in estimate.edges
        if (i, j) in true_keys and (i, j, s) not in true_edges
    )
    spurious = len(estimate.edges) - tp - wrong_sign
    missed = len(true_edges) - tp
    inferred = len(estimate.edges)
    if inferred > 0:
        precision = tp / inferred
    else:
        precision = 1.0 if not true_edges else 0.0
    if true_edges:
        recall = tp / len(true_edges)
    else:
        recall = 1.0 if inferred == 0 else 0.0
    fscore = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0 else 0.0
    )
    return ScoreReport(
        precision=precision, recall=recall, fscore=fscore,
        true_positive=tp, wrong_sign=wrong_sign, spurious=spurious,
        missed=missed,
    )
