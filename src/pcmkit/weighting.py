"""Priority derivation from pairwise comparison matrices.

Implements the eigenvector family (dominant right eigenvector, left
eigenvector, its componentwise inverse, and the combined right/inverse-left
vector), the row geometric mean, and the two geometric aggregation schemes
for group judgments: entrywise aggregation of matrices and componentwise
aggregation of priority vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._power import power_iterate
from .core import Normalization, PCMatrix, WeightVector, normalize
from .errors import DimensionMismatchError, EmptyListError, NoConvergenceError


@dataclass(frozen=True)
class EigenSolverConfig:
    """Power-iteration budget and stopping tolerance.

    `convergence_tol` bounds the componentwise relative change of the
    normalized iterate per step; the solver additionally certifies the
    eigen-residual at the same level before stopping.  The test runs every
    8 matrix-vector products and at the last one of the budget, so the
    reported `iterations` (a count of matrix-vector products) of a
    converged result is a multiple of 8 or equals `max_iterations`, which
    stays an exact budget.
    """

    max_iterations: int = 10_000
    convergence_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < self.convergence_tol <= 1e-3):
            raise ValueError("convergence_tol must lie in (0, 1e-3]")


DEFAULT_SOLVER = EigenSolverConfig()


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenpair: unit-sum weights, dominant eigenvalue, and the
    certified residual max_i |(A w)_i - lambda w_i| / w_i."""

    weights: WeightVector
    lambda_max: float
    iterations: int
    residual: float


def _solve(stack: np.ndarray, config: EigenSolverConfig,
           methods: tuple[str, ...]) -> list[EigenResult]:
    """One power-iteration call for a (k, n, n) stack; raises on the first
    matrix that blew the iteration budget."""
    w, lam, iters, resid, conv = power_iterate(
        stack, config.convergence_tol, config.max_iterations
    )
    for k in range(len(methods)):
        if not conv[k]:
            raise NoConvergenceError(int(iters[k]), float(resid[k]))
    return [
        EigenResult(WeightVector(w[k] / w[k].sum(), Normalization.SUM_ONE, method),
                    float(lam[k]), int(iters[k]), float(resid[k]))
        for k, method in enumerate(methods)
    ]


def right_eigenvector(matrix: PCMatrix, config: EigenSolverConfig | None = None) -> EigenResult:
    """Perron vector of the matrix, normalized to unit sum.

    Deterministic: power iteration always starts from the uniform vector.
    """
    config = config or DEFAULT_SOLVER
    return _solve(matrix.entries[None], config, ("right-eigenvector",))[0]


def eigen_system(matrix: PCMatrix, config: EigenSolverConfig | None = None):
    """Right and left dominant eigenvectors computed together.

    The left vector is the Perron vector of the transpose.  Both runs must
    agree on the dominant eigenvalue; the right-hand estimate is the one
    reported everywhere (single source of truth for consistency indices).
    """
    config = config or DEFAULT_SOLVER
    right, left_raw = _solve(np.stack([matrix.entries, matrix.entries.T]), config,
                             ("right-eigenvector", "left-eigenvector"))
    allowed = max(1e-9, 4.0 * matrix.n * config.convergence_tol)
    gap = abs(left_raw.lambda_max - right.lambda_max) / right.lambda_max
    if gap > allowed:
        raise NoConvergenceError(
            left_raw.iterations,
            left_raw.residual,
            f"left/right eigenvalue estimates disagree by {gap:.3e} relative",
        )
    left = EigenResult(left_raw.weights, right.lambda_max,
                       left_raw.iterations, left_raw.residual)
    return right, left


def left_eigenvector(matrix: PCMatrix, config: EigenSolverConfig | None = None) -> EigenResult:
    """Dominant left eigenvector (row vector w with w A = lambda w), unit sum."""
    _, left = eigen_system(matrix, config)
    return left


def inverse_left_eigenvector(matrix: PCMatrix,
                             config: EigenSolverConfig | None = None) -> WeightVector:
    """Componentwise inverse of the left eigenvector, renormalized.

    Coincides with the right eigenvector exactly for consistent matrices
    and for every matrix with three alternatives.
    """
    _, left = eigen_system(matrix, config)
    inv = 1.0 / left.weights.priorities
    return WeightVector(inv / inv.sum(), Normalization.SUM_ONE, "inverse-left-eigenvector")


def combined_eigenvector(matrix: PCMatrix, config: EigenSolverConfig | None = None,
                         *, geometric_mean: bool = False) -> WeightVector:
    """Componentwise product of the right and inverse-left vectors, renormalized.

    With geometric_mean=True the square root of the product is taken
    before renormalizing; the ranking is identical either way, only the
    normalized values differ.
    """
    right, left = eigen_system(matrix, config)
    inv = 1.0 / left.weights.priorities
    combined = right.weights.priorities * (inv / inv.sum())
    if geometric_mean:
        combined = np.sqrt(combined)
    return WeightVector(combined / combined.sum(), Normalization.SUM_ONE,
                        "combined-eigenvector")


def row_geometric_mean(matrix: PCMatrix) -> WeightVector:
    """Priorities proportional to the geometric mean of each row.

    Closed form, no iteration; this is the optimum of the logarithmic
    least squares problem.
    """
    logs = np.log(matrix.entries)
    w = np.exp(logs.mean(axis=1))
    return WeightVector(w / w.sum(), Normalization.SUM_ONE, "row-geometric-mean")


def aggregate_matrices_geometric(matrices) -> PCMatrix:
    """Entrywise geometric mean of judgment matrices (group aggregation).

    The result is reciprocal by construction: the upper triangle is
    aggregated and the lower triangle mirrors it exactly.
    """
    mats = list(matrices)
    if not mats:
        raise EmptyListError("no matrices to aggregate")
    n = mats[0].n
    for m in mats[1:]:
        if m.n != n:
            raise DimensionMismatchError(f"matrix orders differ: {m.n} != {n}")
    mean_log = np.mean([np.log(m.entries) for m in mats], axis=0)
    iu, ju = np.triu_indices(n, 1)
    upper = np.exp(mean_log[iu, ju])
    agg = np.ones((n, n))
    agg[iu, ju] = upper
    agg[ju, iu] = 1.0 / upper
    return PCMatrix(agg)


def aggregate_priorities_geometric(vectors) -> WeightVector:
    """Componentwise geometric mean of priority vectors, renormalized."""
    vecs = list(vectors)
    if not vecs:
        raise EmptyListError("no priority vectors to aggregate")
    n = vecs[0].n
    for v in vecs[1:]:
        if v.n != n:
            raise DimensionMismatchError(f"vector lengths differ: {v.n} != {n}")
    mean_log = np.mean([np.log(v.unit()) for v in vecs], axis=0)
    return normalize(np.exp(mean_log), Normalization.SUM_ONE, "aggregate-priorities")
