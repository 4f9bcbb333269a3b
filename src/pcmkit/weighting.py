"""Priority derivation from pairwise comparison matrices.

Implements the eigenvector family (dominant right eigenvector, left
eigenvector, its componentwise inverse, and the combined right/inverse-left
vector), the row geometric mean, and the two geometric aggregation schemes
for group judgments: entrywise aggregation of matrices and componentwise
aggregation of priority vectors.

The inverse-left, combined and row-geometric-mean vectors and the left/right
eigenvalue check have one derivation, `_vector_rows`, which the simulation
runs on a batch and every function here on a batch of one: a matrix gets
the same bits alone as in a simulation batch.

Every function of the eigenvector family reads one memo per `PCMatrix`
instance and solver config, holding the raw Perron rows of the matrix and
of its transpose and the vectors derived from them.  Each row is solved at
most once, when first asked for: `right_eigenvector` (and the consistency
indices built on it) solves the matrix alone, and the other functions solve
whatever is missing in one power iteration call.  A row's bits do not
depend on what shares the call, so the order of the calls changes no
result.  The memo lives and dies with the instance; no cache is shared
between matrices, so two matrices with equal entries each solve their own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._power import power_iterate
from .core import Normalization, PCMatrix, WeightVector, normalize, reciprocal_from_upper
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


_ROW_METHODS = ("right-eigenvector", "left-eigenvector")


# The ufunc reduction behind ndarray.sum and .mean, called directly as in
# `_power`: on a batch of one the wrappers cost as much as the arithmetic.
def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.add.reduce(x, axis=1, keepdims=True)


def _rgm_rows(mats: np.ndarray) -> np.ndarray:
    """Unit-sum row geometric means of every matrix in a (B, n, n) stack."""
    return _unit_rows(np.exp(np.add.reduce(np.log(mats), axis=2) / mats.shape[2]))


def _vector_rows(mats: np.ndarray, right: np.ndarray, left: np.ndarray,
                 lam_right: np.ndarray, lam_left: np.ndarray, tol: float):
    """Inverse-left, combined and row-geometric-mean rows of a (B, n, n)
    stack from its right and left rows and eigenvalues as `power_iterate`
    returns them, and whether each matrix's two eigenvalues agree."""
    n = mats.shape[1]
    agree = np.abs(lam_left - lam_right) <= max(1e-9, 4.0 * n * tol) * lam_right
    inverse_left = _unit_rows(1.0 / left)
    combined = _unit_rows(right * inverse_left)
    return inverse_left, combined, _rgm_rows(mats), agree


def _solved(matrix: PCMatrix, config: EigenSolverConfig, rows: tuple[int, ...]) -> list:
    """Memoized eigenpairs of the matrix (row 0) and its transpose (row 1).

    Rows not yet in the matrix's memo for this config are solved in one
    power-iteration call and stored as returned, unrenormalized: an
    EigenResult for a converged row, (iterations, residual) for one that
    blew the budget, so every caller raises its own error.  The memo lives
    and dies with the instance.
    """
    memo = matrix._eigen.setdefault(config, {})
    missing = [k for k in rows if k not in memo]
    if missing:
        a = matrix.entries
        w, lam, iters, resid, conv = power_iterate(
            np.stack([a.T if k else a for k in missing]),
            config.convergence_tol, config.max_iterations,
        )
        for i, k in enumerate(missing):
            memo[k] = (
                EigenResult(WeightVector(w[i], Normalization.SUM_ONE, _ROW_METHODS[k]),
                            float(lam[i]), int(iters[i]), float(resid[i]))
                if conv[i] else (int(iters[i]), float(resid[i]))
            )
    return [_converged(memo[k]) for k in rows]


def _converged(row) -> EigenResult:
    if isinstance(row, EigenResult):
        return row
    raise NoConvergenceError(*row)


def _vectors(matrix: PCMatrix, config: EigenSolverConfig):
    """Memoized (1, n) inverse-left, combined and row-geometric-mean rows
    of the matrix: `_vector_rows` on a batch of one.  Raises
    NoConvergenceError when the left and right eigenvalues disagree."""
    memo = matrix._eigen.setdefault(config, {})
    if "vectors" not in memo:
        right, left = _solved(matrix, config, (0, 1))
        *rows, agree = _vector_rows(
            matrix.entries[None], right.weights.priorities[None],
            left.weights.priorities[None], np.array([right.lambda_max]),
            np.array([left.lambda_max]), config.convergence_tol,
        )
        if not agree[0]:
            gap = abs(left.lambda_max - right.lambda_max) / right.lambda_max
            raise NoConvergenceError(
                left.iterations, left.residual,
                f"left/right eigenvalue estimates disagree by {gap:.3e} relative",
            )
        memo["vectors"] = rows
    return memo["vectors"]


def right_eigenvector(matrix: PCMatrix, config: EigenSolverConfig | None = None) -> EigenResult:
    """Perron vector of the matrix, normalized to unit sum.

    Deterministic: power iteration always starts from the uniform vector.
    Solves the matrix alone; the transpose is left to `eigen_system`.
    """
    return _solved(matrix, config or DEFAULT_SOLVER, (0,))[0]


def eigen_system(matrix: PCMatrix, config: EigenSolverConfig | None = None):
    """Right and left dominant eigenvectors computed together.

    The left vector is the Perron vector of the transpose.  Both runs must
    agree on the dominant eigenvalue; the right-hand estimate is the one
    reported everywhere (single source of truth for consistency indices).
    """
    config = config or DEFAULT_SOLVER
    _vectors(matrix, config)  # runs the eigenvalue agreement check
    right, left = _solved(matrix, config, (0, 1))
    return right, replace(left, lambda_max=right.lambda_max)


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
    inverse_left = _vectors(matrix, config or DEFAULT_SOLVER)[0]
    return WeightVector(inverse_left[0], Normalization.SUM_ONE, "inverse-left-eigenvector")


def combined_eigenvector(matrix: PCMatrix,
                         config: EigenSolverConfig | None = None) -> WeightVector:
    """Componentwise product of the right and inverse-left vectors, renormalized."""
    combined = _vectors(matrix, config or DEFAULT_SOLVER)[1]
    return WeightVector(combined[0], Normalization.SUM_ONE, "combined-eigenvector")


def row_geometric_mean(matrix: PCMatrix) -> WeightVector:
    """Priorities proportional to the geometric mean of each row.

    Closed form, no iteration; this is the optimum of the logarithmic
    least squares problem.
    """
    return WeightVector(_rgm_rows(matrix.entries[None])[0], Normalization.SUM_ONE,
                        "row-geometric-mean")


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
    return PCMatrix(reciprocal_from_upper(np.exp(mean_log[iu, ju]), n))


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
