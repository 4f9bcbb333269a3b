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

Every function of the eigenvector family reads one memo slot per `PCMatrix`
instance.  The first of them to run fills it with a single power-iteration
call on the matrix and its transpose stacked, then `_vector_rows` on that
batch of one; every later call, of any kind, reads the slot.  The slot lives
and dies with the instance; no cache is shared between matrices, so two
matrices with equal entries each solve their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._power import _row_sum, power_iterate
from .core import (Normalization, PCMatrix, WeightVector, _upper_indices, normalize,
                   reciprocal_from_upper)
from .errors import DimensionMismatchError, EmptyListError, NoConvergenceError


# Power-iteration stopping tolerance and budget (in matrix-vector
# products) for the eigenvector family and the simulation.  The solver
# also certifies the eigen-residual at `_TOL` before it stops.
_TOL = 1e-12
_MAX_ITERATIONS = 10_000


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Converged eigenpair: unit-sum weights, dominant eigenvalue, and the
    certified residual max_i |(A w)_i - lambda w_i| / w_i."""

    weights: WeightVector
    lambda_max: float
    iterations: int
    residual: float


_ROW_METHODS = ("right-eigenvector", "left-eigenvector")


def _rgm_rows(mats: np.ndarray) -> np.ndarray:
    """Unit-sum row geometric means, as (n, B) columns, of every matrix in
    an (n, n, B) stack.  The logs stay in the stack's layout, and `_row_sum`
    adds each row's logs over the swapped first two axes."""
    x = np.exp(_row_sum(np.log(mats).swapaxes(0, 1)) / len(mats))
    return x / _row_sum(x)


def _vector_rows(mats: np.ndarray, right: np.ndarray, left: np.ndarray,
                 lam_right: np.ndarray, lam_left: np.ndarray, tol: float):
    """Inverse-left, combined and row-geometric-mean vectors of an (n, n, B)
    stack from its (n, B) right and left vectors and eigenvalues, and whether
    each matrix's two eigenvalues agree.  Underflow gives no numpy warning."""
    agree = np.abs(lam_left - lam_right) <= max(1e-9, 4.0 * len(mats) * tol) * lam_right
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse_left = 1.0 / left
        inverse_left /= _row_sum(inverse_left)
        combined = right * inverse_left
        combined /= _row_sum(combined)
    return inverse_left, combined, _rgm_rows(mats), agree


def _solved(matrix: PCMatrix) -> tuple:
    """The matrix's memo slot: (right, left, rows, agree).

    `right` and `left` are the Perron pairs of the matrix and of its
    transpose, columns 0 and 1 of one power-iteration call: an EigenResult
    for a converged column, (iterations, residual) for one that blew the
    budget, so every caller raises its own error.  `rows` holds the
    inverse-left, combined and row-geometric-mean vectors and `agree`
    whether the two eigenvalues agree.  Filled by the first call; threads
    that race on an empty slot each solve and store equal, immutable results.
    """
    if matrix._eigen is None:
        a = matrix.entries
        # Built C-contiguous, so that the solver iterates it without a copy.
        pair = np.empty(a.shape + (2,))
        pair[:, :, 0] = a
        pair[:, :, 1] = a.T
        w, lam, iters, resid, conv = power_iterate(pair, _TOL, _MAX_ITERATIONS)
        *rows, agree = _vector_rows(a[:, :, None], w[:, :1], w[:, 1:], lam[:1], lam[1:], _TOL)
        pairs = [
            EigenResult(WeightVector(w[:, k], Normalization.SUM_ONE, _ROW_METHODS[k]),
                        float(lam[k]), int(iters[k]), float(resid[k]))
            if conv[k] else (int(iters[k]), float(resid[k]))
            for k in (0, 1)
        ]
        object.__setattr__(matrix, "_eigen", (*pairs, tuple(r[:, 0] for r in rows), bool(agree[0])))
    return matrix._eigen


def _converged(row) -> EigenResult:
    if isinstance(row, EigenResult):
        return row
    raise NoConvergenceError(*row)


def _checked(matrix: PCMatrix):
    """(right, left, rows) of the memo slot.  Raises NoConvergenceError
    when either run blew the budget or the two eigenvalues disagree."""
    right, left, rows, agree = _solved(matrix)
    right, left = _converged(right), _converged(left)
    if not agree:
        gap = abs(left.lambda_max - right.lambda_max) / right.lambda_max
        raise NoConvergenceError(
            left.iterations, left.residual,
            f"left/right eigenvalue estimates disagree by {gap:.3e} relative",
        )
    return right, left, rows


def right_eigenvector(matrix: PCMatrix) -> EigenResult:
    """Perron vector of the matrix, normalized to unit sum.

    Deterministic: power iteration always starts from the uniform vector.
    Returns even when the transpose's run failed.
    """
    return _converged(_solved(matrix)[0])


def eigen_system(matrix: PCMatrix):
    """Right and left dominant eigenvectors computed together.

    The left vector is the Perron vector of the transpose.  Both runs must
    agree on the dominant eigenvalue; the right-hand estimate is the one
    reported everywhere (single source of truth for consistency indices).
    """
    right, left, _ = _checked(matrix)
    return right, EigenResult(left.weights, right.lambda_max, left.iterations, left.residual)


def left_eigenvector(matrix: PCMatrix) -> EigenResult:
    """Dominant left eigenvector (row vector w with w A = lambda w), unit sum."""
    _, left = eigen_system(matrix)
    return left


def inverse_left_eigenvector(matrix: PCMatrix) -> WeightVector:
    """Componentwise inverse of the left eigenvector, renormalized.

    Coincides with the right eigenvector exactly for consistent matrices
    and for every matrix with three alternatives.
    """
    return WeightVector(_checked(matrix)[2][0], Normalization.SUM_ONE, "inverse-left-eigenvector")


def combined_eigenvector(matrix: PCMatrix) -> WeightVector:
    """Componentwise product of the right and inverse-left vectors, renormalized."""
    return WeightVector(_checked(matrix)[2][1], Normalization.SUM_ONE, "combined-eigenvector")


def row_geometric_mean(matrix: PCMatrix) -> WeightVector:
    """Priorities proportional to the geometric mean of each row.

    Closed form, no iteration; this is the optimum of the logarithmic
    least squares problem.  A filled memo slot holds it already, from the
    same `_rgm_rows` call on the same batch of one.
    """
    if matrix._eigen is None:
        rgm = _rgm_rows(matrix.entries[:, :, None])[:, 0]
    else:
        rgm = matrix._eigen[2][2]
    return WeightVector(rgm, Normalization.SUM_ONE, "row-geometric-mean")


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
    iu, ju = _upper_indices(n)
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
