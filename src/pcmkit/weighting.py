"""Priority derivation from pairwise comparison matrices.

Implements the eigenvector family (dominant right eigenvector, left
eigenvector, its componentwise inverse, and the combined right/inverse-left
vector), the row geometric mean, and the two geometric aggregation schemes
for group judgments: entrywise aggregation of matrices and componentwise
aggregation of priority vectors.

Every function of the eigenvector family reads one memo slot per `PCMatrix`
instance.  The first of them to run fills it: one power-iteration call on
the matrix and its transpose stacked, then `_vector_rows`, the one
derivation of the inverse-left, combined and row-geometric-mean vectors and
of the left/right eigenvalue check, which the simulation runs on its
batches, a check of the five vectors in one pass, and CI.  `solve_together`
fills the slots of several matrices so, one call per order.  By rules 1-3 of
`_power`, a matrix gets the same bits alone, in such a fill and in a
simulation batch.  Every later call, of any kind, returns the same objects
from the slot.  The slot lives and dies with the instance; no cache is
shared between matrices, so two matrices with equal entries each solve
their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._power import _row_sum, power_iterate
from .core import (Normalization, PCMatrix, WeightVector, _unit_vectors, _upper_indices,
                   normalize, reciprocal_from_upper)
from .errors import DimensionMismatchError, EmptyListError, NoConvergenceError


# Power-iteration stopping tolerance and budget (in matrix-vector
# products) for the eigenvector family and the simulation.  The solver
# also certifies the eigen-residual at `_TOL` before it stops.
_TOL = 1e-12
_MAX_ITERATIONS = 10_000

# Tiny CI magnitudes are solver noise on consistent input; clamping avoids
# spurious negative (or nonzero) CR in downstream bins.
_CI_NOISE_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Converged eigenpair: unit-sum weights, dominant eigenvalue, and the
    certified residual max_i |(A w)_i - lambda w_i| / w_i."""

    weights: WeightVector
    lambda_max: float
    iterations: int
    residual: float


def _ci(lam, n: int):
    """CI of dominant eigenvalues of order-n matrices, for one value or an
    array of them: (lam - n) / (n - 1), noise-clamped at zero."""
    ci = (lam - n) / (n - 1)
    return np.where(np.abs(ci) < _CI_NOISE_FLOOR, 0.0, ci)


def _rgm_rows(mats: np.ndarray) -> np.ndarray:
    """Unit-sum row geometric means, as (n, B) columns, of every matrix in
    an (n, n, B) stack.  The logs stay in the stack's layout, and `_row_sum`
    adds each row's logs over the swapped first two axes."""
    x = np.exp(_row_sum(np.log(mats).swapaxes(0, 1)) / len(mats))
    return x / _row_sum(x)


def _vector_rows(mats: np.ndarray, right: np.ndarray, left: np.ndarray,
                 lam_right: np.ndarray, lam_left: np.ndarray):
    """Inverse-left, combined and row-geometric-mean vectors of an (n, n, B)
    stack from its (n, B) right and left vectors and eigenvalues, and whether
    each matrix's two eigenvalues agree.  An entry that underflows or
    overflows, as a failed solve's may, gives no numpy warning."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverse_left = 1.0 / left
        inverse_left /= _row_sum(inverse_left)
        combined = right * inverse_left
        combined /= _row_sum(combined)
    agree = np.abs(lam_left - lam_right) <= max(1e-9, 4.0 * len(mats) * _TOL) * lam_right
    return inverse_left, combined, _rgm_rows(mats), agree


def _raise(error, *args):
    raise error(*args)


def _finished(entry):
    """A memo slot entry, or, for a `partial` that stands for a failure, its
    error, raised fresh for every caller."""
    return entry() if isinstance(entry, partial) else entry


def _fill(n: int, group: list) -> None:
    """Fill the empty memo slots of `group`, distinct order-n matrices, from
    one `power_iterate` call on [A1..Ak, A1^T..Ak^T].  A slot holds the right
    EigenResult, the (right, left) pair, the inverse-left, combined and RGM
    WeightVectors, and the right CI.  A failure (a run over budget,
    eigenvalues that disagree, a vector that fails the WeightVector checks)
    is held as a `partial` that raises it, so only a caller that reads that
    entry raises; CI holds the right run's failure.  Threads that race on an
    empty slot each store equal, immutable results."""
    k = len(group)
    # Built C-contiguous, so that the solver iterates it without a copy.
    stack = np.empty((n, n, 2 * k))
    for j, m in enumerate(group):
        stack[:, :, j] = m.entries
        stack[:, :, k + j] = m.entries.T
    w, lam, iters, resid, conv = power_iterate(stack, _TOL, _MAX_ITERATIONS)
    *derived, agree = _vector_rows(stack[:, :, :k], w[:, :k], w[:, k:], lam[:k], lam[k:])
    lam, iters, resid = lam.tolist(), iters.tolist(), resid.tolist()
    vecs = _unit_vectors(np.ascontiguousarray(np.concatenate((w, *derived), 1).T))
    for r, m in enumerate(group):
        l = k + r
        failed = [partial(_raise, NoConvergenceError, iters[c], resid[c]) for c in (r, l)
                  if not conv[c]]
        if not failed and not agree[r]:
            failed.append(partial(_raise, NoConvergenceError, iters[l], resid[l],
                                  f"left/right eigenvalue estimates disagree by "
                                  f"{abs(lam[l] - lam[r]) / lam[r]:.3e} relative"))
        right, left, *vectors = vecs[r::k]
        right = EigenResult(_finished(right), lam[r], iters[r], resid[r]) if conv[r] else failed[0]
        if failed:
            system = vectors[0] = vectors[1] = failed[0]
        else:
            system = (right, EigenResult(_finished(left), lam[r], iters[l], resid[l]))
        ci = float(_ci(lam[r], n)) if conv[r] else right
        object.__setattr__(m, "_eigen", (right, system, tuple(vectors), ci))


def solve_together(matrices) -> None:
    """Fill the empty memo slot of each distinct matrix given, one `_fill` per order."""
    groups = {}
    for m in {id(m): m for m in matrices if m._eigen is None}.values():
        groups.setdefault(m.n, []).append(m)
    for n, group in groups.items():
        _fill(n, group)


def _solved(matrix: PCMatrix) -> tuple:
    """The memo slot, read only by this module's getters; `_fill` fills an empty one."""
    if matrix._eigen is None:
        _fill(matrix.n, [matrix])
    return matrix._eigen


def right_eigenvector(matrix: PCMatrix) -> EigenResult:
    """Perron vector of the matrix, normalized to unit sum.

    Deterministic: power iteration always starts from the uniform vector.
    Returns even when the transpose's run failed.
    """
    return _finished(_solved(matrix)[0])


def eigen_system(matrix: PCMatrix):
    """Right and left dominant eigenvectors computed together.

    The left vector is the Perron vector of the transpose.  Both runs must
    agree on the dominant eigenvalue; the right-hand estimate is the one
    reported everywhere (single source of truth for consistency indices).
    """
    return _finished(_solved(matrix)[1])


def left_eigenvector(matrix: PCMatrix) -> EigenResult:
    """Dominant left eigenvector (row vector w with w A = lambda w), unit sum."""
    return eigen_system(matrix)[1]


def inverse_left_eigenvector(matrix: PCMatrix) -> WeightVector:
    """Componentwise inverse of the left eigenvector, renormalized.

    Coincides with the right eigenvector exactly for consistent matrices
    and for every matrix with three alternatives.
    """
    return _finished(_solved(matrix)[2][0])


def combined_eigenvector(matrix: PCMatrix) -> WeightVector:
    """Componentwise product of the right and inverse-left vectors, renormalized."""
    return _finished(_solved(matrix)[2][1])


def row_geometric_mean(matrix: PCMatrix) -> WeightVector:
    """Priorities proportional to the geometric mean of each row.

    Closed form, no iteration; this is the optimum of the logarithmic
    least squares problem.  A filled memo slot holds it already, from
    `_vector_rows`; an empty slot stays empty, and the vector is computed
    afresh by the same `_rgm_rows`.
    """
    if matrix._eigen is None:
        return WeightVector(_rgm_rows(matrix.entries[:, :, None])[:, 0], Normalization.SUM_ONE)
    return _finished(matrix._eigen[2][2])


def consistency_index(matrix: PCMatrix) -> float:
    """CI = (lambda_max - n) / (n - 1), noise-clamped at zero."""
    return _finished(_solved(matrix)[3])


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
    return normalize(np.exp(mean_log), Normalization.SUM_ONE)
