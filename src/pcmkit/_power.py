"""Batched power iteration for dominant eigenpairs of positive matrices.

For a strictly positive matrix the dominant eigenvalue is real, simple,
and has a positive eigenvector, so iterating v <- A v from the uniform
vector converges for every input.  The batch variant runs a stack of
matrices in lockstep.  The stopping test is costly next to one small
mat-vec, so it runs only at fixed step numbers (every _CHECK_EVERY
mat-vecs, and at the last step of the budget); in between, the iterate
is only multiplied and renormalized.  Every matrix is checked at the same
step numbers and frozen at its own stopping point, so per-matrix results
do not depend on what else shares the batch.
"""

from __future__ import annotations

import numpy as np

# Mat-vecs per stopping test.  Measured on 8192-matrix batches of order
# 4-15: 8 beat 4, and the stop rounds up by at most 7 mat-vecs.
_CHECK_EVERY = 8


def power_iterate(mats: np.ndarray, tol: float, max_iter: int):
    """Dominant eigenpair of every matrix in a (B, n, n) stack.

    At steps _CHECK_EVERY, 2 * _CHECK_EVERY, ... and at step max_iter a
    matrix stops once both the componentwise relative change of its
    normalized iterate and its eigen-residual max_i |(A w)_i - lam w_i| / w_i
    are within tol (the residual scaled by lam).  Returns arrays
    (weights, lam, iterations, residual, converged) where weights rows sum
    to one and iterations counts matrix-vector products: a multiple of
    _CHECK_EVERY for a converged matrix, or max_iter.  The residual is the
    one measured at the reported weights.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {mats.shape}")
    batch, n, _ = mats.shape

    weights = np.full((batch, n), 1.0 / n)
    lam_out = np.zeros(batch)
    resid_out = np.full(batch, np.inf)
    iter_out = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)

    idx = np.arange(batch)
    active = mats
    w = np.full((batch, n), 1.0 / n)
    it = 0
    while idx.size and it < max_iter:
        check = min(it + _CHECK_EVERY, max_iter)
        for _ in range(check - it - 1):
            v = np.matmul(active, w[:, :, None])[:, :, 0]
            w = v / v.sum(axis=1)[:, None]
        it = check

        v = np.matmul(active, w[:, :, None])[:, :, 0]
        lam = (v / w).mean(axis=1)
        resid = np.max(np.abs(v - lam[:, None] * w) / w, axis=1)
        w_next = v / v.sum(axis=1)[:, None]
        change = np.max(np.abs(w_next - w) / w, axis=1)
        done = (change <= tol) & (resid <= tol * lam)
        stop = done | (it == max_iter)
        if stop.any():
            hit = idx[stop]
            # Return the iterate the residual was measured at, so the
            # certificate resid <= tol * lam refers to the reported vector.
            weights[hit] = w[stop]
            lam_out[hit] = lam[stop]
            resid_out[hit] = resid[stop]
            iter_out[hit] = it
            converged[hit] = done[stop]
            keep = ~stop
            idx = idx[keep]
            active = active[keep]
            w_next = w_next[keep]
        w = w_next

    return weights, lam_out, iter_out, resid_out, converged
