"""Batched power iteration for dominant eigenpairs of positive matrices.

For a strictly positive matrix the dominant eigenvalue is real, simple,
and has a positive eigenvector, so iterating v <- A v from the uniform
vector converges for every input.  The batch variant runs a stack of
matrices in lockstep.  The stopping test is costly next to one small
mat-vec, so it runs only at fixed step numbers (every _CHECK_EVERY
mat-vecs, and at the last step of the budget); in between, the iterate
is only multiplied and renormalized.  A check measures the eigenvalue and
the residual only when some matrix's change is within the tolerance, or at
the last step.  Every matrix is checked at the same step numbers and
frozen at its own stopping point.

Layout.  A stack is stored batch-last, as a C-contiguous (n, n, B) array,
and an iterate as (n, B).  A mat-vec is one einsum over rows of length B,
and every sum over n runs along axis 0, so each matrix's arithmetic is a
sequence of elementwise operations along the batch axis.  A left vector is
the right vector of the transposed stack `mats.swapaxes(0, 1)`, which rule
2 copies C-contiguous: both vectors run one einsum on the same layout.

Per-matrix results do not depend on what else shares the batch, on three
conditions that this module keeps:

1. No stack of width 1 is ever iterated.  At width 1 numpy drops the batch
   axis, and the einsum and the sums over n (at n >= 8) switch to
   summation orders of their own.  A lone matrix, and the last matrix left
   running, therefore iterate as two copies of themselves; both copies
   have the same bits and stop together.
2. Every array the loop works on is C-contiguous: a strided input is
   copied, compaction copies with `np.take`, and each mat-vec writes
   into a C-contiguous buffer.  On a strided stack, such as a boolean-
   indexed view, einsum returns its result in another memory order, and
   the sums over n then add in another order.  A stopped matrix is not
   copied out at once: its column stays in the stack, dead, until a
   quarter of the columns are dead (or fewer than two are live), and only
   then is the stack compacted.  No column's arithmetic reads another's,
   so carrying dead columns changes the width of the stack, never the
   bits of a live column.
3. Every per-matrix vector is batch-last, (n, B), from the weights on.
   Outside this loop every sum over n, the row geometric mean's sums of
   logs included, goes through `_row_sum`.  It adds a column's n terms in
   numpy's order for one contiguous row, the order a column gets at any
   width, written out as adds of whole rows along the batch, so at width
   >= 2 no copy is made.  Maxima and exact integer sums need no care: no
   order changes their bits.
"""

from __future__ import annotations

import numpy as np

# The ufunc reductions behind ndarray.sum and np.max, called directly: on a
# small stack the wrappers cost as much as the arithmetic, and the bits
# are the same.
_sum = np.add.reduce
_max = np.maximum.reduce


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of an (n, ...) array, n >= 2, over axis 0 that adds each
    column's n terms in numpy's order for one contiguous row (rule 3), so a
    column gets the same bits at any width.  An all -0.0 column sums to
    -0.0, not 0.0.

    At width >= 2 the order is written out as whole-row adds, with no copy:
    below 8 terms in sequence; up to 128 terms into eight accumulators,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in
    sequence; above 128, split at n // 2 rounded down to a multiple of 8 and
    each half summed so.  At width 1 the column is one contiguous row
    already (a copy only if it is strided), and numpy reduces it."""
    if x.ndim == 1 or x.shape[-1] == 1:
        return _sum(np.ascontiguousarray(x.T), axis=-1).T
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(x[:half]) + _row_sum(x[half:])
    if n < 8:
        total, tail = x[0] + x[1], x[2:]
    else:
        body = n - n % 8
        acc = x[:8] + x[8:16] if body > 8 else x[:8]  # rows 0-7 themselves, not written
        for lo in range(16, body, 8):
            acc += x[lo:lo + 8]
        pairs = acc[0::2] + acc[1::2]
        pairs[0::2] += pairs[1::2]
        total, tail = pairs[0] + pairs[2], x[body:]
    for row in tail:
        total += row
    return total


# Mat-vecs per stopping test.  Measured on 8192-matrix batches of order
# 4-15: 8 beat 4, and the stop rounds up by at most 7 mat-vecs.
_CHECK_EVERY = 8

# Share of a stack's columns that must be dead (stopped, but still
# iterated) before the stack is compacted.  Compacting at every stop copied
# an RI chunk's stack 3-5 times over; a sweep of 1/2 to 1/16 could not tell
# the values apart.
_DEAD_SHARE = 0.25

# Mat-vec of every matrix in an (n, n, B) stack with an (n, B) iterate.
_MATVEC = "ijb,jb->ib"

# numpy's C einsum, which np.einsum calls with the same arguments when it
# is not asked to optimize.  On the (9, 9, 2) stack one matrix of order 9
# is solved as, a mat-vec takes 1.45 us through it, 1.91 us through the
# Python wrapper and 2.43 us through np.einsum.  numpy 1.x keeps it
# elsewhere; there the wrapper without its dispatch serves.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum.__wrapped__

# Matrix entries iterated as one stack: 2**17 float64 (1 MiB) keep a piece and
# its iterates in a 2 MiB L2 cache.  No piece is narrower than 128 matrices, to
# keep the einsum's inner loop long; by the three rules, no bit changes.
_STACK_ELEMENTS = 1 << 17


def _two_or_more(cols: np.ndarray) -> np.ndarray:
    """Column indices to iterate: a single column is taken twice, so that
    no stack of width 1 is ever iterated (rule 1)."""
    return np.repeat(cols, 2) if cols.size == 1 else cols


def _pieces(n: int, batch: int) -> list[slice]:
    """Consecutive slices of a batch, max(128, _STACK_ELEMENTS // n**2) matrices each."""
    size = max(128, _STACK_ELEMENTS // (n * n))
    return [slice(lo, min(lo + size, batch)) for lo in range(0, batch, size)]


def power_iterate(mats: np.ndarray, tol: float, max_iter: int):
    """Dominant eigenpair of every matrix in an (n, n, B) stack.

    At steps _CHECK_EVERY, 2 * _CHECK_EVERY, ... and at step max_iter a
    matrix stops once both the componentwise relative change of its
    normalized iterate and its eigen-residual max_i |(A w)_i - lam w_i| / w_i
    are within tol (the residual scaled by lam).  Returns arrays
    (weights, lam, iterations, residual, converged) where weights is an
    (n, B) array whose columns sum to one and iterations counts
    matrix-vector products: a multiple of _CHECK_EVERY for a converged
    matrix, or max_iter.  The residual is the one measured at the reported
    weights.  The stack is iterated in the pieces of `_pieces`; a matrix
    whose iterate underflows ends not converged, with no numpy warning.
    A matrix's results are recorded at the check where it stops; its column
    leaves the piece's stack only when a quarter of the stack has stopped,
    and until then it is iterated but never read again (rule 2).
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[0] != mats.shape[1]:
        raise ValueError(f"expected an (n, n, B) stack, got shape {mats.shape}")
    n, _, batch = mats.shape
    out = (np.full((n, batch), 1.0 / n), np.zeros(batch), np.zeros(batch, dtype=np.int64),
           np.full(batch, np.inf), np.zeros(batch, dtype=bool))
    with np.errstate(divide="ignore", invalid="ignore"):
        for piece in _pieces(n, batch):
            _iterate(mats[:, :, piece], tol, max_iter, *(a[..., piece] for a in out))
    return out


def _iterate(mats, tol, max_iter, weights, lam_out, iter_out, resid_out, converged):
    """Solve one piece of `power_iterate` into its columns of the results."""
    n, _, batch = mats.shape
    # Column k of the stack solves matrix idx[k] until it stops.  A contiguous
    # piece of two or more matrices is iterated without a copy.
    idx = _two_or_more(np.arange(batch))
    active = np.ascontiguousarray(mats) if idx.size == batch else np.take(mats, idx, axis=2)
    # Mask of the columns not stopped yet; None while that is all of them, so
    # that a narrow stack builds no all-true mask per piece and compaction.
    live = None
    w = np.full((n, idx.size), 1.0 / n)
    v = np.empty_like(w)
    it = 0
    while it < max_iter:
        check = min(it + _CHECK_EVERY, max_iter)
        # Between checks the iterate is updated in place: on a narrow stack
        # allocating the arrays costs as much as the arithmetic.
        for _ in range(check - it - 1):
            _einsum(_MATVEC, active, w, out=v)
            np.divide(v, _sum(v, axis=0), out=w)
        it = check

        _einsum(_MATVEC, active, w, out=v)
        w_next = v / _sum(v, axis=0)
        change = _max(np.abs(w_next - w) / w, axis=0)
        close = change <= tol
        if live is not None:
            close &= live  # a dead column was recorded already
        # A matrix stops only when its change is within tol, so before the
        # budget's last step a check where no change is skips the eigenvalue
        # and the residual.
        if it < max_iter and not np.count_nonzero(close):
            w = w_next
            continue
        lam = _sum(v / w, axis=0) / n
        resid = _max(np.abs(v - lam * w) / w, axis=0)
        done = close & (resid <= tol * lam)
        stop = done if it < max_iter else (np.ones_like(done) if live is None else live)
        if np.count_nonzero(stop):  # a quarter of the cost of stop.any() on a narrow stack
            stopped = stop.nonzero()[0]  # one index array: cheaper than a mask per gather
            hit = idx.take(stopped)
            # Return the iterate the residual was measured at, so the
            # certificate resid <= tol * lam refers to the reported vector.
            weights[:, hit] = w.take(stopped, axis=1)
            lam_out[hit] = lam.take(stopped)
            resid_out[hit] = resid.take(stopped)
            iter_out[hit] = it
            converged[hit] = done.take(stopped)
            live = ~stop if live is None else live ^ stop  # stop is within live
            cols = live.nonzero()[0]
            # One live column of a stack of width w >= 2 leaves w - 1 >= w / 4
            # dead, so it always compacts, to two copies of itself (rule 1).
            if idx.size - cols.size >= _DEAD_SHARE * idx.size:
                if not cols.size:
                    break
                cols = _two_or_more(cols)
                idx = idx[cols]
                active = np.take(active, cols, axis=2)
                w_next = np.take(w_next, cols, axis=1)
                v = np.empty_like(w_next)
                live = None
        w = w_next
