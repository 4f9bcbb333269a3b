"""Comparison measures between priority vectors.

Four measures: Euclidean distance, Chebyshev distance, the maximal
componentwise ratio, and the Kendall rank correlation coefficient.  All
are evaluated on the unit-sum scale; Kendall tau is the only one that
depends solely on the induced rankings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .consistency import ConsistencyReport, RiTable, default_ri_table, report_from_lambda
from .core import PCMatrix, WeightVector
from .errors import DimensionMismatchError
from .weighting import EigenSolverConfig, eigen_system, row_geometric_mean

METRICS = ("euclidean", "chebyshev", "max_ratio", "kendall")

# Vector pairs measured per matrix, all anchored at the right eigenvector.
PAIRS = ("inverse_left", "combined", "row_geometric_mean")

# The ufunc reductions behind np.sum and np.max, called directly: on a
# batch of one the wrappers cost as much as the arithmetic, and the bits
# are the same.
_sum = np.add.reduce
_max = np.maximum.reduce


def _unit_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = u.unit() if isinstance(u, WeightVector) else np.asarray(u, dtype=float)
    b = v.unit() if isinstance(v, WeightVector) else np.asarray(v, dtype=float)
    if not isinstance(u, WeightVector):
        a = a / a.sum()
    if not isinstance(v, WeightVector):
        b = b / b.sum()
    if a.shape != b.shape:
        raise DimensionMismatchError(f"vector lengths differ: {a.shape} vs {b.shape}")
    return a, b


def euclidean(u, v) -> float:
    """Length of the line segment between two unit-sum vectors."""
    a, b = _unit_pair(u, v)
    return float(np.sqrt(np.sum((a - b) ** 2)))


def chebyshev(u, v) -> float:
    """Greatest componentwise absolute difference."""
    a, b = _unit_pair(u, v)
    return float(np.max(np.abs(a - b)))


def max_ratio(u, v) -> float:
    """Largest of u_i/v_i and v_i/u_i over all components; 1 iff equal."""
    a, b = _unit_pair(u, v)
    r = a / b
    return float(np.max(np.maximum(r, 1.0 / r)))


def kendall_tau(u, v) -> float:
    """Rank correlation: (#concordant - #discordant) / (n(n-1)/2).

    A pair (i, j) is concordant when both vectors order it the same way
    and discordant when they disagree; exact ties count as neither and the
    denominator is not corrected for them.
    """
    a, b = _unit_pair(u, v)
    n = a.shape[0]
    du = np.sign(a[:, None] - a[None, :])
    dv = np.sign(b[:, None] - b[None, :])
    prod = du * dv
    iu, ju = np.triu_indices(n, 1)
    upper = prod[iu, ju]
    concordant = int(np.sum(upper > 0))
    discordant = int(np.sum(upper < 0))
    return (concordant - discordant) / (n * (n - 1) / 2)


# Ties count as "at least as close".  Where the compared vectors coincide
# analytically (consistent input, three alternatives) both distances are
# pure solver noise, so the tie needs a tolerance well below any distance
# a measurably inconsistent matrix can produce.
_TIE_EPS = 1e-9


def rgm_at_least_as_close(metric: str, to_rgm, to_inverse_left):
    """Non-strict closer comparison; accepts scalars or aligned arrays."""
    if metric == "kendall":
        return to_rgm >= to_inverse_left
    if metric == "max_ratio":
        return to_rgm <= to_inverse_left * (1.0 + _TIE_EPS)
    return to_rgm <= to_inverse_left + _TIE_EPS


@dataclass(frozen=True)
class ComparisonRecord:
    """Per-matrix comparison of the priority-derivation methods.

    `values[m]` holds metric m between the right eigenvector and, in
    order, the inverse-left, combined, and row-geometric-mean vectors.
    `closer[m]` is True when the row geometric mean is at least as close
    to the right eigenvector as the inverse-left vector under metric m.
    """

    cr: float
    values: Mapping[str, tuple[float, float, float]]
    closer: Mapping[str, bool]
    top_reversal: bool
    any_reversal: bool

    def value(self, metric: str, pair: str) -> float:
        return self.values[metric][PAIRS.index(pair)]


def metric_blocks(right: np.ndarray, others: Sequence[np.ndarray]) -> np.ndarray:
    """All four metrics between each row of `right` and the same row of
    every array in `others`, all (batch, n) and unit-sum.

    Returns shape (len(METRICS), len(others), batch).  The pairs are taken
    one at a time so that no more than one (batch, n(n-1)/2) sign block per
    vector is alive at once.
    """
    batch, n = right.shape
    out = np.empty((len(METRICS), len(others), batch))
    iu, ju = np.triu_indices(n, 1)
    pairs = n * (n - 1) / 2
    sign_r = np.sign(right[:, iu] - right[:, ju])
    for p, other in enumerate(others):
        diff = right - other
        out[0, p] = np.sqrt(_sum(diff * diff, axis=1))
        out[1, p] = _max(np.abs(diff), axis=1)
        ratio = right / other
        out[2, p] = _max(np.maximum(ratio, 1.0 / ratio), axis=1)
        prod = sign_r * np.sign(other[:, iu] - other[:, ju])
        out[3, p] = (_sum(prod > 0, axis=1) - _sum(prod < 0, axis=1)) / pairs
    return out


def record_from_vectors(right: np.ndarray, inverse_left: np.ndarray,
                        combined: np.ndarray, rgm: np.ndarray,
                        cr: float) -> ComparisonRecord:
    """Assemble a ComparisonRecord from already computed unit-sum vectors.

    Each vector is renormalized to unit sum once, then scored by
    `metric_blocks` as a batch of one.
    """
    vecs = np.stack([right, inverse_left, combined, rgm])
    vecs = vecs / vecs.sum(axis=1)[:, None]
    block = metric_blocks(vecs[None, 0], (vecs[None, 1], vecs[None, 2], vecs[None, 3]))
    values = {m: tuple(float(x) for x in block[mi, :, 0]) for mi, m in enumerate(METRICS)}
    closer = {m: bool(rgm_at_least_as_close(m, values[m][2], values[m][0])) for m in METRICS}
    top_reversal = int(np.argmax(right)) != int(np.argmax(inverse_left))
    d_r = np.sign(right[:, None] - right[None, :])
    d_l = np.sign(inverse_left[:, None] - inverse_left[None, :])
    any_reversal = bool(np.any(d_r * d_l < 0))
    return ComparisonRecord(cr=cr, values=values, closer=closer,
                            top_reversal=top_reversal, any_reversal=any_reversal)


def compare_methods(matrix: PCMatrix, ri_table: RiTable | None = None,
                    config: EigenSolverConfig | None = None) -> ComparisonRecord:
    """Evaluate all four metrics for one matrix against all three vectors."""
    table = ri_table if ri_table is not None else default_ri_table()
    right, left = eigen_system(matrix, config)
    wr = right.weights.priorities
    inv = 1.0 / left.weights.priorities
    inv = inv / inv.sum()
    combined = wr * inv
    combined = combined / combined.sum()
    rgm = row_geometric_mean(matrix).priorities
    report: ConsistencyReport = report_from_lambda(matrix.n, right.lambda_max, table)
    return record_from_vectors(wr, inv, combined, rgm, report.cr)
