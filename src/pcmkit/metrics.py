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

from ._power import _max, _row_sum, _sum
from .consistency import RiTable, default_ri_table
from .core import PCMatrix, _upper_indices
from .weighting import (combined_eigenvector, consistency_index, eigen_system,
                        inverse_left_eigenvector, row_geometric_mean)

METRICS = ("euclidean", "chebyshev", "max_ratio", "kendall")

# Vector pairs measured per matrix, all anchored at the right eigenvector.
PAIRS = ("inverse_left", "combined", "row_geometric_mean")


# Ties count as "at least as close".  Where the compared vectors coincide
# analytically (consistent input, three alternatives) both distances are
# pure solver noise, so the tie needs a tolerance well below any distance
# a measurably inconsistent matrix can produce.
_TIE_EPS = 1e-9
# The rule, one (4, 1) column per constant in METRICS order: the RGM is at least
# as close when _SIGN * to_rgm <= _SIGN * to_inverse_left * _SCALE + _SHIFT.
_SIGN, _SCALE, _SHIFT = (np.array(column)[:, None] for column in zip(
    (1.0, 1.0, _TIE_EPS),         # euclidean: within _TIE_EPS
    (1.0, 1.0, _TIE_EPS),         # chebyshev: within _TIE_EPS
    (1.0, 1.0 + _TIE_EPS, 0.0),   # max_ratio: within a factor 1 + _TIE_EPS
    (-1.0, 1.0, 0.0)))            # kendall: larger is closer, ties exactly


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
    """All four metrics between each column of `right` and the same column
    of every array in `others`, all (n, batch) and unit-sum.

    Returns shape (len(METRICS), len(others), batch).  The pairs are taken
    one at a time so that no more than one (n(n-1)/2, batch) sign block per
    vector is alive at once.

    Kendall tau is (#concordant - #discordant) / (n(n-1)/2): a pair (i, j)
    is concordant when both vectors order it the same way and discordant
    when they disagree; exact ties count as neither, and the denominator is
    not corrected for them.

    Every reduction runs over axis 0.  The Euclidean sum of squares, which
    rounds, goes through `_row_sum`, whose order a column gets in any
    batch.  The maxima and the Kendall sum run along axis 0 directly, as a
    few elementwise passes over rows of length batch: a maximum is exact in
    any order, and the Kendall sum adds sign products in {-1, 0, 1} into an
    exact small integer, #concordant - #discordant.
    """
    n, batch = right.shape
    out = np.empty((len(METRICS), len(others), batch))
    iu, ju = _upper_indices(n)
    pairs = n * (n - 1) / 2
    sign_r = np.sign(right[iu] - right[ju])
    for p, other in enumerate(others):
        diff = right - other
        out[0, p] = np.sqrt(_row_sum(diff * diff))
        out[1, p] = _max(np.abs(diff), axis=0)
        ratio = right / other
        out[2, p] = _max(np.maximum(ratio, 1.0 / ratio), axis=0)
        out[3, p] = _sum(sign_r * np.sign(other[iu] - other[ju]), axis=0) / pairs
    return out


def comparison_flags(values: np.ndarray, right: np.ndarray,
                     inverse_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(closer, top) of a batch from `metric_blocks(right, (inverse_left,
    combined, rgm))`: closer[m, k] when the RGM of column k is at least as
    close as its inverse-left vector under metric m, top[k] when the right
    and inverse-left vectors of column k rank different alternatives first."""
    closer = _SIGN * values[:, 2] <= _SIGN * values[:, 0] * _SCALE + _SHIFT
    top = np.argmax(right, axis=0) != np.argmax(inverse_left, axis=0)
    return closer, top


def record_from_vectors(right: np.ndarray, inverse_left: np.ndarray,
                        combined: np.ndarray, rgm: np.ndarray,
                        cr: float) -> ComparisonRecord:
    """Assemble a ComparisonRecord from already computed unit-sum vectors.

    The vectors are scored as given, with no renormalization, by one
    `metric_blocks` pass, the right vector three times against the other
    three side by side, and `comparison_flags`: by rule 3 of `_power`, each
    pair gets the bits of the simulation's arithmetic on a batch.
    """
    block = metric_blocks(np.array((right, right, right)).T,
                          (np.array((inverse_left, combined, rgm)).T,))[:, 0, :, None]
    closer, top = comparison_flags(block, right[:, None], inverse_left[:, None])
    iu, ju = _upper_indices(len(right))
    signs = np.sign(right[iu] - right[ju]) * np.sign(inverse_left[iu] - inverse_left[ju])
    return ComparisonRecord(
        cr=cr,
        values={m: tuple(block[mi, :, 0].tolist()) for mi, m in enumerate(METRICS)},
        closer={m: bool(closer[mi, 0]) for mi, m in enumerate(METRICS)},
        top_reversal=bool(top[0]),
        any_reversal=bool((signs < 0).any()),
    )


def compare_methods(matrix: PCMatrix, ri_table: RiTable | None = None) -> ComparisonRecord:
    """Evaluate all four metrics for one matrix against all three vectors.

    Bit for bit the record the simulation computes for the same matrix.
    Raises the NonPositiveWeightError of the WeightVector it reads when the
    inverse-left, combined or RGM vector is not positive and finite.  CR is
    CI / RI, with the bits `_ci` gives CI.
    """
    table = ri_table if ri_table is not None else default_ri_table()
    right, _ = eigen_system(matrix)
    inverse_left, combined, rgm = (vector(matrix).priorities for vector in (
        inverse_left_eigenvector, combined_eigenvector, row_geometric_mean))
    return record_from_vectors(right.weights.priorities, inverse_left, combined, rgm,
                               float(consistency_index(matrix) / table.ri(matrix.n)))
