"""Built-in verification suite against published worked examples.

Each case embeds a judgment matrix exactly as published (fractions kept as
fractions, decimals as printed) together with the quantities reported for
it and explicit tolerances.  Every matrix is loaded by
`reconcile_matrix_text`: where a publication rounded the two triangles to
their printed decimals independently, each pair becomes the exactly
reciprocal midpoint of the values both printed entries admit; fractions and
integers load exactly as printed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .consistency import RiTable, consistency_ratio, default_ri_table
from .core import PCMatrix, reconcile_matrix_text
from .metrics import ComparisonRecord, compare_methods
from .weighting import (
    aggregate_matrices_geometric,
    aggregate_priorities_geometric,
    eigen_system,
    inverse_left_eigenvector,
    right_eigenvector,
    solve_together,
)


class _CaseContext:
    """Derived quantities of one matrix: its weight vectors on the sum-100
    scale at once, its CR and comparison record on first use.  A case with
    an aggregation partner also holds the run's matrix of the partner and
    the merged matrix of the two, both solved with the case matrices."""

    def __init__(self, matrix: PCMatrix, ri_table: RiTable,
                 partner: PCMatrix | None = None, merged: PCMatrix | None = None):
        self.matrix, self.ri_table, self.partner, self.merged = matrix, ri_table, partner, merged
        right, left = eigen_system(matrix)
        self.weights100 = {"right": right.weights.priorities * 100.0,
                           "left": left.weights.priorities * 100.0,
                           "inverse-left": inverse_left_eigenvector(matrix).priorities * 100.0}
        self.right100 = self.weights100["right"]
        self.inverse_left100 = self.weights100["inverse-left"]

    @cached_property
    def cr(self) -> float:
        return consistency_ratio(self.matrix, self.ri_table).cr

    @cached_property
    def record(self) -> ComparisonRecord:
        return compare_methods(self.matrix, self.ri_table)


# Bounded: the embedded cases hold eight texts.  The entries are read-only.
@lru_cache(maxsize=32)
def _reconciled(text: str) -> np.ndarray:
    """Entries of a published matrix, reconciled once per text.  Published
    decimals round both triangles independently; the loader reconciles each
    pair within the precision of its two printed entries."""
    return reconcile_matrix_text(text).entries


# Each evaluator takes the case context and its check's arguments and
# returns the check's label, whether it passed, and a detail line.  Weights
# and gaps are on the sum-100 scale; alternatives are numbered from 1.

def _weights(ctx: _CaseContext, method: str, expected: tuple[float, ...], tolerance: float,
             relative: bool = False):
    got = ctx.weights100[method]
    if relative:
        residual = float(np.max(np.abs(got / np.asarray(expected) - 1.0)))
    else:
        residual = float(np.max(np.abs(got - np.asarray(expected))))
    kind = "relative" if relative else "absolute"
    return (f"{method} weights within {tolerance:g} {kind}", residual <= tolerance,
            f"max residual {residual:.3e}")


def _cr_approx(ctx: _CaseContext, expected: float, tolerance: float):
    residual = abs(ctx.cr - expected)
    return (f"CR = {expected} within {tolerance:g}", residual <= tolerance,
            f"CR {ctx.cr:.5f}, residual {residual:.2e}")


def _cr_above(ctx: _CaseContext, threshold: float):
    return f"CR above {threshold}", ctx.cr > threshold, f"CR {ctx.cr:.5f}"


def _pair_flip(ctx: _CaseContext, first: int, second: int):
    """Right and inverse-left eigenvectors order two alternatives oppositely."""
    i, j = first - 1, second - 1
    r = ctx.right100[i] - ctx.right100[j]
    l = ctx.inverse_left100[i] - ctx.inverse_left100[j]
    return (f"alternatives {first} and {second} flip", r * l < 0,
            f"right gap {r:+.4f}, inverse-left gap {l:+.4f}")


def _top_flip(ctx: _CaseContext, right_top: int, inverse_left_top: int):
    rt = int(np.argmax(ctx.right100)) + 1
    lt = int(np.argmax(ctx.inverse_left100)) + 1
    return (f"top alternative {right_top} (right) vs {inverse_left_top} (inverse-left)",
            rt == right_top and lt == inverse_left_top, f"tops: right {rt}, inverse-left {lt}")


def _opposite_order(ctx: _CaseContext, right_order: tuple[int, ...],
                    inverse_left_order: tuple[int, ...]):
    """The two eigenvectors rank the alternatives in exactly opposite orders."""
    r_order = tuple(int(k) + 1 for k in np.argsort(-ctx.right100))
    l_order = tuple(int(k) + 1 for k in np.argsort(-ctx.inverse_left100))
    tau = ctx.record.value("kendall", "inverse_left")
    ok = r_order == right_order and l_order == inverse_left_order and tau == -1.0
    return ("fully reversed ranking (kendall = -1)", ok,
            f"orders {r_order} vs {l_order}, kendall {tau:+.3f}")


def _gap(ctx: _CaseContext, first: int, second: int, expected_right: float,
         expected_inverse_left: float, tolerance: float):
    """Absolute weight gap between two alternatives."""
    i, j = first - 1, second - 1
    gr = abs(ctx.right100[i] - ctx.right100[j])
    gl = abs(ctx.inverse_left100[i] - ctx.inverse_left100[j])
    ok = abs(gr - expected_right) <= tolerance and abs(gl - expected_inverse_left) <= tolerance
    return (f"|w_{first} - w_{second}| = {expected_right} (right) / "
            f"{expected_inverse_left} (inverse-left) within {tolerance:g}", ok,
            f"gaps {gr:.4f} / {gl:.4f}")


def _tiny_distance_reversal(ctx: _CaseContext, euclidean_below: float):
    """Rank reversal occurs although the eigenvectors are almost identical."""
    dist = ctx.record.value("euclidean", "inverse_left")
    ok = ctx.record.any_reversal and dist < euclidean_below
    return (f"reversal with euclidean distance below {euclidean_below:g}", ok,
            f"euclidean {dist:.2e}, any_reversal {ctx.record.any_reversal}")


def _inverse_left_equals_right(ctx: _CaseContext, tolerance: float):
    residual = float(np.max(np.abs(ctx.inverse_left100 / ctx.right100 - 1.0)))
    return (f"inverse-left equals right within {tolerance:g} relative", residual <= tolerance,
            f"max relative residual {residual:.3e}")


def _aggregation(ctx: _CaseContext, aip_greater: int, aip_smaller: int):
    """Judgment aggregation of the case and its opposed partner judge is the
    all-ones matrix with uniform priorities, while priority aggregation keeps
    component `aip_greater` above `aip_smaller`."""
    partner, merged = ctx.partner, ctx.merged
    ones_residual = float(np.max(np.abs(merged.entries - 1.0)))
    merged100 = right_eigenvector(merged).weights.priorities * 100.0
    uniform_residual = float(np.max(np.abs(merged100 - 100.0 / ctx.matrix.n)))
    aip = aggregate_priorities_geometric(
        [right_eigenvector(m).weights for m in (ctx.matrix, partner)]).priorities
    ordered = aip[aip_greater - 1] > aip[aip_smaller - 1]
    ok = ones_residual <= 1e-12 and uniform_residual <= 1e-6 and ordered
    return ("matrix aggregation uniform vs priority aggregation ordered", ok,
            f"entries off one by {ones_residual:.1e}, "
            f"weights off uniform by {uniform_residual:.1e}, "
            f"priority aggregation keeps {aip_greater} > {aip_smaller}: {ordered}")


class Check:
    """One published quantity: an evaluator above, called with the case
    context and these arguments."""

    __slots__ = ("evaluator", "args", "kwargs")

    def __init__(self, evaluator, *args, **kwargs):
        self.evaluator, self.args, self.kwargs = evaluator, args, kwargs

    def evaluate(self, ctx: _CaseContext) -> tuple[str, bool, str]:
        """(label, passed, detail)."""
        return self.evaluator(ctx, *self.args, **self.kwargs)


@dataclass(frozen=True)
class CheckOutcome:
    case: str
    check: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyCase:
    """A published matrix and its checks.  `aggregation_partner` is the text
    of the judge whose matrix `_aggregation` merges with this one."""

    name: str
    source: str
    matrix_text: str
    checks: tuple[Check, ...]
    aggregation_partner: str | None = None

    @property
    def matrix(self) -> PCMatrix:
        """A new instance on every access: the exact reconciliation runs
        once, but no memoized solve outlives the verification run, which solves
        its cases together, one call per order, with the bits each gets alone."""
        return PCMatrix(_reconciled(self.matrix_text))


_JUDGE_1 = """
4
1    1    1    9
1    1    2    5
1    1/2  1    9
1/9  1/5  1/9  1
"""

_JUDGE_2 = """
4
1    1    1    1/9
1    1    1/2  1/5
1    2    1    1/9
9    5    9    1
"""

_FOUR_ALT = """
4
1    3    1/3  1/2
1/3  1    1/6  2
3    6    1    1
2    1/2  1    1
"""

_RECIPROCAL_PAIR = """
4
1    8/5   1/4  4
5/8  1     5/8  10
4    8/5   1    4
1/4  1/10  1/4  1
"""

_FIVE_ALT = """
5
1    1    3    9  9
1    1    5    8  5
1/3  1/5  1    9  5
1/9  1/8  1/9  1  1
1/9  1/5  1/5  1  1
"""

_NEAR_CONSISTENT = """
4
1       0.4759  0.9832  0.4025
2.1011  1       1.9975  0.7374
1.0171  0.5006  1       0.3704
2.4842  1.3560  2.6998  1
"""

_FULL_REVERSAL = """
5
1      1.624  0.574  1.072  1.054
0.616  1      1.132  1.089  1.269
1.743  0.884  1      1.515  0.467
0.933  0.919  0.660  1      1.694
0.949  0.788  2.140  0.590  1
"""

_DISTANT_REVERSAL = """
5
1      0.371  2.013  5.389  0.243
2.698  1      4.596  7.527  0.736
0.497  0.218  1      2.321  0.167
0.186  0.133  0.431  1      0.385
4.120  1.359  5.973  2.598  1
"""

# The left-eigenvector components of the reciprocal-pair example are
# published as (1/4, 1/5, 1/8, 1); normalized to 100 they divide by 1.575.
_RP_LEFT = tuple(100.0 * x / 1.575 for x in (0.25, 0.2, 0.125, 1.0))

CASES: tuple[VerifyCase, ...] = (
    VerifyCase(
        name="opposed-judges-first",
        source="group decision example, judge 1 of an exactly opposed pair",
        matrix_text=_JUDGE_1,
        checks=(
            Check(_weights, "right", (32.42, 35.02, 28.21, 4.35), 0.005),
            Check(_aggregation, aip_greater=2, aip_smaller=1),
        ),
        aggregation_partner=_JUDGE_2,
    ),
    VerifyCase(
        name="opposed-judges-second",
        source="group decision example, judge 2 (transpose of judge 1)",
        matrix_text=_JUDGE_2,
        checks=(
            Check(_weights, "right", (8.86, 9.05, 11.04, 71.05), 0.005),
        ),
    ),
    VerifyCase(
        name="four-alternative-reversal",
        source="Johnson, Beine & Wang (1979)",
        matrix_text=_FOUR_ALT,
        checks=(
            Check(_weights, "right", (18.44, 15.19, 43.64, 22.73), 0.005),
            Check(_weights, "left", (24.82, 38.78, 10.49, 25.91), 0.005),
            Check(_weights, "inverse-left", (20.14, 12.89, 47.67, 19.29), 0.005),
            Check(_cr_approx, 0.331, 0.01),
            Check(_pair_flip, 1, 4),
        ),
    ),
    VerifyCase(
        name="reciprocal-pair-family",
        source="DeTurck (1987)",
        matrix_text=_RECIPROCAL_PAIR,
        checks=(
            Check(_weights, "right", (100 * 2 / 9, 100 * 5 / 18, 100 * 4 / 9, 100 / 18),
                  1e-6, relative=True),
            Check(_weights, "left", _RP_LEFT, 1e-6, relative=True),
            Check(_inverse_left_equals_right, 1e-6),
            Check(_cr_above, 0.1),
        ),
    ),
    VerifyCase(
        name="five-alternative-acceptable",
        source="Dodd, Donegan & McMaster (1995)",
        matrix_text=_FIVE_ALT,
        checks=(
            Check(_weights, "right", (36.5652, 38.9564, 16.7155, 3.4693, 4.2936), 0.0005),
            Check(_weights, "inverse-left", (40.6431, 36.4208, 15.0669, 3.4391, 4.4302), 0.0005),
            Check(_cr_approx, 0.082, 0.005),
            Check(_top_flip, right_top=2, inverse_left_top=1),
        ),
    ),
    VerifyCase(
        name="minimal-inconsistency-reversal",
        source="randomly found example: reversal at near-zero inconsistency",
        matrix_text=_NEAR_CONSISTENT,
        checks=(
            Check(_weights, "right", (15.042, 30.274, 15.037, 39.647), 0.005),
            Check(_weights, "inverse-left", (15.036, 30.281, 15.049, 39.635), 0.005),
            Check(_cr_approx, 0.0007, 0.0005),
            Check(_pair_flip, 1, 3),
            Check(_tiny_distance_reversal, euclidean_below=0.001),
        ),
    ),
    VerifyCase(
        name="fully-reversed-ranking",
        source="randomly found example: exactly opposite rankings",
        matrix_text=_FULL_REVERSAL,
        checks=(
            Check(_weights, "right", (19.75, 19.16, 20.85, 19.53, 20.71), 0.005),
            Check(_weights, "inverse-left", (20.25, 20.55, 19.31, 20.27, 19.62), 0.005),
            Check(_cr_approx, 0.078, 0.005),
            Check(_opposite_order, (3, 5, 1, 4, 2), (2, 4, 1, 5, 3)),
        ),
    ),
    VerifyCase(
        name="distant-priority-reversal",
        source="randomly found example: top reversal between distant priorities",
        matrix_text=_DISTANT_REVERSAL,
        checks=(
            Check(_weights, "right", (15.26, 33.23, 7.74, 5.68, 38.08), 0.005),
            Check(_weights, "inverse-left", (15.29, 37.84, 8.55, 4.93, 33.39), 0.005),
            Check(_cr_approx, 0.0993, 0.003),
            Check(_top_flip, right_top=5, inverse_left_top=2),
            Check(_gap, 2, 5, expected_right=4.85, expected_inverse_left=4.44, tolerance=0.05),
        ),
    ),
)


@dataclass(frozen=True)
class VerificationReport:
    outcomes: tuple[CheckOutcome, ...]
    elapsed_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.passed)


def run_verification(ri_table: RiTable | None = None) -> VerificationReport:
    """Evaluate every embedded case; all quantities carry explicit tolerances."""
    table = ri_table if ri_table is not None else default_ri_table()
    started = time.perf_counter()
    outcomes = []
    matrices = {case.matrix_text: case.matrix for case in CASES}
    # Each merged matrix is solved with the case matrices of its order.
    merged = {case.name: aggregate_matrices_geometric(
                  [matrices[case.matrix_text], matrices[case.aggregation_partner]])
              for case in CASES if case.aggregation_partner}
    solve_together([*matrices.values(), *merged.values()])
    for case in CASES:
        ctx = _CaseContext(matrices[case.matrix_text], table,
                           matrices.get(case.aggregation_partner), merged.get(case.name))
        for check in case.checks:
            outcomes.append(CheckOutcome(case.name, *check.evaluate(ctx)))
    return VerificationReport(tuple(outcomes), time.perf_counter() - started)
