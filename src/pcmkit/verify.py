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
from functools import cached_property

import numpy as np

from .consistency import RiTable, default_ri_table, report_from_lambda
from .core import Normalization, PCMatrix, reconcile_matrix_text
from .metrics import ComparisonRecord, compare_methods, euclidean
from .weighting import (
    aggregate_matrices_geometric,
    aggregate_priorities_geometric,
    eigen_system,
    inverse_left_eigenvector,
    right_eigenvector,
)


@dataclass
class _CaseContext:
    """Lazily computed derived quantities for one matrix."""

    matrix: PCMatrix
    ri_table: RiTable

    @cached_property
    def eigen(self):
        return eigen_system(self.matrix)

    @cached_property
    def right100(self) -> np.ndarray:
        return self.eigen[0].weights.priorities * 100.0

    @cached_property
    def left100(self) -> np.ndarray:
        return self.eigen[1].weights.priorities * 100.0

    @cached_property
    def inverse_left100(self) -> np.ndarray:
        return inverse_left_eigenvector(self.matrix).priorities * 100.0

    @cached_property
    def cr(self) -> float:
        return report_from_lambda(self.matrix.n, self.eigen[0].lambda_max, self.ri_table).cr

    @cached_property
    def record(self) -> ComparisonRecord:
        return compare_methods(self.matrix, self.ri_table)

    def weights100(self, method: str) -> np.ndarray:
        return {"right": self.right100, "left": self.left100,
                "inverse-left": self.inverse_left100}[method]


@dataclass(frozen=True)
class CheckOutcome:
    case: str
    check: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class WeightsCheck:
    """Weight vector matches its published values on the sum-100 scale."""

    method: str
    expected: tuple[float, ...]
    tolerance: float
    relative: bool = False

    def label(self) -> str:
        kind = "relative" if self.relative else "absolute"
        return f"{self.method} weights within {self.tolerance:g} {kind}"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        got = ctx.weights100(self.method)
        expected = np.asarray(self.expected)
        if self.relative:
            residual = float(np.max(np.abs(got / expected - 1.0)))
        else:
            residual = float(np.max(np.abs(got - expected)))
        return residual <= self.tolerance, f"max residual {residual:.3e}"


@dataclass(frozen=True)
class CrApproxCheck:
    expected: float
    tolerance: float

    def label(self) -> str:
        return f"CR = {self.expected} within {self.tolerance:g}"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        residual = abs(ctx.cr - self.expected)
        return residual <= self.tolerance, f"CR {ctx.cr:.5f}, residual {residual:.2e}"


@dataclass(frozen=True)
class CrAboveCheck:
    threshold: float = 0.1

    def label(self) -> str:
        return f"CR above {self.threshold}"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        return ctx.cr > self.threshold, f"CR {ctx.cr:.5f}"


@dataclass(frozen=True)
class PairFlipCheck:
    """Right and inverse-left eigenvectors order two alternatives oppositely."""

    first: int   # 1-based alternative indices
    second: int

    def label(self) -> str:
        return f"alternatives {self.first} and {self.second} flip"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        i, j = self.first - 1, self.second - 1
        r = ctx.right100[i] - ctx.right100[j]
        l = ctx.inverse_left100[i] - ctx.inverse_left100[j]
        return r * l < 0, f"right gap {r:+.4f}, inverse-left gap {l:+.4f}"


@dataclass(frozen=True)
class TopFlipCheck:
    right_top: int
    inverse_left_top: int

    def label(self) -> str:
        return f"top alternative {self.right_top} (right) vs {self.inverse_left_top} (inverse-left)"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        rt = int(np.argmax(ctx.right100)) + 1
        lt = int(np.argmax(ctx.inverse_left100)) + 1
        ok = rt == self.right_top and lt == self.inverse_left_top
        return ok, f"tops: right {rt}, inverse-left {lt}"


@dataclass(frozen=True)
class OppositeOrderCheck:
    """The two eigenvectors rank the alternatives in exactly opposite orders."""

    right_order: tuple[int, ...]
    inverse_left_order: tuple[int, ...]

    def label(self) -> str:
        return "fully reversed ranking (kendall = -1)"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        r_order = tuple(int(k) + 1 for k in np.argsort(-ctx.right100))
        l_order = tuple(int(k) + 1 for k in np.argsort(-ctx.inverse_left100))
        tau = ctx.record.value("kendall", "inverse_left")
        ok = (r_order == self.right_order and l_order == self.inverse_left_order
              and tau == -1.0)
        return ok, f"orders {r_order} vs {l_order}, kendall {tau:+.3f}"


@dataclass(frozen=True)
class GapCheck:
    """Absolute weight gap between two alternatives, sum-100 scale."""

    first: int
    second: int
    expected_right: float
    expected_inverse_left: float
    tolerance: float

    def label(self) -> str:
        return (f"|w_{self.first} - w_{self.second}| = {self.expected_right} (right) / "
                f"{self.expected_inverse_left} (inverse-left) within {self.tolerance:g}")

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        i, j = self.first - 1, self.second - 1
        gr = abs(ctx.right100[i] - ctx.right100[j])
        gl = abs(ctx.inverse_left100[i] - ctx.inverse_left100[j])
        ok = (abs(gr - self.expected_right) <= self.tolerance
              and abs(gl - self.expected_inverse_left) <= self.tolerance)
        return ok, f"gaps {gr:.4f} / {gl:.4f}"


@dataclass(frozen=True)
class TinyDistanceReversalCheck:
    """Rank reversal occurs although the eigenvectors are almost identical."""

    euclidean_below: float

    def label(self) -> str:
        return f"reversal with euclidean distance below {self.euclidean_below:g}"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        dist = euclidean(ctx.right100 / 100.0, ctx.inverse_left100 / 100.0)
        ok = ctx.record.any_reversal and dist < self.euclidean_below
        return ok, f"euclidean {dist:.2e}, any_reversal {ctx.record.any_reversal}"


@dataclass(frozen=True)
class InverseLeftEqualsRightCheck:
    tolerance: float = 1e-6

    def label(self) -> str:
        return f"inverse-left equals right within {self.tolerance:g} relative"

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        residual = float(np.max(np.abs(ctx.inverse_left100 / ctx.right100 - 1.0)))
        return residual <= self.tolerance, f"max relative residual {residual:.3e}"


@dataclass(frozen=True)
class AggregationCheck:
    """Judgment aggregation of two opposed judges is the all-ones matrix with
    uniform priorities, while priority aggregation keeps a strict order."""

    partner_text: str
    aip_greater: int   # 1-based component that must exceed...
    aip_smaller: int   # ... this one under priority aggregation

    def label(self) -> str:
        return "matrix aggregation uniform vs priority aggregation ordered"

    @cached_property
    def _partner_entries(self) -> np.ndarray:
        return reconcile_matrix_text(self.partner_text).entries

    def evaluate(self, ctx: _CaseContext) -> tuple[bool, str]:
        partner = PCMatrix(self._partner_entries)
        merged = aggregate_matrices_geometric([ctx.matrix, partner])
        ones_residual = float(np.max(np.abs(merged.entries - 1.0)))
        merged_w = right_eigenvector(merged).weights
        uniform_residual = float(np.max(np.abs(
            merged_w.rescaled(Normalization.SUM_HUNDRED).priorities - 100.0 / ctx.matrix.n
        )))
        aip = aggregate_priorities_geometric([
            right_eigenvector(ctx.matrix).weights,
            right_eigenvector(partner).weights,
        ]).priorities
        ordered = aip[self.aip_greater - 1] > aip[self.aip_smaller - 1]
        ok = ones_residual <= 1e-12 and uniform_residual <= 1e-6 and ordered
        return ok, (f"entries off one by {ones_residual:.1e}, "
                    f"weights off uniform by {uniform_residual:.1e}, "
                    f"priority aggregation keeps {self.aip_greater} > {self.aip_smaller}: {ordered}")


@dataclass(frozen=True)
class VerifyCase:
    name: str
    source: str
    matrix_text: str
    checks: tuple

    # Published decimals round both triangles independently; the loader
    # reconciles each pair within the precision of its two printed entries.
    @cached_property
    def _entries(self) -> np.ndarray:
        return reconcile_matrix_text(self.matrix_text).entries

    @property
    def matrix(self) -> PCMatrix:
        """A new instance on every access: the exact reconciliation runs
        once, but no eigen solve memoized on a matrix outlives the
        verification run that made it."""
        return PCMatrix(self._entries)


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
            WeightsCheck("right", (32.42, 35.02, 28.21, 4.35), 0.005),
            AggregationCheck(_JUDGE_2, aip_greater=2, aip_smaller=1),
        ),
    ),
    VerifyCase(
        name="opposed-judges-second",
        source="group decision example, judge 2 (transpose of judge 1)",
        matrix_text=_JUDGE_2,
        checks=(
            WeightsCheck("right", (8.86, 9.05, 11.04, 71.05), 0.005),
        ),
    ),
    VerifyCase(
        name="four-alternative-reversal",
        source="Johnson, Beine & Wang (1979)",
        matrix_text=_FOUR_ALT,
        checks=(
            WeightsCheck("right", (18.44, 15.19, 43.64, 22.73), 0.005),
            WeightsCheck("left", (24.82, 38.78, 10.49, 25.91), 0.005),
            WeightsCheck("inverse-left", (20.14, 12.89, 47.67, 19.29), 0.005),
            CrApproxCheck(0.331, 0.01),
            PairFlipCheck(1, 4),
        ),
    ),
    VerifyCase(
        name="reciprocal-pair-family",
        source="DeTurck (1987)",
        matrix_text=_RECIPROCAL_PAIR,
        checks=(
            WeightsCheck("right", (100 * 2 / 9, 100 * 5 / 18, 100 * 4 / 9, 100 / 18),
                         1e-6, relative=True),
            WeightsCheck("left", _RP_LEFT, 1e-6, relative=True),
            InverseLeftEqualsRightCheck(1e-6),
            CrAboveCheck(0.1),
        ),
    ),
    VerifyCase(
        name="five-alternative-acceptable",
        source="Dodd, Donegan & McMaster (1995)",
        matrix_text=_FIVE_ALT,
        checks=(
            WeightsCheck("right", (36.5652, 38.9564, 16.7155, 3.4693, 4.2936), 0.0005),
            WeightsCheck("inverse-left", (40.6431, 36.4208, 15.0669, 3.4391, 4.4302), 0.0005),
            CrApproxCheck(0.082, 0.005),
            TopFlipCheck(right_top=2, inverse_left_top=1),
        ),
    ),
    VerifyCase(
        name="minimal-inconsistency-reversal",
        source="randomly found example: reversal at near-zero inconsistency",
        matrix_text=_NEAR_CONSISTENT,
        checks=(
            WeightsCheck("right", (15.042, 30.274, 15.037, 39.647), 0.005),
            WeightsCheck("inverse-left", (15.036, 30.281, 15.049, 39.635), 0.005),
            CrApproxCheck(0.0007, 0.0005),
            PairFlipCheck(1, 3),
            TinyDistanceReversalCheck(euclidean_below=0.001),
        ),
    ),
    VerifyCase(
        name="fully-reversed-ranking",
        source="randomly found example: exactly opposite rankings",
        matrix_text=_FULL_REVERSAL,
        checks=(
            WeightsCheck("right", (19.75, 19.16, 20.85, 19.53, 20.71), 0.005),
            WeightsCheck("inverse-left", (20.25, 20.55, 19.31, 20.27, 19.62), 0.005),
            CrApproxCheck(0.078, 0.005),
            OppositeOrderCheck((3, 5, 1, 4, 2), (2, 4, 1, 5, 3)),
        ),
    ),
    VerifyCase(
        name="distant-priority-reversal",
        source="randomly found example: top reversal between distant priorities",
        matrix_text=_DISTANT_REVERSAL,
        checks=(
            WeightsCheck("right", (15.26, 33.23, 7.74, 5.68, 38.08), 0.005),
            WeightsCheck("inverse-left", (15.29, 37.84, 8.55, 4.93, 33.39), 0.005),
            CrApproxCheck(0.0993, 0.003),
            TopFlipCheck(right_top=5, inverse_left_top=2),
            GapCheck(2, 5, expected_right=4.85, expected_inverse_left=4.44, tolerance=0.05),
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


def run_verification(ri_table: RiTable | None = None,
                     cases: tuple[VerifyCase, ...] = CASES) -> VerificationReport:
    """Evaluate every embedded case; all quantities carry explicit tolerances."""
    table = ri_table if ri_table is not None else default_ri_table()
    started = time.perf_counter()
    outcomes = []
    for case in cases:
        ctx = _CaseContext(case.matrix, table)
        for check in case.checks:
            passed, detail = check.evaluate(ctx)
            outcomes.append(CheckOutcome(case.name, check.label(), passed, detail))
    return VerificationReport(tuple(outcomes), time.perf_counter() - started)
