from typing import NamedTuple

import numpy as np
import pytest

from pcmkit import METRICS, PCMatrix, RiTable, validate
from pcmkit.core import STRICT_FILE_POLICY, reciprocal_from_upper
from pcmkit.montecarlo import _CLOSER, _PAIR_COUNT
from pcmkit.verify import CASES


def case_matrix(name: str):
    for case in CASES:
        if case.name == name:
            return case.matrix
    raise KeyError(name)


@pytest.fixture(scope="session")
def four_alt():
    """Four-alternative matrix with a published right/inverse-left flip."""
    return case_matrix("four-alternative-reversal")


@pytest.fixture(scope="session")
def reciprocal_pair():
    """Inconsistent matrix whose left/right eigenvectors are still reciprocal."""
    return case_matrix("reciprocal-pair-family")


@pytest.fixture(scope="session")
def five_alt():
    return case_matrix("five-alternative-acceptable")


@pytest.fixture(scope="session")
def near_consistent():
    return case_matrix("minimal-inconsistency-reversal")


@pytest.fixture(scope="session")
def full_reversal():
    return case_matrix("fully-reversed-ranking")


@pytest.fixture(scope="session")
def distant_reversal():
    return case_matrix("distant-priority-reversal")


@pytest.fixture(scope="session")
def judge_pair():
    return case_matrix("opposed-judges-first"), case_matrix("opposed-judges-second")


def random_reciprocal(n: int, rng: np.random.Generator):
    """Random reciprocal matrix with log-uniform entries in [1/9, 9]."""
    upper = np.exp(rng.uniform(-np.log(9.0), np.log(9.0), size=(n, n)))
    iu, ju = np.triu_indices(n, 1)
    return validate(reciprocal_from_upper(upper[iu, ju], n), STRICT_FILE_POLICY)


def consistent_from_weights(weights) -> PCMatrix:
    """The consistent matrix of ratios w_i / w_j."""
    w = np.asarray(weights, dtype=float)
    return PCMatrix(np.divide.outer(w, w))


def transpose(matrix) -> PCMatrix:
    """The reversed-question matrix: entry (i, j) becomes entry (j, i)."""
    return PCMatrix(matrix.entries.T.copy())


def permute(matrix, order) -> PCMatrix:
    """Entry (i, j) of the result compares alternative order[i] to order[j]."""
    return PCMatrix(matrix.entries[np.ix_(order, order)])


def cr_share_below(result, n: int, delta: float, cr: float) -> float:
    """Share of the (n, delta) cell's matrices whose CR is below `cr`, a bin
    edge under the cap, read from the count row of the cell's bin table."""
    counts = result.cell_tables[(n, delta)][0]
    edge = round(cr / result.config.bin_width)
    assert edge * result.config.bin_width == pytest.approx(cr) and cr < result.config.cr_cap
    return float(counts[:edge].sum() / counts.sum())


@pytest.fixture(scope="session")
def toy_ri_table():
    """Fixed small table so tests do not depend on the shipped estimates."""
    return RiTable.supplied({3: 0.525, 4: 0.88, 5: 1.11, 6: 1.25, 7: 1.34, 8: 1.40, 9: 1.45})


class ReferenceBin(NamedTuple):
    lower: float
    count: int
    means: tuple[tuple[float, ...], ...]  # [metric][pair]
    closer: tuple[float, ...]  # [metric]
    top_reversal: float
    suppressed: bool
    overflow: bool


def reference_bins(config, table) -> list[ReferenceBin]:
    """The non-empty bins of a bin table, built one bin at a time in scalar
    Python arithmetic: an independent reference for `bin_columns`."""
    out = []
    for b in range(table.shape[1]):
        sums = table[:, b].tolist()
        count = int(sums[0])
        if not count:
            continue
        means = [s / count for s in sums[1:_CLOSER]]
        out.append(ReferenceBin(
            lower=config.cr_cap if b == config.n_bins else b * config.bin_width,
            count=count,
            means=tuple(tuple(means[m * _PAIR_COUNT:(m + 1) * _PAIR_COUNT])
                        for m in range(len(METRICS))),
            closer=tuple(s / count for s in sums[_CLOSER:-1]),
            top_reversal=sums[-1] / count,
            suppressed=count < config.min_bin_count,
            overflow=b == config.n_bins))
    return out


def assert_columns_match_reference(columns, reference: list[ReferenceBin]) -> None:
    """Every column of a BinColumns has the bits, dtype and shape of the
    same column gathered from the reference bins."""
    want = {
        "lower": [r.lower for r in reference],
        "count": [r.count for r in reference],
        "means": [[[r.means[m][p] for r in reference] for p in range(_PAIR_COUNT)]
                  for m in range(len(METRICS))],
        "closer": [[r.closer[m] for r in reference] for m in range(len(METRICS))],
        "top_reversal": [r.top_reversal for r in reference],
        "suppressed": [r.suppressed for r in reference],
        "overflow": [r.overflow for r in reference],
    }
    for name, values in want.items():
        got = getattr(columns, name)
        expected = np.array(values, dtype=got.dtype)
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
