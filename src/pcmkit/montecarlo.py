"""Random perturbed-consistent matrices and the binned simulation pipeline.

The generator draws weights uniformly, builds the consistent ratio matrix,
and perturbs the above-unity entry of every pair with additive uniform
noise, folding values that would fall below one onto the reciprocal side
of the scale so the mirrored entry stays an exact reciprocal.

The simulation evaluates every generated matrix with all four comparison
measures, bins records by consistency ratio, and aggregates per-bin means
and closer-probabilities.  Work is split into fixed-size batches with
per-batch derived random streams and a reduction in fixed batch order, so
results are bitwise identical for any worker count and for merged partial
runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._power import power_iterate
from .consistency import RiTable, _chunk_sizes, _ci_cr, _ordered_map, default_ri_table
from .core import PCMatrix
from .errors import NoConvergenceError
from .metrics import METRICS, comparison_flags, metric_blocks
from .weighting import DEFAULT_SOLVER, EigenSolverConfig, _vector_rows

_BATCH = 8192

# Pair order inside sum arrays, anchored at the right eigenvector.
_PAIR_COUNT = 3

# 8-byte slots per bin in a task partial: counts, the metric sums of every
# pair, the closer counts of every metric, and top reversals.
_SLOTS_PER_BIN = 1 + len(METRICS) * _PAIR_COUNT + len(METRICS) + 1


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for one perturbed-consistent matrix cell."""

    n: int
    delta: float
    weight_low: float = 1.0
    weight_high: float = 9.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"matrix order must be >= 2, got {self.n}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"perturbation half-width must be finite and positive, "
                             f"got {self.delta}")
        if not (0.0 < self.weight_low < self.weight_high < math.inf):
            raise ValueError("need 0 < weight_low < weight_high < inf")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SimulationConfig:
    """Grid of generator cells plus binning controls.

    `matrices_per_cell` matrices are generated for every (n, delta) pair.
    Records are binned by floor(CR / bin_width); CR at or above `cr_cap`
    lands in a single overflow bucket rather than being discarded.  Bins
    holding fewer than `min_bin_count` records are flagged suppressed but
    still emitted.
    """

    dims: tuple[int, ...]
    deltas: tuple[float, ...]
    matrices_per_cell: int
    bin_width: float = 0.005
    min_bin_count: int = 1000
    cr_cap: float = 0.5
    seed: int = 0
    metrics: tuple[str, ...] = METRICS

    def __post_init__(self):
        dims = tuple(sorted(set(int(d) for d in self.dims)))
        deltas = tuple(sorted(set(float(d) for d in self.deltas)))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not dims or min(dims) < 3:
            raise ValueError("dims must contain orders >= 3")
        if not deltas or not all(math.isfinite(d) and d > 0.0 for d in deltas):
            raise ValueError(f"deltas must be finite and positive, got {deltas}")
        if self.matrices_per_cell < 1:
            raise ValueError("matrices_per_cell must be >= 1")
        if not (math.isfinite(self.bin_width) and self.bin_width > 0.0):
            raise ValueError(f"bin_width must be finite and positive, got {self.bin_width}")
        if self.min_bin_count < 0:
            raise ValueError("min_bin_count must be >= 0")
        if not (math.isfinite(self.cr_cap) and self.cr_cap > 0.0):
            raise ValueError(f"cr_cap must be finite and positive, got {self.cr_cap}")
        if not math.isfinite(self.cr_cap / self.bin_width):
            raise ValueError(f"bin_width {self.bin_width} splits cr_cap {self.cr_cap} "
                             "into more bins than a float can count")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")

    @property
    def n_bins(self) -> int:
        """Regular bins below the cap; index n_bins is the overflow bucket."""
        return max(1, int(math.ceil(self.cr_cap / self.bin_width - 1e-12)))

    def cells(self) -> list[tuple[int, float]]:
        return [(n, d) for n in self.dims for d in self.deltas]


@dataclass(frozen=True)
class BinStatistics:
    """Aggregates for one consistency-ratio bin.

    `delta` is None for statistics pooled over all perturbation widths.
    `means[m]` holds the mean of metric m between the right eigenvector
    and, in order, the inverse-left, combined, and row-geometric-mean
    vectors; `closer_probability[m]` is the share of records where the row
    geometric mean was at least as close as the inverse-left vector.  A
    bin whose lower edge equals the cap collects the overflow.
    """

    n: int
    delta: float | None
    bin_lower: float
    count: int
    means: Mapping[str, tuple[float, float, float]]
    closer_probability: Mapping[str, float]
    top_reversal_rate: float
    suppressed: bool
    overflow: bool = False


@dataclass(frozen=True)
class CrHistogram:
    """Counts of generated matrices per CR bin for every (n, delta) cell."""

    bin_width: float
    cr_cap: float
    counts: Mapping[tuple[int, float], np.ndarray]

    def total(self, n: int, delta: float) -> int:
        return int(self.counts[(n, delta)].sum())

    def fraction_below(self, n: int, delta: float, cr: float) -> float:
        """Share of matrices in the cell with CR strictly below a bin edge."""
        arr = self.counts[(n, delta)]
        upto = int(round(cr / self.bin_width))
        return float(arr[:upto].sum() / arr.sum())


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig
    histogram: CrHistogram
    pooled: Mapping[int, tuple[BinStatistics, ...]]
    per_delta: Mapping[tuple[int, float], tuple[BinStatistics, ...]]
    nonconverged: int


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def perturbed_batch(config: GeneratorConfig, rng: np.random.Generator,
                    count: int) -> np.ndarray:
    """Stack of `count` perturbed-consistent matrices as a (count, n, n) array.

    Draw order is fixed: first the weight block, then one epsilon per
    unordered pair in row-major upper-triangle order.
    """
    n = config.n
    weights = rng.uniform(config.weight_low, config.weight_high, size=(count, n))
    mats = weights[:, :, None] / weights[:, None, :]
    iu, ju = np.triu_indices(n, 1)
    eps = rng.uniform(-config.delta, config.delta, size=(count, len(iu)))

    upper = mats[:, iu, ju]
    # The entry >= 1 of each pair is the one perturbed; on a tied pair
    # (probability zero under continuous draws) the upper entry is taken.
    use_upper = upper >= 1.0
    base = np.where(use_upper, upper, mats[:, ju, iu])
    shifted = base + eps
    below = shifted < 1.0
    # Folding keeps the noise uniform on the scale where 1/b..1/c spans the
    # same distance as b..c; the denominator exceeds 1 whenever the shifted
    # value dropped below 1, so positivity never breaks.
    folded = 1.0 / (1.0 - eps - (base - 1.0))
    perturbed = np.where(below, folded, shifted)

    # Not core.reciprocal_from_upper: where the lower entry was perturbed it
    # is stored as `perturbed` itself, which 1 / (1 / perturbed) need not
    # reproduce bit for bit.
    mats[:, iu, ju] = np.where(use_upper, perturbed, 1.0 / perturbed)
    mats[:, ju, iu] = np.where(use_upper, 1.0 / perturbed, perturbed)
    ii = np.arange(n)
    mats[:, ii, ii] = 1.0
    return mats


def generate_perturbed(config: GeneratorConfig,
                       rng: np.random.Generator | None = None) -> PCMatrix:
    """One perturbed-consistent matrix; deterministic given the rng state."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return PCMatrix(perturbed_batch(config, rng, 1)[0])


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------

def batch_vectors(mats: np.ndarray, solver: EigenSolverConfig):
    """Right, inverse-left, combined, and row-geometric-mean vectors plus
    the dominant eigenvalue for a stack of matrices.

    Returns (right, inverse_left, combined, rgm, lam, ok) where ok flags
    rows whose two eigen runs both converged and agree on the eigenvalue.
    """
    tol, max_iter = solver.convergence_tol, solver.max_iterations
    wr, lam_r, _, _, conv_r = power_iterate(mats, tol, max_iter)
    transposed = np.ascontiguousarray(mats.transpose(0, 2, 1))
    wl, lam_l, _, _, conv_l = power_iterate(transposed, tol, max_iter)
    inv, combined, rgm, agree = _vector_rows(mats, wr, wl, lam_r, lam_l, tol)
    return wr, inv, combined, rgm, lam_r, conv_r & conv_l & agree


# ---------------------------------------------------------------------------
# Tasks, partials, reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimTask:
    cell_index: int
    n: int
    delta: float
    batch_index: int
    count: int


@dataclass
class TaskPartial:
    cell_index: int
    n: int
    delta: float
    batch_index: int
    counts: np.ndarray        # (bins+1,) int64, last slot = overflow
    sums: np.ndarray          # (metrics, pairs, bins+1) float64
    closer: np.ndarray        # (metrics, bins+1) int64
    top_reversals: np.ndarray  # (bins+1,) int64
    nonconverged: int


def simulation_tasks(config: SimulationConfig) -> list[SimTask]:
    """Deterministic task list: fixed-size batches per cell, independent of
    how many workers later execute them."""
    return [SimTask(cell_index, n, delta, batch_index, count)
            for cell_index, (n, delta) in enumerate(config.cells())
            for batch_index, count in enumerate(_chunk_sizes(config.matrices_per_cell, _BATCH))]


def run_task(config: SimulationConfig, task: SimTask, ri: float,
             solver: EigenSolverConfig | None = None) -> TaskPartial:
    """Generate and evaluate one batch; returns order-independent partial sums."""
    solver = solver or DEFAULT_SOLVER
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, task.cell_index, task.batch_index))
    )
    gen = GeneratorConfig(task.n, task.delta)
    mats = perturbed_batch(gen, rng, task.count)

    wr, inv, combined, rgm, lam, ok = batch_vectors(mats, solver)
    nonconverged = int((~ok).sum())
    if nonconverged:
        wr, inv, combined, rgm, lam = (a[ok] for a in (wr, inv, combined, rgm, lam))

    _, cr = _ci_cr(lam, task.n, ri)
    nb = config.n_bins
    bins = np.minimum((cr / config.bin_width).astype(np.int64), nb - 1)
    bins = np.where(cr >= config.cr_cap, nb, bins)

    values = metric_blocks(wr, (inv, combined, rgm))
    closer_flags, top_rev = comparison_flags(values, wr, inv)

    counts = np.bincount(bins, minlength=nb + 1).astype(np.int64)
    sums = np.empty((len(METRICS), _PAIR_COUNT, nb + 1))
    closer = np.empty((len(METRICS), nb + 1), dtype=np.int64)
    for mi in range(len(METRICS)):
        for p in range(_PAIR_COUNT):
            sums[mi, p] = np.bincount(bins, weights=values[mi, p], minlength=nb + 1)
        closer[mi] = np.bincount(bins, weights=closer_flags[mi], minlength=nb + 1).astype(np.int64)
    top = np.bincount(bins, weights=top_rev, minlength=nb + 1).astype(np.int64)

    return TaskPartial(task.cell_index, task.n, task.delta, task.batch_index,
                       counts, sums, closer, top, nonconverged)


class _CellAccumulator:
    def __init__(self, nb: int):
        self.counts = np.zeros(nb + 1, dtype=np.int64)
        self.sums = np.zeros((len(METRICS), _PAIR_COUNT, nb + 1))
        self.closer = np.zeros((len(METRICS), nb + 1), dtype=np.int64)
        self.top_reversals = np.zeros(nb + 1, dtype=np.int64)

    def add(self, other: "TaskPartial | _CellAccumulator") -> None:
        self.counts += other.counts
        self.sums += other.sums
        self.closer += other.closer
        self.top_reversals += other.top_reversals


def _bin_statistics(acc: _CellAccumulator, config: SimulationConfig, n: int,
                    delta: float | None) -> tuple[BinStatistics, ...]:
    nb = config.n_bins
    out = []
    for b in range(nb + 1):
        count = int(acc.counts[b])
        if count == 0:
            continue
        is_overflow = b == nb
        means = {
            m: tuple(float(acc.sums[mi, p, b] / count) for p in range(_PAIR_COUNT))
            for mi, m in enumerate(METRICS)
        }
        closer_probability = {
            m: float(acc.closer[mi, b] / count) for mi, m in enumerate(METRICS)
        }
        out.append(BinStatistics(
            n=n,
            delta=delta,
            bin_lower=config.cr_cap if is_overflow else b * config.bin_width,
            count=count,
            means=means,
            closer_probability=closer_probability,
            top_reversal_rate=float(acc.top_reversals[b] / count),
            suppressed=count < config.min_bin_count,
            overflow=is_overflow,
        ))
    return tuple(out)


def reduce_partials(config: SimulationConfig,
                    partials: Sequence[TaskPartial]) -> SimulationResult:
    """Combine task partials into the final statistics.

    Partials are summed in (cell, batch) order and deltas are pooled in
    sorted order, so the result is independent of how the partials were
    produced or in what order they arrive; merging the partials of two
    half-runs reproduces the full run exactly.
    """
    nb = config.n_bins
    cells = config.cells()
    per_cell = {cell: _CellAccumulator(nb) for cell in cells}
    nonconverged = 0
    for p in sorted(partials, key=lambda t: (t.cell_index, t.batch_index)):
        per_cell[(p.n, p.delta)].add(p)
        nonconverged += p.nonconverged

    pooled_acc = {n: _CellAccumulator(nb) for n in config.dims}
    for (n, _), acc in per_cell.items():  # deltas in sorted order
        pooled_acc[n].add(acc)

    histogram = CrHistogram(
        bin_width=config.bin_width,
        cr_cap=config.cr_cap,
        counts={cell: per_cell[cell].counts.copy() for cell in cells},
    )
    pooled = {n: _bin_statistics(pooled_acc[n], config, n, None) for n in config.dims}
    per_delta = {
        cell: _bin_statistics(per_cell[cell], config, cell[0], cell[1]) for cell in cells
    }
    return SimulationResult(config=config, histogram=histogram, pooled=pooled,
                            per_delta=per_delta, nonconverged=nonconverged)


def _check_bin_memory(config: SimulationConfig, n_tasks: int) -> None:
    """Refuse a run whose bin arrays cannot fit in this machine's memory.

    A run keeps every task partial until the reduction, which adds one
    accumulator per cell and per order, so a fine `bin_width` multiplies
    with the task count.
    """
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return
    arrays = n_tasks + len(config.cells()) + len(config.dims)
    need = 8 * _SLOTS_PER_BIN * (config.n_bins + 1) * arrays
    if need > memory:
        raise ValueError(
            f"bin_width {config.bin_width} gives {config.n_bins:.3g} bins; holding them for "
            f"{arrays} task partials and accumulators needs more than the "
            f"{memory / 2**30:.1f} GiB of memory")


def run_simulation(config: SimulationConfig, ri_table: RiTable | None = None,
                   workers: int = 1,
                   solver: EigenSolverConfig | None = None) -> SimulationResult:
    """Run the full grid and aggregate per-bin statistics.

    Deterministic for a given config seed whatever the worker count.  A
    matrix that fails to converge would silently skew the bins, so any
    such failure aborts the run with an error carrying the count; positive
    matrices are not expected to fail at all.
    """
    table = ri_table if ri_table is not None else default_ri_table()
    ris = {n: table.ri(n) for n in config.dims}
    tasks = simulation_tasks(config)
    _check_bin_memory(config, len(tasks))
    args = [(config, t, ris[t.n], solver) for t in tasks]
    result = reduce_partials(config, _ordered_map(run_task, args, workers))
    if result.nonconverged:
        raise NoConvergenceError(
            (solver or DEFAULT_SOLVER).max_iterations, float("nan"),
            f"{result.nonconverged} matrices failed to converge; bins would be skewed",
        )
    return result
