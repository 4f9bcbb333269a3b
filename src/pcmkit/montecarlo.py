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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._power import power_iterate
from .consistency import _CI_NOISE_FLOOR, RiTable, default_ri_table
from .core import PCMatrix
from .errors import EmptyBinError, NoConvergenceError
from .metrics import METRICS, ComparisonRecord, record_from_vectors, rgm_at_least_as_close
from .weighting import DEFAULT_SOLVER, EigenSolverConfig

_BATCH = 8192

# Pair order inside sum arrays, anchored at the right eigenvector.
_PAIR_COUNT = 3


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")

    @property
    def n_bins(self) -> int:
        """Regular bins below the cap; index n_bins is the overflow bucket."""
        return int(math.ceil(self.cr_cap / self.bin_width - 1e-12))

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
    n = mats.shape[1]
    tol, max_iter = solver.convergence_tol, solver.max_iterations
    wr, lam_r, _, _, conv_r = power_iterate(mats, tol, max_iter)
    transposed = np.ascontiguousarray(mats.transpose(0, 2, 1))
    wl, lam_l, _, _, conv_l = power_iterate(transposed, tol, max_iter)
    allowed = max(1e-9, 4.0 * n * tol)
    agree = np.abs(lam_l - lam_r) <= allowed * lam_r
    ok = conv_r & conv_l & agree

    inv = 1.0 / wl
    inv /= inv.sum(axis=1)[:, None]
    combined = wr * inv
    combined /= combined.sum(axis=1)[:, None]
    rgm = np.exp(np.log(mats).mean(axis=2))
    rgm /= rgm.sum(axis=1)[:, None]
    return wr, inv, combined, rgm, lam_r, ok


def _metric_blocks(right: np.ndarray, others: Sequence[np.ndarray]) -> np.ndarray:
    """Metric values, shape (len(METRICS), len(others), batch)."""
    batch, n = right.shape
    out = np.empty((len(METRICS), len(others), batch))
    iu, ju = np.triu_indices(n, 1)
    pairs = n * (n - 1) / 2
    sign_r = np.sign(right[:, :, None] - right[:, None, :])[:, iu, ju]
    for p, other in enumerate(others):
        diff = right - other
        out[0, p] = np.sqrt(np.sum(diff * diff, axis=1))
        out[1, p] = np.max(np.abs(diff), axis=1)
        ratio = right / other
        out[2, p] = np.max(np.maximum(ratio, 1.0 / ratio), axis=1)
        sign_o = np.sign(other[:, :, None] - other[:, None, :])[:, iu, ju]
        prod = sign_r * sign_o
        concordant = np.sum(prod > 0, axis=1)
        discordant = np.sum(prod < 0, axis=1)
        out[3, p] = (concordant - discordant) / pairs
    return out


def records_for_matrices(mats: np.ndarray, ri: float,
                         solver: EigenSolverConfig | None = None) -> list[ComparisonRecord]:
    """Per-matrix comparison records for a stack sharing one matrix order."""
    solver = solver or DEFAULT_SOLVER
    wr, inv, combined, rgm, lam, ok = batch_vectors(np.asarray(mats, dtype=float), solver)
    if not ok.all():
        bad = int(np.argmax(~ok))
        raise NoConvergenceError(solver.max_iterations, float("nan"),
                                 f"matrix {bad} of the batch failed to converge")
    n = mats.shape[1]
    cr = _cr_from_lambda(lam, n, ri)
    return [
        record_from_vectors(wr[k], inv[k], combined[k], rgm[k], float(cr[k]))
        for k in range(mats.shape[0])
    ]


def _cr_from_lambda(lam: np.ndarray, n: int, ri: float) -> np.ndarray:
    ci = (lam - n) / (n - 1)
    ci = np.where(np.abs(ci) < _CI_NOISE_FLOOR, 0.0, ci)
    return ci / ri


def closest_probability(records: Sequence[ComparisonRecord], metric: str) -> float:
    """Share of records whose row geometric mean is at least as close to the
    right eigenvector as the inverse-left vector under the given metric."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if not records:
        raise EmptyBinError(f"no records to aggregate for metric {metric!r}")
    return float(np.mean([r.closer[metric] for r in records]))


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
    tasks = []
    for cell_index, (n, delta) in enumerate(config.cells()):
        remaining = config.matrices_per_cell
        batch_index = 0
        while remaining > 0:
            count = min(_BATCH, remaining)
            tasks.append(SimTask(cell_index, n, delta, batch_index, count))
            remaining -= count
            batch_index += 1
    return tasks


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

    cr = _cr_from_lambda(lam, task.n, ri)
    nb = config.n_bins
    bins = np.minimum((cr / config.bin_width).astype(np.int64), nb - 1)
    bins = np.where(cr >= config.cr_cap, nb, bins)

    values = _metric_blocks(wr, (inv, combined, rgm))
    closer_flags = np.empty((len(METRICS), wr.shape[0]), dtype=bool)
    for mi, m in enumerate(METRICS):
        closer_flags[mi] = rgm_at_least_as_close(m, values[mi, 2], values[mi, 0])
    top_rev = np.argmax(wr, axis=1) != np.argmax(inv, axis=1)

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


def _run_task_star(args) -> TaskPartial:
    return run_task(*args)


class _CellAccumulator:
    def __init__(self, nb: int):
        self.counts = np.zeros(nb + 1, dtype=np.int64)
        self.sums = np.zeros((len(METRICS), _PAIR_COUNT, nb + 1))
        self.closer = np.zeros((len(METRICS), nb + 1), dtype=np.int64)
        self.top = np.zeros(nb + 1, dtype=np.int64)

    def add(self, p: TaskPartial) -> None:
        self.counts += p.counts
        self.sums += p.sums
        self.closer += p.closer
        self.top += p.top_reversals

    def merge(self, other: "_CellAccumulator") -> None:
        self.counts += other.counts
        self.sums += other.sums
        self.closer += other.closer
        self.top += other.top


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
            top_reversal_rate=float(acc.top[b] / count),
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

    pooled_acc: dict[int, _CellAccumulator] = {}
    for n in config.dims:
        acc = _CellAccumulator(nb)
        for d in config.deltas:
            acc.merge(per_cell[(n, d)])
        pooled_acc[n] = acc

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
    args = [(config, t, ris[t.n], solver) for t in tasks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_task_star, args, chunksize=1))
    else:
        partials = [run_task(*a) for a in args]
    result = reduce_partials(config, partials)
    if result.nonconverged:
        raise NoConvergenceError(
            (solver or DEFAULT_SOLVER).max_iterations, float("nan"),
            f"{result.nonconverged} matrices failed to converge; bins would be skewed",
        )
    return result
