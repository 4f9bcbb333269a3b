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
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from ._power import power_iterate
from .consistency import RiTable, _check_fits, _chunk_sizes, _ordered_map, default_ri_table
from .core import PCMatrix
from .errors import NoConvergenceError
from .metrics import METRICS, comparison_flags, metric_blocks
from .weighting import _MAX_ITERATIONS, _TOL, _ci, _vector_rows

_BATCH = 8192

# Pairs per metric, anchored at the right eigenvector.
_PAIR_COUNT = 3

# A bin table has one column per bin and _ROWS rows: the count, the sum of
# every metric and pair (metric-major), the closer count of every metric,
# and the top-reversal count.  Counts are float64, exact below 2**53.
_CLOSER = 1 + len(METRICS) * _PAIR_COUNT
_ROWS = _CLOSER + len(METRICS) + 1


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for one perturbed-consistent matrix cell."""

    n: int
    delta: float
    weight_low: float = 1.0
    weight_high: float = 9.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"matrix order must be >= 3, got {self.n}")
        if not (math.isfinite(2.0 * self.delta) and self.delta > 0.0):
            raise ValueError(f"perturbation half-width must be positive with a finite "
                             f"width 2 * delta, got {self.delta}")
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

    def __post_init__(self):
        dims = tuple(sorted(set(int(d) for d in self.dims)))
        deltas = tuple(sorted(set(float(d) for d in self.deltas)))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "deltas", deltas)
        if not dims or min(dims) < 3:
            raise ValueError("dims must contain orders >= 3")
        if not deltas or not all(math.isfinite(2.0 * d) and d > 0.0 for d in deltas):
            raise ValueError(f"deltas must be positive with finite widths 2 * delta, "
                             f"got {deltas}")
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

    @property
    def n_bins(self) -> int:
        """Regular bins below the cap; index n_bins is the overflow bucket."""
        return max(1, int(math.ceil(self.cr_cap / self.bin_width - 1e-12)))

    def cells(self) -> list[tuple[int, float]]:
        return [(n, d) for n in self.dims for d in self.deltas]


# Dataclasses holding arrays compare by identity: a generated __eq__ raises on them.
@dataclass(frozen=True, eq=False)
class BinColumns:
    """The non-empty bins of one bin table as aligned columns, in bin order.

    `means[m]` is the (pairs, bins) mean of METRICS[m] between the right
    eigenvector and the inverse-left, combined and RGM vectors; `closer[m]`
    the share of records whose RGM was at least as close as the inverse-left
    vector; `top_reversal` the share whose right and inverse-left vectors
    rank different alternatives first.  The overflow bin's lower edge is the cap.
    """

    lower: np.ndarray
    count: np.ndarray
    means: np.ndarray
    closer: np.ndarray
    top_reversal: np.ndarray
    suppressed: np.ndarray
    overflow: np.ndarray


def bin_columns(config: SimulationConfig, table: np.ndarray) -> BinColumns:
    """Per-bin columns of a bin table, pooled (`order_tables[n]`) or of one
    cell (`cell_tables[(n, delta)]`): the one reader of a bin table, for the
    CSVs and for library callers alike.

    Each value has the bits of the scalar arithmetic it replaces: a sum
    divided by its bin's count, and a lower edge b * bin_width.
    """
    index = np.flatnonzero(table[0])
    block = table[:, index]
    count = block[0]
    overflow = index == config.n_bins
    return BinColumns(
        lower=np.where(overflow, config.cr_cap, index * config.bin_width),
        count=count.astype(np.int64),
        means=(block[1:_CLOSER] / count).reshape(len(METRICS), _PAIR_COUNT, -1),
        closer=block[_CLOSER:-1] / count,
        top_reversal=block[-1] / count,
        suppressed=count < config.min_bin_count,
        overflow=overflow,
    )


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Bin tables of a finished run: `cell_tables[(n, delta)]` per cell and
    `order_tables[n]` pooled over the deltas.  `bin_columns` reads either
    kind into per-bin means, shares and flags."""

    config: SimulationConfig
    cell_tables: Mapping[tuple[int, float], np.ndarray]
    order_tables: Mapping[int, np.ndarray]
    nonconverged: int


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

class _Scratch(threading.local):
    """Working memory of `perturbed_batch`, one per thread: flat buffers for
    the stack, its float rows and its flags.  Each grows to the largest size
    asked for and is handed out as leading views, so every task a thread
    runs reuses the pages the first one touched.  `clear` drops the calling
    thread's buffers."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.stack = self.rows = np.empty(0)
        self.flags = np.empty(0, dtype=bool)

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = getattr(self, name)
        if buf.size < size:
            buf = np.empty(size, buf.dtype)
            setattr(self, name, buf)
        return buf[:size].reshape(shape)


# The scratch of `run_task`; `run_simulation` clears its caller's on the way out.
_SCRATCH = _Scratch()


def _select(out: np.ndarray, a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> None:
    """out = a where mask is -1, b where it is 0, on int64 views: exact for
    every bit pattern, inf and NaN included.  `out` may be `a`, never `b`."""
    np.bitwise_xor(a, b, out=out)
    np.bitwise_and(out, mask, out=out)
    np.bitwise_xor(out, b, out=out)


def perturbed_batch(config: GeneratorConfig, rng: np.random.Generator,
                    count: int, scratch: _Scratch | None = None) -> np.ndarray:
    """Stack of `count` perturbed-consistent matrices as an (n, n, count)
    array, the batch-last layout of `power_iterate`.

    Draw order is fixed: first the weight block, then one epsilon per
    unordered pair in row-major upper-triangle order.  With a `scratch`
    the stack is a view of its memory, valid until its next use; without
    one it is a fresh array.
    """
    n = config.n
    scratch = scratch if scratch is not None else _Scratch()
    pairs = n * (n - 1) // 2
    mats = scratch.take("stack", n, n, count)
    rows = scratch.take("rows", 3 * pairs + n, count)
    weights, (upper, lower, eps) = rows[:n], rows[n:].reshape(3, pairs, count)
    use_upper, below = scratch.take("flags", 2, pairs, count)

    weights[...] = rng.uniform(config.weight_low, config.weight_high, size=(count, n)).T
    # Row i of the matrix holds the pairs (i, i+1..n-1), each a ratio of weights.
    pair_rows = [(i, slice(i * (2 * n - i - 1) // 2, (i + 1) * (2 * n - i - 2) // 2))
                 for i in range(n - 1)]
    for i, pair in pair_rows:
        np.divide(weights[i], weights[i + 1:], out=upper[pair])
        np.divide(weights[i + 1:], weights[i], out=lower[pair])
    eps[...] = rng.uniform(-config.delta, config.delta, size=(count, pairs)).T

    # The entry >= 1 of each pair is the one perturbed; on a tied pair
    # (probability zero under continuous draws) the upper entry is taken.
    # max(upper, lower) is that entry bit for bit: upper = fl(wi / wj) and
    # lower = fl(wj / wi) are positive and finite, so upper > 1 gives
    # lower <= 1 and upper < 1 gives lower >= 1; upper == 1 means
    # wi / wj >= 1 - 2**-54, so wj / wi < 1 + 2**-53 rounds to at most 1.
    # Each step below overwrites a row whose values are no longer needed.
    np.greater_equal(upper, 1.0, out=use_upper)
    base = np.maximum(upper, lower, out=lower)
    shifted = np.add(base, eps, out=upper)
    np.less(shifted, 1.0, out=below)
    # Folding keeps the noise uniform on the scale where 1/b..1/c spans the
    # same distance as b..c; the denominator exceeds 1 whenever the shifted
    # value dropped below 1, so positivity never breaks.  Evaluated in the
    # order of 1 / (1 - eps - (base - 1)).
    folded = np.subtract(1.0, eps, out=eps)
    np.subtract(folded, np.subtract(base, 1.0, out=base), out=folded)
    with np.errstate(divide="ignore"):  # only on a lane that is not folded
        np.divide(1.0, folded, out=folded)
    perturbed, mask = folded.view(np.int64), base.view(np.int64)  # base - 1 is dead
    _select(perturbed, perturbed, shifted.view(np.int64), np.negative(below.view(np.int8), out=mask))
    inverse = np.divide(1.0, perturbed.view(float), out=shifted).view(np.int64)

    # Not core.reciprocal_from_upper: where the lower entry was perturbed it
    # is stored as `perturbed` itself, which 1 / (1 / perturbed) need not
    # reproduce bit for bit.
    np.negative(use_upper.view(np.int8), out=mask)
    stack = mats.view(np.int64)
    for i, pair in pair_rows:
        _select(stack[i, i + 1:], perturbed[pair], inverse[pair], mask[pair])
        _select(stack[i + 1:, i], inverse[pair], perturbed[pair], mask[pair])
    mats.reshape(n * n, count)[::n + 1] = 1.0
    return mats


def generate_perturbed(config: GeneratorConfig,
                       rng: np.random.Generator | None = None) -> PCMatrix:
    """One perturbed-consistent matrix; deterministic given the rng state."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return PCMatrix(perturbed_batch(config, rng, 1)[:, :, 0])


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------

def batch_vectors(mats: np.ndarray):
    """Right, inverse-left, combined, and row-geometric-mean vectors plus
    the dominant eigenvalue for an (n, n, B) stack of matrices.

    Returns (right, inverse_left, combined, rgm, lam, ok), each vector an
    (n, B) array of columns, where ok flags matrices whose two eigen runs both
    converged and agree on the eigenvalue.
    """
    wr, lam_r, _, _, conv_r = power_iterate(mats, _TOL, _MAX_ITERATIONS)
    wl, lam_l, _, _, conv_l = power_iterate(mats.swapaxes(0, 1), _TOL, _MAX_ITERATIONS)
    inv, combined, rgm, agree = _vector_rows(mats, wr, wl, lam_r, lam_l)
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


@dataclass(eq=False)
class TaskPartial:
    cell_index: int
    batch_index: int
    table: np.ndarray  # (_ROWS, n_bins + 1) bin table; the last column is the overflow
    nonconverged: int


def simulation_tasks(config: SimulationConfig) -> list[SimTask]:
    """Deterministic task list: fixed-size batches per cell, independent of
    how many workers later execute them."""
    return [SimTask(cell_index, n, delta, batch_index, count)
            for cell_index, (n, delta) in enumerate(config.cells())
            for batch_index, count in enumerate(_chunk_sizes(config.matrices_per_cell, _BATCH))]


def run_task(config: SimulationConfig, task: SimTask, ri: float) -> TaskPartial:
    """Generate and evaluate one batch; returns order-independent partial sums.

    The batch is built in the calling thread's scratch, which keeps its
    memory for the thread's next task."""
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, task.cell_index, task.batch_index))
    )
    gen = GeneratorConfig(task.n, task.delta)
    mats = perturbed_batch(gen, rng, task.count, _SCRATCH)

    wr, inv, combined, rgm, lam, ok = batch_vectors(mats)
    nonconverged = int((~ok).sum())
    if nonconverged:
        wr, inv, combined, rgm, lam = (a[..., ok] for a in (wr, inv, combined, rgm, lam))

    cr = _ci(lam, task.n) / ri
    nb = config.n_bins
    # Clipped as floats: a CR too large for int64 would not cast.
    bins = np.minimum(cr / config.bin_width, nb - 1).astype(np.int64)
    bins = np.where(cr >= config.cr_cap, nb, bins)

    values = metric_blocks(wr, (inv, combined, rgm))
    closer_flags, top_rev = comparison_flags(values, wr, inv)
    # A row count, not a column count: a batch in which every matrix failed has no columns.
    rows = np.vstack([np.ones_like(cr), values.reshape(_CLOSER - 1, -1), closer_flags, top_rev])
    # One bincount over every row: it adds in input order, so each slot gets
    # the same bits as a bincount of its row alone.
    index = np.arange(_ROWS)[:, None] * (nb + 1) + bins
    table = np.bincount(index.ravel(), weights=rows.ravel(), minlength=_ROWS * (nb + 1))
    return TaskPartial(task.cell_index, task.batch_index, table.reshape(_ROWS, -1), nonconverged)


def reduce_partials(config: SimulationConfig,
                    partials: Iterable[TaskPartial]) -> SimulationResult:
    """Combine task partials into one bin table per cell and per order.

    Each partial is added to its cell's bin table when its turn in task
    order, (cell, batch), comes; one that arrives early is held until then,
    so an in-order stream holds none.  Deltas are pooled in sorted order.
    The result is therefore independent of how the partials were produced
    or in what order they arrive, and merging the partials of two half-runs
    reproduces the full run exactly.  Raises ValueError unless the partials
    cover the task list exactly once.
    """
    cells = config.cells()
    width = config.n_bins + 1
    order = [(t.cell_index, t.batch_index) for t in simulation_tasks(config)]
    pending, early = set(order), {}
    tables = [np.zeros((_ROWS, width)) for _ in cells]
    added = nonconverged = 0
    for partial in partials:
        key = (partial.cell_index, partial.batch_index)
        if key not in pending:
            raise ValueError(f"(cell, batch) {key} is not a task or arrives twice")
        pending.remove(key)
        early[key] = partial
        while added < len(order) and order[added] in early:
            partial = early.pop(order[added])
            tables[partial.cell_index] += partial.table
            nonconverged += partial.nonconverged
            added += 1
        del partial  # the last one added dies before the next is drawn
    if pending:
        raise ValueError(f"{len(pending)} task partials missing, first (cell, batch) "
                         f"{min(pending)}")

    pooled = {n: np.zeros((_ROWS, width)) for n in config.dims}
    for (n, _), table in zip(cells, tables):  # deltas in sorted order
        pooled[n] += table
    return SimulationResult(config=config, cell_tables=dict(zip(cells, tables)),
                            order_tables=pooled, nonconverged=nonconverged)


# Bytes that one task holds while a run is set up and reduced: its SimTask
# and argument tuple, the reduction's (cell, batch) key and pending-set entry,
# and its share of the task list the reduction rebuilds.  Peak measured with
# tracemalloc on CPython 3.11, 64-bit: 424 bytes per task at 1e5-2e5 tasks.
_TASK_BYTES = 424


def _check_memory(config: SimulationConfig) -> None:
    """Refuse a run whose bin tables or task list cannot fit in this
    machine's memory.

    The reduction holds one bin table per cell and one per order, plus the
    partials in flight, each a table of its own.  Only the first two grow
    with the grid, so those and one partial are counted, and beside them
    `_TASK_BYTES` for every task.
    """
    tables = len(config.cells()) + len(config.dims) + 1
    need = 8 * _ROWS * (config.n_bins + 1) * tables
    _check_fits(need, f"bin_width {config.bin_width} gives {config.n_bins:.3g} bins; "
                f"{tables} bin tables of them need")
    tasks = len(config.cells()) * -(-config.matrices_per_cell // _BATCH)
    _check_fits(need + _TASK_BYTES * tasks, f"counts {config.matrices_per_cell} gives "
                f"{tasks:.3g} tasks of up to {_BATCH} matrices; their list needs")


def run_simulation(config: SimulationConfig, ri_table: RiTable | None = None,
                   workers: int = 1) -> SimulationResult:
    """Run the full grid and aggregate per-bin statistics.

    Deterministic for a given config seed whatever the worker count.  A
    matrix that fails to converge would silently skew the bins, so any
    such failure aborts the run with an error carrying the count; positive
    matrices are not expected to fail at all.  The calling thread's
    generator scratch is emptied when the run returns or raises; a worker
    process's dies with the worker.
    """
    table = ri_table if ri_table is not None else default_ri_table()
    ris = {n: table.ri(n) for n in config.dims}
    _check_memory(config)
    args = [(config, t, ris[t.n]) for t in simulation_tasks(config)]
    try:
        result = reduce_partials(config, _ordered_map(run_task, args, workers))
    finally:
        _SCRATCH.clear()
    if result.nonconverged:
        raise NoConvergenceError(
            _MAX_ITERATIONS, float("nan"),
            f"{result.nonconverged} matrices failed to converge; bins would be skewed",
        )
    return result
