"""Saaty consistency analysis: CI, the random index, and CR.

The consistency index CI = (lambda_max - n) / (n - 1) is compared with the
random index RI, the mean CI of randomly filled reciprocal matrices, to
form the consistency ratio CR = CI / RI; a matrix is conventionally
accepted when CR does not exceed 0.1.

No authoritative RI table is hardcoded: the package ships a table
estimated once by `estimate_random_index` (one million samples per order,
seeds recorded in the file) and any table can be swapped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from ._power import _pieces, power_iterate
from .core import PCMatrix, reciprocal_from_upper
from .errors import MissingRiError, NoConvergenceError
from .weighting import _solved, right_eigenvector

# Discrete judgment scale used for random matrices: 1/9 ... 1/2, 1, 2 ... 9.
SAATY_SCALE = np.array(
    [1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2, 1, 2, 3, 4, 5, 6, 7, 8, 9]
)

# Samples are processed in fixed-size chunks with per-chunk derived seeds,
# so the estimate is bitwise identical for any worker count.
_RI_CHUNK = 20_000

_RI_SOLVER_TOL = 1e-10
_RI_SOLVER_MAX_ITER = 100_000

DEFAULT_RI_SEED = 271828


@dataclass(frozen=True)
class RiProvenance:
    """Where an RI value came from: estimated here (samples, seed) or supplied."""

    kind: str  # "estimated" | "supplied"
    samples: int | None = None
    seed: int | None = None

    def describe(self) -> str:
        if self.kind == "estimated":
            return f"estimated(samples={self.samples}, seed={self.seed})"
        return "supplied"


@dataclass(frozen=True)
class RiTable:
    """Random-index values per matrix order, with provenance.

    Serializes to a small text file with one line per order:
    `n ri samples seed` (comment lines start with '#').  A supplied value is
    written with samples and seed 0: no estimate has 0 samples.
    """

    values: Mapping[int, float]
    provenance: Mapping[int, RiProvenance]

    def __post_init__(self):
        for n, ri in self.values.items():
            if not (math.isfinite(ri) and ri > 0.0):
                raise ValueError(f"random index for order {n} must be finite and positive, "
                                 f"got {ri}")
        if self.values.keys() != self.provenance.keys():
            raise ValueError(f"orders of values {sorted(self.values)} and of provenance "
                             f"{sorted(self.provenance)} differ")
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))

    def ri(self, n: int) -> float:
        try:
            return self.values[n]
        except KeyError:
            raise MissingRiError(n) from None

    def provenance_of(self, n: int) -> RiProvenance:
        if n not in self.values:
            raise MissingRiError(n)
        return self.provenance[n]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    @classmethod
    def supplied(cls, values: Mapping[int, float]) -> "RiTable":
        return cls(dict(values), dict.fromkeys(values, RiProvenance("supplied")))

    @classmethod
    def from_file(cls, path) -> "RiTable":
        values: dict[int, float] = {}
        prov: dict[int, RiProvenance] = {}
        first: dict[int, int] = {}  # order -> line number
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) != 4:
                    raise ValueError(f"{path}:{lineno}: expected 'n ri samples seed'")
                try:
                    n, samples, seed = int(parts[0]), int(parts[2]), int(parts[3])
                    ri = float(parts[1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if first.setdefault(n, lineno) != lineno:
                    raise ValueError(f"{path}:{lineno}: order {n} repeats line {first[n]}")
                if samples < 0 or seed < 0:
                    raise ValueError(f"{path}:{lineno}: samples and seed must be non-negative")
                values[n], prov[n] = ri, (RiProvenance("estimated", samples, seed) if samples
                                          else RiProvenance("supplied"))
        if not values:
            raise ValueError(f"{path}: no random-index entries found")
        try:
            return cls(values, prov)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# random index table: n ri samples seed\n")
            for n in self.orders:
                p = self.provenance[n]
                fh.write(f"{n} {self.values[n]:.12g} {p.samples or 0} {p.seed or 0}\n")


_default_table: RiTable | None = None


def default_ri_table() -> RiTable:
    """The table shipped with the package (orders 3..15)."""
    global _default_table
    if _default_table is None:
        ref = resources.files("pcmkit").joinpath("data/ri_table.txt")
        with resources.as_file(ref) as path:
            _default_table = RiTable.from_file(path)
    return _default_table


@dataclass(frozen=True)
class ConsistencyReport:
    """Full consistency verdict for one matrix."""

    n: int
    lambda_max: float
    ci: float
    ri: float
    ri_source: RiProvenance
    cr: float
    acceptable: bool


def consistency_index(matrix: PCMatrix) -> float:
    """CI = (lambda_max - n) / (n - 1), noise-clamped at zero."""
    right_eigenvector(matrix)  # raises where the right run failed
    return _solved(matrix)[3]


def consistency_ratio(matrix: PCMatrix, ri_table: RiTable | None = None) -> ConsistencyReport:
    """CR report for a matrix; uses the shipped RI table unless given one.
    CR is CI / RI, with the bits `_ci` gives CI."""
    table = ri_table if ri_table is not None else default_ri_table()
    right, ci, n = right_eigenvector(matrix), _solved(matrix)[3], matrix.n
    ri = table.ri(n)
    cr = float(ci / ri)
    return ConsistencyReport(
        n=n, lambda_max=right.lambda_max, ci=ci, ri=ri,
        ri_source=table.provenance_of(n), cr=cr, acceptable=cr <= 0.1,
    )


def _ri_chunk_sum(n: int, count: int, seed: int, chunk_index: int, scale: str) -> float:
    """CI sum of one chunk of random matrices, built and solved in the
    pieces of `_pieces`; the CI is summed once over the chunk.  Each piece's
    upper triangles are drawn as it is built, as (piece, pairs) rows: drawn
    block by block, the rows get the values of one whole-chunk draw.  The
    draw's values and the piece's stack are written into two buffers that
    every piece of the chunk reuses, so no chunk-sized array is made."""
    if scale not in ("saaty", "log-uniform"):
        raise ValueError(f"unknown scale {scale!r}; expected 'saaty' or 'log-uniform'")
    rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
    pairs = n * (n - 1) // 2
    pieces = _pieces(n, count)
    width = pieces[0].stop  # the first piece is the widest
    # Flat, so that the leading part of each is a C-contiguous block of any width.
    upper_buf, mats_buf = np.empty(width * pairs), np.empty(width * n * n)
    lam = np.empty(count)
    for piece in pieces:
        m = piece.stop - piece.start
        upper = upper_buf[:m * pairs].reshape(m, pairs)
        if scale == "saaty":
            # Every index is in range, and "clip" writes straight into `upper`.
            np.take(SAATY_SCALE, rng.integers(0, len(SAATY_SCALE), size=(m, pairs)),
                    out=upper, mode="clip")
        else:
            # exp in the layout drawn, C-contiguous, as a whole-chunk draw ran it.
            np.exp(rng.uniform(-np.log(9.0), np.log(9.0), size=(m, pairs)), out=upper)
        mats = reciprocal_from_upper(upper.T, n, out=mats_buf[:m * n * n].reshape(n, n, m))
        _, lam[piece], iters, resid, conv = power_iterate(mats, _RI_SOLVER_TOL,
                                                          _RI_SOLVER_MAX_ITER)
        if not conv.all():
            k = int(np.argmax(~conv))
            raise NoConvergenceError(int(iters[k]), float(resid[k]),
                                     f"random index sampling, n={n}, chunk={chunk_index}")
    return float(((lam - n) / (n - 1)).sum())


def _check_run(workers: int, seed: int = 0) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _chunk_sizes(total: int, size: int) -> list[int]:
    """`total` split into chunks of `size`, the last one possibly shorter."""
    return [min(size, total - start) for start in range(0, total, size)]


def _ordered_map(task, args: list[tuple], workers: int) -> Iterator:
    """Yields task(*a) for a in args, in that order, each as soon as it and
    the ones before it are done.  At most min(workers, len(args)) processes
    run them, the calling process included, so a lone task starts none.
    The worker count is checked here, before any task runs."""
    _check_run(workers)
    return _pool_map(task, args, min(workers, len(args)))


def _pool_map(task, args: list[tuple], workers: int) -> Iterator:
    """`_ordered_map` on the calling process, which runs task k when
    k % workers == 0, and workers − 1 processes: worker c runs args[c::workers]
    and sends each result back over its own pipe.  No worker outlives the
    stream, whether it is drawn to the end, closed early or raises."""
    started = []
    try:
        for c in range(1, workers):
            from multiprocessing import Pipe, Process  # only a run with workers loads it

            pipe, end = Pipe(duplex=False)
            proc = Process(target=_worker, args=(end, task, args[c::workers]))
            with end:  # closed before the next start, so a dead worker's pipe reads as EOF
                proc.start()
            started.append((proc, pipe))
        for k, a in enumerate(args):
            c = k % workers
            if c == 0:
                yield task(*a)
                continue
            proc, pipe = started[c - 1]
            try:
                ok, result = pipe.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(f"worker {c} exited with code {proc.exitcode}") from None
            if not ok:
                raise result
            yield result
    finally:
        for proc, pipe in started:
            proc.terminate()  # harmless on a worker that has exited
            proc.join()
            pipe.close()


def _worker(end, task, args: list[tuple]) -> None:
    """Sends (True, task(*a)) for each a in args, or (False, exc) if one raises."""
    with end:
        try:
            for a in args:
                end.send((True, task(*a)))
        except Exception as exc:
            end.send((False, exc))


def _ri_chunks(n: int, samples: int, seed: int, scale: str) -> list[tuple]:
    """`_ri_chunk_sum` arguments of every chunk of one order's estimate."""
    if n < 3:
        raise ValueError(f"random index needs n >= 3, got {n}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a random index, got {samples}")
    return [(n, size, seed, k, scale) for k, size in enumerate(_chunk_sizes(samples, _RI_CHUNK))]


def estimate_random_index(n: int, samples: int, seed: int, *,
                          scale: str = "saaty", workers: int = 1) -> float:
    """Mean CI of randomly filled reciprocal matrices of order n.

    Upper-triangle entries are drawn independently and uniformly from the
    17-value discrete scale (scale="saaty", the default) or from a
    log-uniform distribution on [1/9, 9] (scale="log-uniform"); the lower
    triangle mirrors them exactly.  Deterministic for a given seed
    regardless of worker count: samples are split into fixed-size chunks,
    chunk k is seeded by (seed, k), and the chunk sums are combined in
    chunk order.
    """
    _check_run(workers, seed)
    args = _ri_chunks(n, samples, seed, scale)
    return float(sum(_ordered_map(_ri_chunk_sum, args, workers)) / samples)


def build_ri_table(orders, samples: int, base_seed: int, *,
                   scale: str = "saaty", workers: int = 1) -> RiTable:
    """Estimate RI for several orders; order n uses seed base_seed + n.

    Every order's chunks go through one stream, so one set of worker
    processes serves the whole table, and each order's value is the one
    `estimate_random_index` gives: its chunk sums added in chunk order."""
    _check_run(workers, base_seed)
    orders = sorted(set(int(x) for x in orders))
    args = [a for n in orders for a in _ri_chunks(n, samples, base_seed + n, scale)]
    sums: dict[int, list[float]] = {n: [] for n in orders}
    # The stream is zipped first, so it is drawn to its end and its workers joined.
    for total, (n, *_) in zip(_ordered_map(_ri_chunk_sum, args, workers), args):
        sums[n].append(total)
    values = {n: float(sum(s) / samples) for n, s in sums.items()}
    return RiTable(values, {n: RiProvenance("estimated", samples, base_seed + n) for n in orders})
