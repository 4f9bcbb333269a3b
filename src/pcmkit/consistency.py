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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._power import power_iterate
from .core import PCMatrix, reciprocal_from_upper
from .errors import MissingRiError, NoConvergenceError
from .weighting import EigenSolverConfig, right_eigenvector

# Discrete judgment scale used for random matrices: 1/9 ... 1/2, 1, 2 ... 9.
SAATY_SCALE = np.array(
    [1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2, 1, 2, 3, 4, 5, 6, 7, 8, 9]
)

# Tiny CI magnitudes are solver noise on consistent input; clamping avoids
# spurious negative (or nonzero) CR in downstream bins.
_CI_NOISE_FLOOR = 1e-9

# Samples are processed in fixed-size chunks with per-chunk derived seeds,
# so the estimate is bitwise identical for any worker count.
_RI_CHUNK = 20_000

_RI_SOLVER_TOL = 1e-10
_RI_SOLVER_MAX_ITER = 100_000

DEFAULT_RI_SEED = 271828
DEFAULT_RI_SAMPLES = 1_000_000


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
    `n ri samples seed` (comment lines start with '#').
    """

    values: Mapping[int, float]
    provenance: Mapping[int, RiProvenance]

    def __post_init__(self):
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
        prov = {n: RiProvenance("supplied") for n in values}
        return cls(dict(values), prov)

    @classmethod
    def from_file(cls, path) -> "RiTable":
        values: dict[int, float] = {}
        prov: dict[int, RiProvenance] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) != 4:
                    raise ValueError(f"{path}:{lineno}: expected 'n ri samples seed'")
                n, samples, seed = int(parts[0]), int(parts[2]), int(parts[3])
                values[n] = float(parts[1])
                prov[n] = RiProvenance("estimated", samples, seed)
        if not values:
            raise ValueError(f"{path}: no random-index entries found")
        return cls(values, prov)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# random index table: n ri samples seed\n")
            for n in self.orders:
                p = self.provenance[n]
                samples = p.samples if p.samples is not None else 0
                seed = p.seed if p.seed is not None else 0
                fh.write(f"{n} {self.values[n]:.12g} {samples} {seed}\n")


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


def _ci_cr(lam, n: int, ri: float = 1.0):
    """(CI, CR) of dominant eigenvalues of order-n matrices, for one value
    or an array of them: CI = (lam - n) / (n - 1), noise-clamped at zero,
    and CR = CI / RI."""
    ci = (lam - n) / (n - 1)
    ci = np.where(np.abs(ci) < _CI_NOISE_FLOOR, 0.0, ci)
    return ci, ci / ri


def consistency_index(matrix: PCMatrix, config: EigenSolverConfig | None = None) -> float:
    """CI = (lambda_max - n) / (n - 1), noise-clamped at zero."""
    lam = right_eigenvector(matrix, config).lambda_max
    return float(_ci_cr(lam, matrix.n)[0])


def report_from_lambda(n: int, lambda_max: float, ri_table: RiTable) -> ConsistencyReport:
    """Build the consistency verdict from an already computed eigenvalue."""
    ri = ri_table.ri(n)
    ci, cr = (float(x) for x in _ci_cr(lambda_max, n, ri))
    return ConsistencyReport(
        n=n, lambda_max=lambda_max, ci=ci, ri=ri,
        ri_source=ri_table.provenance_of(n), cr=cr, acceptable=cr <= 0.1,
    )


def consistency_ratio(matrix: PCMatrix, ri_table: RiTable | None = None,
                      config: EigenSolverConfig | None = None) -> ConsistencyReport:
    """CR report for a matrix; uses the shipped RI table unless given one."""
    table = ri_table if ri_table is not None else default_ri_table()
    lam = right_eigenvector(matrix, config).lambda_max
    return report_from_lambda(matrix.n, lam, table)


def _random_reciprocal_batch(n: int, count: int, rng: np.random.Generator,
                             scale: str) -> np.ndarray:
    iu, ju = np.triu_indices(n, 1)
    if scale == "saaty":
        upper = SAATY_SCALE[rng.integers(0, len(SAATY_SCALE), size=(count, len(iu)))]
    elif scale == "log-uniform":
        upper = np.exp(rng.uniform(-np.log(9.0), np.log(9.0), size=(count, len(iu))))
    else:
        raise ValueError(f"unknown scale {scale!r}; expected 'saaty' or 'log-uniform'")
    return reciprocal_from_upper(upper, n)


def _ri_chunk_sum(n: int, count: int, seed: int, chunk_index: int, scale: str) -> float:
    rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
    mats = _random_reciprocal_batch(n, count, rng, scale)
    _, lam, iters, resid, conv = power_iterate(mats, _RI_SOLVER_TOL, _RI_SOLVER_MAX_ITER)
    if not conv.all():
        k = int(np.argmax(~conv))
        raise NoConvergenceError(int(iters[k]), float(resid[k]),
                                 f"random index sampling, n={n}, chunk={chunk_index}")
    ci = (lam - n) / (n - 1)
    return float(ci.sum())


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _chunk_sizes(total: int, size: int) -> list[int]:
    """`total` split into chunks of `size`, the last one possibly shorter."""
    return [min(size, total - start) for start in range(0, total, size)]


def _ordered_map(task, args: list[tuple], workers: int) -> list:
    """[task(*a) for a in args], in that order, on a pool of `workers`
    processes when there is more than one."""
    _check_workers(workers)
    if workers == 1:
        return [task(*a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, *zip(*args)))


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
    if n < 3:
        raise ValueError(f"random index needs n >= 3, got {n}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a random index, got {samples}")
    args = [(n, size, seed, k, scale) for k, size in enumerate(_chunk_sizes(samples, _RI_CHUNK))]
    return float(sum(_ordered_map(_ri_chunk_sum, args, workers)) / samples)


def build_ri_table(orders, samples: int, base_seed: int, *,
                   scale: str = "saaty", workers: int = 1) -> RiTable:
    """Estimate RI for several orders; order n uses seed base_seed + n."""
    _check_workers(workers)
    values: dict[int, float] = {}
    prov: dict[int, RiProvenance] = {}
    for n in sorted(set(int(x) for x in orders)):
        seed_n = base_seed + n
        values[n] = estimate_random_index(n, samples, seed_n, scale=scale, workers=workers)
        prov[n] = RiProvenance("estimated", samples, seed_n)
    return RiTable(values, prov)
