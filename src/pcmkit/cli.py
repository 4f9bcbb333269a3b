"""Command-line interface.

Subcommands: weights, consistency, compare, generate, simulate, aggregate,
verify, ri-estimate.  Exit codes: 0 on success, 1 when a verification or
assertion fails, 2 on usage, parse, or input errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .consistency import (
    DEFAULT_RI_SEED,
    RiTable,
    build_ri_table,
    consistency_ratio,
    default_ri_table,
)
from .core import (
    DEFAULT_FILE_TOLERANCE,
    PCMatrix,
    ReciprocityMode,
    ReciprocityPolicy,
    format_matrix_text,
    load_matrix,
)
from .errors import PcmError
from .metrics import METRICS, PAIRS, compare_methods
from .weighting import (
    aggregate_matrices_geometric,
    aggregate_priorities_geometric,
    combined_eigenvector,
    inverse_left_eigenvector,
    right_eigenvector,
    row_geometric_mean,
    solve_together,
)

# The simulation and the verification suite are imported by the commands
# that use them (annotations naming their types are strings here), so the
# single-matrix commands start without loading either.

WORKERS_ENV = "PCMKIT_WORKERS"


def _round_half_away(x: float, places: int = 4) -> str:
    # Display rounding is half-away-from-zero, not banker's.  Imported here:
    # only the commands that print weights load decimal.
    from decimal import ROUND_HALF_UP, Decimal

    q = Decimal(1).scaleb(-places)
    return str(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_UP))


def _g12(x: float) -> str:
    return format(float(x), ".12g")


def _workers(args) -> int:
    """Worker count from --workers, else from the environment, else 1."""
    if args.workers is not None:
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        return args.workers
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return int(raw)


def _policy_from_args(args) -> ReciprocityPolicy:
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_FILE_TOLERANCE
    mode = ReciprocityMode.REPAIR_FROM_UPPER if args.repair else ReciprocityMode.STRICT
    return ReciprocityPolicy(mode=mode, tolerance=tolerance)


def _add_matrix_policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repair", action="store_true",
                        help="rebuild the lower triangle from the upper instead of strict checking")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="reciprocity tolerance for strict validation (default 1e-3 for files)")


def _ri_table_from_args(args) -> RiTable:
    if getattr(args, "ri_table", None):
        return RiTable.from_file(args.ri_table)
    return default_ri_table()


_METHOD_VECTORS = {
    "right": lambda matrix: right_eigenvector(matrix).weights,
    "left-inverse": inverse_left_eigenvector,
    "rl": combined_eigenvector,
    "rgm": row_geometric_mean,
}


def _print_table(rows) -> None:
    """Right-aligned columns two spaces apart; the first row is the header."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(s.rjust(w) for s, w in zip(r, widths)))


def _print_weight_table(matrix: PCMatrix, methods, factor: float) -> None:
    rows = [["method"] + [f"w{i + 1}" for i in range(matrix.n)]]
    for m in methods:
        scaled = _METHOD_VECTORS[m](matrix).priorities * factor
        rows.append([m] + [_round_half_away(v) for v in scaled])
    _print_table(rows)


def _scale_from_args(args) -> float:
    return 100.0 if args.scale == "sum100" else 1.0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_weights(args) -> int:
    matrix = load_matrix(args.matrix, _policy_from_args(args))
    methods = list(_METHOD_VECTORS) if args.method == "all" else [args.method]
    _print_weight_table(matrix, methods, _scale_from_args(args))
    return 0


def cmd_consistency(args) -> int:
    matrix = load_matrix(args.matrix, _policy_from_args(args))
    report = consistency_ratio(matrix, _ri_table_from_args(args))
    print(f"n           = {report.n}")
    print(f"lambda_max  = {_g12(report.lambda_max)}")
    print(f"ci          = {_g12(report.ci)}")
    print(f"ri          = {_g12(report.ri)}  [{report.ri_source.describe()}]")
    print(f"cr          = {_g12(report.cr)}")
    print(f"acceptable  = {'true' if report.acceptable else 'false'}")
    return 0


def cmd_compare(args) -> int:
    matrix = load_matrix(args.matrix, _policy_from_args(args))
    record = compare_methods(matrix, _ri_table_from_args(args))
    print(f"cr = {_g12(record.cr)}")
    header = ["metric"] + [f"right_vs_{p}" for p in PAIRS] + ["rgm_closer"]
    _print_table([header] + [
        [m] + [_g12(v) for v in record.values[m]] + ["true" if record.closer[m] else "false"]
        for m in METRICS
    ])
    print(f"top_reversal = {'true' if record.top_reversal else 'false'}")
    print(f"any_reversal = {'true' if record.any_reversal else 'false'}")
    return 0


def cmd_generate(args) -> int:
    from .montecarlo import GeneratorConfig, generate_perturbed

    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    config = GeneratorConfig(n=args.n, delta=args.delta, weight_low=args.weight_low,
                             weight_high=args.weight_high, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    width = len(str(args.count - 1)) if args.count > 1 else 1
    for k in range(args.count):
        matrix = generate_perturbed(config, rng)
        comments = (
            f"perturbed consistent matrix {k} of {args.count}",
            f"n={config.n} delta={config.delta:g} seed={config.seed} "
            f"weights=[{config.weight_low:g}, {config.weight_high:g}]",
        )
        path = out_dir / f"matrix_{k:0{width}d}.txt"
        path.write_text(format_matrix_text(matrix, comments), encoding="utf-8")
    print(f"wrote {args.count} matrices to {out_dir}")
    return 0


def _parse_simulation_config(path) -> tuple[SimulationConfig, str | None]:
    from .montecarlo import SimulationConfig

    values: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # A comment fills a line or follows whitespace and '#'.
            stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = (part.strip() for part in stripped.partition("="))
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {values[key][0]}")
            values[key] = (lineno, value)
    # Parsers in parse order; a key the file leaves out takes SimulationConfig's default.
    parsers = {"dims": lambda v: tuple(int(x) for x in v.split(",")),
               "deltas": lambda v: tuple(float(x) for x in v.split(",")),
               "counts": int, "bin_width": float, "min_bin_count": int, "cr_cap": float,
               "seed": int}
    unknown = set(values) - {*parsers, "ri_table"}
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for required in ("dims", "deltas", "counts", "seed"):
        if required not in values:
            raise ValueError(f"{path}: missing required key {required!r}")

    def field(key: str, parse):
        lineno, value = values[key]
        try:
            return parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}={value}: {exc}") from None

    given = {key: field(key, parse) for key, parse in parsers.items() if key in values}
    given["matrices_per_cell"] = given.pop("counts")
    config = SimulationConfig(**given)
    return config, values["ri_table"][1] if "ri_table" in values else None


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_histogram_csv(path: Path, cells: dict[tuple[int, float], BinColumns]) -> None:
    lines = ["n,delta,bin_lower,count"]
    for (n, delta), c in cells.items():
        row = f"{n},{_g12(delta)},%.12g,%d"
        lines += [row % r for r in zip(c.lower.tolist(), c.count.tolist())]
    _write_lines(path, lines)


_BIN_HEADER = "count,mean_R_vs_invL,mean_R_vs_RL,mean_R_vs_RGM,closer_prob,suppressed"


def _bin_lines(prefix: str, c: BinColumns, metric: int) -> list[str]:
    """One CSV row per non-empty bin: `prefix`, then the lower edge and the
    _BIN_HEADER columns of `metric`, each float at 12 significant digits."""
    row = prefix + "%.12g,%d,%.12g,%.12g,%.12g,%.12g,%s"
    suppressed = np.where(c.suppressed, "true", "false").tolist()
    return [row % r for r in zip(c.lower.tolist(), c.count.tolist(), *c.means[metric].tolist(),
                                 c.closer[metric].tolist(), suppressed)]


def _write_bin_csvs(out_dir: Path, orders: dict[int, BinColumns],
                    cells: dict[tuple[int, float], BinColumns]) -> list[Path]:
    written = []
    for mi, metric in enumerate(METRICS):
        pooled = ["n,bin_lower," + _BIN_HEADER]
        for n, c in orders.items():
            pooled += _bin_lines(f"{n},", c, mi)
        by_delta = ["n,delta,bin_lower," + _BIN_HEADER]
        for (n, delta), c in cells.items():
            by_delta += _bin_lines(f"{n},{_g12(delta)},", c, mi)
        for path, lines in ((out_dir / f"bins_{metric}.csv", pooled),
                            (out_dir / f"bins_{metric}_by_delta.csv", by_delta)):
            _write_lines(path, lines)
            written.append(path)
    return written


def _columns(result: SimulationResult) -> tuple[dict[int, BinColumns],
                                               dict[tuple[int, float], BinColumns]]:
    """Bin columns of every order, then of every cell in (n, delta) order."""
    from .montecarlo import bin_columns

    config = result.config
    return ({n: bin_columns(config, result.order_tables[n]) for n in config.dims},
            {cell: bin_columns(config, result.cell_tables[cell])
             for cell in sorted(result.cell_tables)})


def _write_manifest(path: Path, config: SimulationConfig, table: RiTable,
                    workers: int, ri_table_path: str | None, csvs: list[Path]) -> None:
    """Settings, RI values and the SHA-256 of every CSV written.  The CSV
    bits depend on numpy's loops, so its version is recorded too; two runs
    reproduce each other bit for bit when their manifests differ only in the
    timestamp."""
    # Imported here: hashlib loads OpenSSL (about 5 ms and 3.5 MB), which
    # no other command needs.
    import hashlib

    lines = [
        f"tool_version={__version__}",
        f"numpy={np.__version__}",
        f"timestamp_utc={datetime.now(timezone.utc).isoformat()}",
        f"workers={workers}",
        f"seed={config.seed}",
        f"dims={','.join(str(n) for n in config.dims)}",
        f"deltas={','.join(_g12(d) for d in config.deltas)}",
        f"counts={config.matrices_per_cell}",
        f"bin_width={_g12(config.bin_width)}",
        f"min_bin_count={config.min_bin_count}",
        f"cr_cap={_g12(config.cr_cap)}",
        f"metrics={','.join(METRICS)}",
        f"ri_table={ri_table_path or '<packaged default>'}",
    ]
    for n in config.dims:
        lines.append(f"ri[{n}]={_g12(table.ri(n))} [{table.provenance_of(n).describe()}]")
    for csv in csvs:
        lines.append(f"sha256[{csv.name}]={hashlib.sha256(csv.read_bytes()).hexdigest()}")
    _write_lines(path, lines)


def cmd_simulate(args) -> int:
    from .montecarlo import run_simulation

    config, ri_path = _parse_simulation_config(args.config)
    table = RiTable.from_file(ri_path) if ri_path else default_ri_table()
    workers = _workers(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The result is not kept: once read into columns its tables, which can
    # be most of the process's memory with fine bins, are freed.
    orders, cells = _columns(run_simulation(config, table, workers=workers))
    histogram = out_dir / "histogram.csv"
    _write_histogram_csv(histogram, cells)
    written = [histogram, *_write_bin_csvs(out_dir, orders, cells)]
    _write_manifest(out_dir / "manifest.txt", config, table, workers, ri_path, written)
    total = config.matrices_per_cell * len(config.cells())
    print(f"simulated {total} matrices across {len(config.cells())} cells; "
          f"wrote {len(written) + 1} files to {out_dir}")
    return 0


def cmd_aggregate(args) -> int:
    policy = _policy_from_args(args)
    matrices = [load_matrix(p, policy) for p in args.matrices]
    factor = _scale_from_args(args)
    if args.mode == "aij":
        merged = aggregate_matrices_geometric(matrices)
        print("aggregated matrix (entrywise geometric mean):")
        for row in merged.entries:
            print("  " + "  ".join(f"{v:10.4f}" for v in row))
        _print_weight_table(merged, list(_METHOD_VECTORS), factor)
    else:
        if args.method != "rgm":  # the RGM needs no solve
            solve_together(matrices)
        vectors = [_METHOD_VECTORS[args.method](m) for m in matrices]
        agg = aggregate_priorities_geometric(vectors).priorities * factor
        print(f"aggregated {args.method} priorities (componentwise geometric mean):")
        print("  " + "  ".join(_round_half_away(v) for v in agg))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(_ri_table_from_args(args))
    for outcome in report.outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{status}  {outcome.case} :: {outcome.check}  ({outcome.detail})")
    failed = len(report.failures)
    total = len(report.outcomes)
    print(f"{total - failed}/{total} checks passed in {report.elapsed_seconds:.3f}s")
    return 0 if report.all_passed else 1


def _parse_orders(spec: str) -> list[int]:
    orders: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        try:
            bounds = [int(x) for x in part.split("-", 1)]
        except ValueError:
            raise ValueError(f"--orders: {part!r} is neither an order nor a range lo-hi") from None
        lo, hi = bounds[0], bounds[-1]
        if hi < lo:
            raise ValueError(f"--orders: range {part!r} runs downwards")
        orders.extend(range(lo, hi + 1))
    return orders


def cmd_ri_estimate(args) -> int:
    workers = _workers(args)
    table = build_ri_table(_parse_orders(args.orders), args.samples, args.seed,
                           scale=args.scale, workers=workers)
    if args.out:
        table.to_file(args.out)
        print(f"wrote {len(table.orders)} random-index entries to {args.out}")
    else:
        print("\n".join(table.lines()))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="pcmkit",
        description="Priority derivation and consistency analysis for pairwise comparison matrices.",
    )
    parser.add_argument("--version", action="version", version=f"pcmkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="derive priority vectors from a matrix file")
    p.add_argument("matrix")
    p.add_argument("--method", choices=[*_METHOD_VECTORS, "all"], default="all")
    p.add_argument("--scale", choices=("sum1", "sum100"), default="sum100")
    _add_matrix_policy_args(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("consistency", help="consistency index, random index, and ratio")
    p.add_argument("matrix")
    p.add_argument("--ri-table", help="random-index table file (default: packaged table)")
    _add_matrix_policy_args(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("compare", help="comparison record for one matrix")
    p.add_argument("matrix")
    p.add_argument("--ri-table")
    _add_matrix_policy_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="dump random perturbed-consistent matrices to files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-low", type=float, default=1.0)
    p.add_argument("--weight-high", type=float, default=9.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run the binned simulation grid and write CSV files")
    p.add_argument("config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes (default: ${WORKERS_ENV} or 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("aggregate", help="aggregate group judgments or priorities")
    p.add_argument("matrices", nargs="+")
    p.add_argument("--mode", choices=("aij", "aip"), required=True,
                   help="aij: aggregate matrices then weight; aip: weight then aggregate priorities")
    p.add_argument("--method", choices=list(_METHOD_VECTORS), default="right",
                   help="weighting used per matrix in aip mode")
    p.add_argument("--scale", choices=("sum1", "sum100"), default="sum100")
    _add_matrix_policy_args(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("verify", help="check the embedded published examples")
    p.add_argument("--ri-table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ri-estimate", help="estimate random indices by sampling")
    p.add_argument("--orders", required=True, help="orders, e.g. '5' or '4,6' or '3-9'")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_RI_SEED)
    p.add_argument("--scale", choices=("saaty", "log-uniform"), default="saaty")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", help="write an RI table file instead of printing")
    p.set_defaults(func=cmd_ri_estimate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PcmError, ValueError, OSError, MemoryError) as exc:
        reason = f"out of memory ({exc})" if isinstance(exc, MemoryError) else exc
        print(f"pcmkit: error: {reason}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
