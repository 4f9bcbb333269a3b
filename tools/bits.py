"""Check that a change leaves every simulation and CLI output bit-identical.

Exports a commit (the parent of a change, by default HEAD) with
`git archive` into a temporary directory, then runs

    python3 -m pcmkit.cli simulate CONFIG --out DIR --workers W

for W = 1 and 2, on two grids, once in that export and once in the working
tree.  Every CSV must be byte-identical to the export's, and so must every
manifest line but the timestamp, which includes the `sha256[...]` line of
each CSV.  The grids are the `sim-grid` cells of perfbench (dims 4-9 x
deltas 1, 2, 3, 2048 matrices each) and dims 3, 4, 5, 6, 9, 12, 15, 20, 40
x deltas 0.5, 1, 2, 3, where orders 20 and 40 make batches of several
power-iteration pieces.

Then it runs `weights --method all` (with and without `--repair`),
`consistency` and `compare` on a set of matrix files in both trees, then
`aggregate --mode aij` and `aggregate --mode aip --method rgm` on the two
opposed judges of `verify`, `aggregate --mode aip` with `--method right`,
`left-inverse` and `rl` on four `verify` matrices of order 4 and with
`--method right` on two matrices of orders 4 and 5 (exit code 2),
`ri-estimate --orders 3-6 --samples 4000` and `verify`, and every run's
exit code, stdout and stderr must be the same, but for the time `verify`
reports.  The files are written once, by the
export: the 8 published matrices of `verify`, each as printed and as
reconciled, and one `generate` matrix (delta 2) of each order 3-15.

Last, it prints `float.hex` of `estimate_random_index` in both trees, for
orders 3-15 at 4,000 samples (one chunk) and 45,000 (three, the last one
short), on both scales and at 1 and 2 workers, and for order 60 at 1,000
samples (eight pieces of one chunk), and the two listings must be the
same.  The shipped-table re-derivation compares only 12 printed digits.

    python3 tools/bits.py [--parent REV]

Prints one line per run and every difference; exits 1 on any difference.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import ROOT, export  # noqa: E402

GRIDS = {
    "sim-grid": "dims=4,5,6,7,8,9\ndeltas=1,2,3\ncounts=2048\nseed=1\n",
    "wide": "dims=3,4,5,6,9,12,15,20,40\ndeltas=0.5,1,2,3\ncounts=2048\nseed=2\n"
            "ri_table={ri}\n",
}

# The packaged RI table stops at order 15.  Orders 20 and 40 get stand-in
# values, supplied by hand: they place matrices in CR bins, and only the
# bits of the outputs are compared.
_RI_ABOVE_15 = "20 1.6 0 0\n40 1.7 0 0\n"


def output_diff(before: str, after: str) -> list[str]:
    """The lines of a line diff between two outputs: '-line' for a line
    only `before` has at that place, '+line' for one only `after` has."""
    return [d[0] + d[2:] for d in difflib.ndiff(before.splitlines(), after.splitlines())
            if d.startswith(("- ", "+ "))]


def manifest_diff(before: str, after: str) -> list[str]:
    """`output_diff` of two manifests, the timestamp ignored."""
    old, new = ("\n".join(ln for ln in text.splitlines() if not ln.startswith("timestamp_utc="))
                for text in (before, after))
    return output_diff(old, new)


def csv_diff(before: Path, after: Path) -> list[str]:
    """CSV files of two output directories that are missing or differ."""
    names = sorted({p.name for d in (before, after) for p in d.glob("*.csv")})
    return [name for name in names
            if not ((before / name).is_file() and (after / name).is_file()
                    and (before / name).read_bytes() == (after / name).read_bytes())]


# The single-matrix commands, each run on every matrix file.
SINGLE = (("weights", "--method", "all"), ("weights", "--method", "all", "--repair"),
          ("consistency",), ("compare",))

# Writes the `verify` matrices into the directory argv[1], as printed and
# as reconciled.
_WRITE_VERIFY = """
import sys
from pathlib import Path
from pcmkit.core import format_matrix_text
from pcmkit.verify import CASES
for k, case in enumerate(CASES):
    Path(sys.argv[1], f"verify_{k}_printed.txt").write_text(case.matrix_text)
    Path(sys.argv[1], f"verify_{k}_reconciled.txt").write_text(
        format_matrix_text(case.matrix, (case.name,)))
"""


# Prints "n samples scale workers hex" for every RI run given in argv[1].
_RI_HEX = """
import json, sys
from pcmkit.consistency import estimate_random_index
for n, samples, scale, workers in json.loads(sys.argv[1]):
    ri = estimate_random_index(n, samples, n, scale=scale, workers=workers)
    print(n, samples, scale, workers, ri.hex())
"""


def ri_runs() -> list[tuple[int, int, str, int]]:
    """(order, samples, scale, workers) of every RI estimate compared."""
    return [(n, samples, scale, workers)
            for samples in (4000, 45_000) for scale in ("saaty", "log-uniform")
            for workers in (1, 2) for n in range(3, 16)
            ] + [(60, 1000, scale, 1) for scale in ("saaty", "log-uniform")]


def single_runs(files) -> list[list[str]]:
    """The CLI arguments of every single-matrix run: each command of
    SINGLE on each file, file by file."""
    return [[*command, str(f)] for f in files for command in SINGLE]


def other_runs(matrices: Path) -> list[list[str]]:
    """The CLI arguments of the runs on no single file: both aggregations of
    the opposed judges (the first two `verify` cases, as printed), priority
    aggregation by each solved method over the first four `verify` cases
    (order 4, printed exactly) and over a judge and the first order-5 case,
    a one-chunk RI table on stdout, and `verify`."""
    printed = [str(matrices / f"verify_{k}_printed.txt") for k in range(5)]
    aip = ("--mode", "aip", "--method")
    return [["aggregate", *printed[:2], "--mode", "aij"],
            ["aggregate", *printed[:2], *aip, "rgm"],
            *(["aggregate", *printed[:4], *aip, method]
              for method in ("right", "left-inverse", "rl")),
            ["aggregate", printed[0], printed[4], *aip, "right"],
            ["ri-estimate", "--orders", "3-6", "--samples", "4000"],
            ["verify"]]


def untimed(output: str) -> str:
    """`output` with the time of a `verify` summary line taken out."""
    return re.sub(r"^(\d+/\d+ checks passed) in [0-9.]+s$", r"\1", output, flags=re.M)


def pcmkit(tree: Path, args: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, **kwargs)


def simulate(tree: Path, config: Path, out: Path, workers: int) -> None:
    pcmkit(tree, ["-m", "pcmkit.cli", "simulate", str(config), "--out", str(out),
                  "--workers", str(workers)], check=True, stdout=subprocess.DEVNULL)


def matrix_files(tree: Path, into: Path) -> list[Path]:
    """Write the single-matrix inputs with the pcmkit of `tree`."""
    into.mkdir()
    pcmkit(tree, ["-c", _WRITE_VERIFY, str(into)], check=True)
    files = sorted(into.glob("verify_*.txt"))
    for n in range(3, 16):
        out = into / f"generated_{n}"
        pcmkit(tree, ["-m", "pcmkit.cli", "generate", "--n", str(n), "--delta", "2",
                      "--seed", str(n), "--out-dir", str(out)],
               check=True, stdout=subprocess.DEVNULL)
        files.append(out / "matrix_0.txt")
    return files


def single_output(tree: Path, args: list[str]) -> str:
    """Exit code, stdout and stderr of one CLI run in `tree`, untimed."""
    proc = pcmkit(tree, ["-m", "pcmkit.cli", *args], capture_output=True, text=True)
    return untimed(f"exit {proc.returncode}\n{proc.stdout}--- stderr\n{proc.stderr}")


def report(what: str, found: list[str], sha: str) -> int:
    """Print one run's verdict and its differences; return how many there are."""
    print(f"{what}: " + ("identical to " + sha[:7] if not found else "DIFFERS"), flush=True)
    for line in found:
        print(f"  {line}")
    return len(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    args = parser.parse_args(argv)

    differences = 0
    with tempfile.TemporaryDirectory(prefix="bits-") as tmp:
        tmp = Path(tmp)
        sha = export(args.parent, tmp)
        trees = {"parent": tmp / "tree", "tree": ROOT}
        # One RI file and one config per grid, shared by both sides, so
        # that the manifests name the same paths.
        ri = tmp / "ri.txt"
        ri.write_text((ROOT / "src/pcmkit/data/ri_table.txt").read_text() + _RI_ABOVE_15)
        for grid, text in GRIDS.items():
            config = tmp / f"{grid}.cfg"
            config.write_text(text.format(ri=ri))
            for workers in (1, 2):
                outs = {side: tmp / f"{side}-{grid}-w{workers}" for side in trees}
                for side, tree in trees.items():
                    simulate(tree, config, outs[side], workers)
                found = csv_diff(outs["parent"], outs["tree"]) + manifest_diff(
                    (outs["parent"] / "manifest.txt").read_text(),
                    (outs["tree"] / "manifest.txt").read_text())
                differences += report(f"{grid}, {workers} worker(s)", found, sha)
        files = matrix_files(trees["parent"], tmp / "matrices")
        runs = single_runs(files) + other_runs(tmp / "matrices")
        found = []
        for args in runs:
            before, after = (single_output(tree, args) for tree in trees.values())
            found += [f"{' '.join(args)}: {line}" for line in output_diff(before, after)]
        differences += report(f"CLI, {len(runs)} runs on {len(files)} matrix files", found, sha)
        estimates = ri_runs()
        before, after = (pcmkit(tree, ["-c", _RI_HEX, json.dumps(estimates)], check=True,
                                capture_output=True, text=True).stdout
                         for tree in trees.values())
        differences += report(f"random index, {len(estimates)} estimates",
                              output_diff(before, after), sha)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
