"""Check that a change leaves every simulation output bit-identical.

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

    python3 tools/bits.py [--parent REV]

Prints one line per run and every difference; exits 1 on any difference.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import difflib
import os
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


def manifest_diff(before: str, after: str) -> list[str]:
    """The lines of a line diff between two manifests, the timestamp
    ignored: '-line' for a line only `before` has at that place, '+line'
    for one only `after` has."""
    old, new = ([ln for ln in text.splitlines() if not ln.startswith("timestamp_utc=")]
                for text in (before, after))
    return [d[0] + d[2:] for d in difflib.ndiff(old, new) if d.startswith(("- ", "+ "))]


def csv_diff(before: Path, after: Path) -> list[str]:
    """CSV files of two output directories that are missing or differ."""
    names = sorted({p.name for d in (before, after) for p in d.glob("*.csv")})
    return [name for name in names
            if not ((before / name).is_file() and (after / name).is_file()
                    and (before / name).read_bytes() == (after / name).read_bytes())]


def simulate(tree: Path, config: Path, out: Path, workers: int) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-m", "pcmkit.cli", "simulate", str(config),
                    "--out", str(out), "--workers", str(workers)],
                   cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)


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
                differences += len(found)
                print(f"{grid}, {workers} worker(s): "
                      + ("identical to " + sha[:7] if not found else "DIFFERS"), flush=True)
                for line in found:
                    print(f"  {line}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
