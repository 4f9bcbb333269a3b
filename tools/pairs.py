"""Alternating before/after pairs of perfbench runs.

Exports a commit (the parent of a change, by default HEAD) with
`git archive` into a temporary directory, then for every seed runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace X

once in that export ("before") and once in the working tree ("after"),
alternating which side runs first: the first seed runs the export first,
the second the working tree first, and so on.  The metrics of every pair
are written as one set of a BENCH_*.json file: the end-to-end metrics with
`--trace 0` (the default), the per-layer ones with `--trace 1`.

    python3 tools/pairs.py --workload single-matrix --seeds 101-110 \\
        --out BENCH_cold_start.json --note "what the change is"

`--append` adds the set to an existing file instead of starting a new one.
`--claim METRIC` prints whether the speed rule holds for that metric (at
least 10 pairs, after better in at least 9 of every 10, and the median
better by more than the width of the parent's interquartile range) and
stores the verdict in the set.
Each set records the `--trace` it ran with, and every metric records in how
many pairs the working tree beat the parent (`after_wins`), in the
direction its `better` field in BENCHMARK.json gives; a tie counts for
neither side.
Medians and interquartile ranges use `statistics.quantiles` (exclusive
method).  Run from the repository root, with nothing else busy: the two
sides of a pair share the machine with whatever else runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(spec: str) -> list[int]:
    """Seeds of a spec such as '101-110' or '1,3,5', in the order given.  A
    descending range or a seed named twice is an error, not a smaller or
    double-counted set."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"descending seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seed spec {spec!r} names a seed twice")
    return seeds


def export(rev: str, into: Path) -> str:
    """Extract `rev` into `into`; return its full commit hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = into / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()
    return sha


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: its one-line JSON summary."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
        # perfbench puts its own tree's src first; an inherited path must not.
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} (seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def directions() -> dict[str, str]:
    """`better` ("higher" or "lower") of every metric BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}


def after_wins(before: list[float], after: list[float], better: str | None) -> int | None:
    """Pairs in which `after` beat `before`; None for a metric without a direction."""
    if better not in ("higher", "lower"):
        return None
    sign = 1 if better == "higher" else -1
    return sum(sign * (a - b) > 0 for b, a in zip(before, after))


def summary(values: list[float]) -> tuple[float, list[float]]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return round(median, 4), [round(q1, 4), round(q3, 4)]


def verdict(name: str, entry: dict, better: str) -> dict:
    """The speed rule for a claimed metric's entry: at least 10 pairs, after
    better in at least 9 of every 10, and a median gain, in the metric's
    direction, wider than the parent's interquartile range."""
    sign = 1 if better == "higher" else -1
    pairs = len(entry["before"])
    gain = round(sign * (entry["after_median"] - entry["before_median"]), 4)
    iqr = round(entry["before_iqr"][1] - entry["before_iqr"][0], 4)
    wins = entry["after_wins"]
    return {"metric": name, "pairs": pairs, "after_wins": wins, "median_gain": gain,
            "parent_iqr_width": iqr,
            "holds": pairs >= 10 and 10 * wins >= 9 * pairs and gain > iqr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. '101-110' or '1,3,5'")
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--out", required=True, help="BENCH_*.json file to write")
    parser.add_argument("--note", default="", help="what the working tree changes")
    parser.add_argument("--append", action="store_true", help="add a set to --out")
    parser.add_argument("--claim", metavar="METRIC",
                        help="judge the speed rule for this metric and store the verdict")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if len(seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    better = directions()
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim: {args.claim!r} is not a metric of BENCHMARK.json")

    runs: dict[str, list[dict]] = {"before": [], "after": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sha = export(args.parent, Path(tmp))
        trees = {"before": Path(tmp) / "tree", "after": ROOT}
        for i, seed in enumerate(seeds):
            sides = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in sides:
                runs[side].append(bench(trees[side], args.workload, seed, args.seconds,
                                        args.trace))
            pair = {side: runs[side][-1]["metrics"] for side in runs}
            print(f"seed {seed} ({sides[0]} first): " + ", ".join(
                f"{m} {pair['before'][m]['value']:.4g} -> {pair['after'][m]['value']:.4g}"
                for m in pair["before"]), flush=True)
        shutil.rmtree(trees["before"] / "perfbench" / "out", ignore_errors=True)

    metrics = {}
    for name, first in runs["before"][0]["metrics"].items():
        entry: dict = {"unit": first["unit"]}
        for side in ("before", "after"):
            entry[side] = [round(r["metrics"][name]["value"], 4) for r in runs[side]]
        for side in ("before", "after"):
            entry[f"{side}_median"], entry[f"{side}_iqr"] = summary(entry[side])
        entry["after_wins"] = after_wins(entry["before"], entry["after"], better.get(name))
        metrics[name] = entry
    all_runs = runs["before"] + runs["after"]
    result_set = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "order": "the first seed ran the parent first, then the sides alternated",
        "failed": sorted({r["failed"] for r in all_runs}),
        "correct": all(r["correct"] for r in all_runs),
        "metrics": metrics,
    }
    if args.claim is not None:
        entry = metrics.get(args.claim)
        result_set["claim"] = (verdict(args.claim, entry, better[args.claim]) if entry
                               else {"metric": args.claim, "holds": False,
                                     "why": "not measured by this workload"})
    out = Path(args.out)
    if args.append:
        doc = json.loads(out.read_text())
    else:
        import numpy
        doc = {
            "what": (f"perfbench/run.py metrics, parent commit {sha[:7]} against "
                     f"{args.note or 'the working tree'}, in alternating pairs on the same "
                     "machine with the same harness; each set records its --trace"),
            "machine": (f"{os.cpu_count()} cores, {platform.machine()}, Python "
                        f"{platform.python_version()}, numpy {numpy.__version__}"),
            "sets": [],
        }
    doc["sets"].append(result_set)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in metrics.items():
        wins = "" if m["after_wins"] is None else f", after better in {m['after_wins']}/{len(seeds)}"
        print(f"{name}: {m['before_median']} {m['before_iqr']} -> "
              f"{m['after_median']} {m['after_iqr']} {m['unit']}{wins}")
    if args.claim is not None:
        claim = result_set["claim"]
        print(f"claim {args.claim}: {'holds' if claim['holds'] else 'does not hold'} "
              f"({json.dumps({k: v for k, v in claim.items() if k not in ('metric', 'holds')})})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
