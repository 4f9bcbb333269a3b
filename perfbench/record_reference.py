"""Record the outputs the benchmark's reference checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the per-delta bin CSVs of a fixed small
simulation, the random indices of a fixed small `ri-estimate`, the
standard deviation of CI per order (for the sampling-error check, from
numpy.linalg.eigvals on matrices drawn here), and the verifier's pass
count with its known failures.  Rerun it only on a commit whose outputs
are trusted, and say so in the change that commits the new files.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import run as bench

SAATY = np.array([1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2,
                  1, 2, 3, 4, 5, 6, 7, 8, 9])


def ci_sd(n: int, count: int, rng: np.random.Generator) -> float:
    iu, ju = np.triu_indices(n, 1)
    upper = SAATY[rng.integers(0, SAATY.size, size=(count, iu.size))]
    mats = np.ones((count, n, n))
    mats[:, iu, ju] = upper
    mats[:, ju, iu] = 1.0 / upper
    lam = np.linalg.eigvals(mats).real.max(axis=1)
    return float(((lam - n) / (n - 1)).std())


def main() -> None:
    ref = bench.REFERENCE
    ref.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.BENCH) as tmp:
        out, _, ok = bench.simulate(Path(tmp), bench.REF_SIM_CONFIG, "sim_ref", 1)
        if not ok:
            raise SystemExit("reference simulation failed")
        for metric in bench.REF_SIM_METRICS:
            name = f"bins_{metric}_by_delta.csv"
            shutil.copyfile(out / name, ref / name)
        values, _ = bench.ri_estimate(bench.REF_RI_ARGS)
        if values is None:
            raise SystemExit("reference ri-estimate failed")
    rng = np.random.default_rng(20221117)
    (ref / "ri.json").write_text(json.dumps({
        "reference_args": bench.REF_RI_ARGS,
        "reference_ri": {str(n): v for n, v in values.items()},
        "ci_sd": {str(n): ci_sd(n, 20_000, rng) for n in bench.RI_ORDERS},
    }, indent=1) + "\n")
    report = bench.verify.run_verification()
    (ref / "verify.json").write_text(json.dumps({
        "passed": len(report.outcomes) - len(report.failures),
        "total": len(report.outcomes),
        "known_failures": [[f.case, f.check] for f in report.failures],
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
