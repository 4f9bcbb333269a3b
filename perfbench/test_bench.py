"""Fast test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

EXPECTED_CHECKS = {
    "setup.cold_start_exit_0",
    "sim.commands_exit_0",
    "sim.csv_files_present",
    "sim.w1_w2_byte_identical",
    "sim.histogram_totals_equal_count",
    "sim.csv_hashes_repeat",
    "sim.reference_bins",
    "ri.commands_exit_0",
    "ri.within_sampling_error_of_shipped_table",
    "ri.reference_values",
    "single.matches_numpy_eig_oracle",
    "verify.passes_every_check_passing_at_reference",
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload,trace", [
    ("sim-grid", 0), ("ri-table", 0), ("single-matrix", 0), ("sim-grid", 1),
])
def test_workload_reports_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert summary["metrics"] == {
        m["name"]: {"value": summary["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in summary["metrics"].values())
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0

    result = json.loads((BENCH / "out" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert set(result["checks"]) == EXPECTED_CHECKS
    assert all(result["checks"].values())
    assert result["failed_share"] == 0
    assert result["provenance"]["src_lines"] > 0
    if trace:
        assert result["spans"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("sim-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
