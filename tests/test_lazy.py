"""The import surface: `import pcmkit` loads only what a caller uses, every
public name still resolves, and the imports moved into functions change no
result."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcmkit
from pcmkit import (
    build_ri_table,
    estimate_random_index,
    load_matrix,
    right_eigenvector,
    row_geometric_mean,
)

SRC = Path(pcmkit.__file__).resolve().parents[1]

# Loaded on first use only.
DEFERRED = ("pcmkit.montecarlo", "pcmkit.verify", "multiprocessing", "fractions")

# Every name `pcmkit` exported before its simulation and verification names
# became lazy, less those since removed.
EXPORTS = (
    "ConsistencyReport", "RiProvenance", "RiTable", "build_ri_table", "consistency_index",
    "consistency_ratio", "default_ri_table", "estimate_random_index",
    "PCMatrix", "ReciprocityMode", "ReciprocityPolicy", "WeightVector",
    "format_matrix_text", "load_matrix", "normalize", "parse_matrix_text",
    "reconcile_matrix_text", "validate",
    "DimensionMismatchError", "EmptyListError", "MissingRiError", "NoConvergenceError",
    "NonPositiveEntryError", "NonPositiveWeightError", "NonSquareError", "PcmError",
    "ReciprocityViolationError",
    "METRICS", "ComparisonRecord", "compare_methods",
    "BinColumns", "GeneratorConfig", "SimulationConfig", "SimulationResult",
    "bin_columns", "generate_perturbed", "run_simulation",
    "CASES", "VerifyCase", "run_verification",
    "EigenResult", "aggregate_matrices_geometric", "aggregate_priorities_geometric",
    "combined_eigenvector", "eigen_system", "inverse_left_eigenvector", "right_eigenvector",
    "row_geometric_mean",
    "__version__",
)

# Once exported and since deleted: only tests used them.
REMOVED = {"CrHistogram": "montecarlo", "Normalization": "core",
           "consistent_from_weights": "core", "is_consistent": "core", "permute": "core",
           "transpose": "core", "chebyshev": "metrics", "euclidean": "metrics",
           "kendall_tau": "metrics", "max_ratio": "metrics", "left_eigenvector": "weighting"}

MATRIX = """4
1    3    1.5  0.5
1/3  1    2    2
2/3  0.5  1    1
2    0.5  1    1
"""


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX)
    return str(path)


class TestColdImport:
    def test_import_loads_no_deferred_module(self):
        loaded = fresh("import json, sys, pcmkit; pcmkit.default_ri_table(); "
                       f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
        assert loaded == []

    def test_weights_command_loads_neither_simulation_nor_verification(self, matrix_file):
        loaded = fresh("import contextlib, io, json, sys\n"
                       "from pcmkit import cli\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       f"    code = cli.main(['weights', {matrix_file!r}])\n"
                       "print(json.dumps([code] + [m for m in ('pcmkit.montecarlo', "
                       "'pcmkit.verify') if m in sys.modules]))")
        assert loaded == [0]

    def test_every_export_resolves_in_a_fresh_interpreter(self):
        got = fresh("import json, pcmkit\n"
                    f"names = {EXPORTS!r}\n"
                    "bad = [n for n in names if n not in dir(pcmkit)]\n"
                    "for n in names:\n"
                    "    ns = {}\n"
                    "    exec(f'from pcmkit import {n} as x', ns)\n"
                    "    if ns['x'] is not getattr(pcmkit, n):\n"
                    "        bad.append(n)\n"
                    "from pcmkit import montecarlo, verify\n"
                    "bad += [n for n in ('run_simulation', 'bin_columns') "
                    "if getattr(montecarlo, n) is not getattr(pcmkit, n)]\n"
                    "bad += [n for n in ('CASES', 'run_verification') "
                    "if getattr(verify, n) is not getattr(pcmkit, n)]\n"
                    "print(json.dumps(bad))")
        assert got == []

    def test_every_export_resolves_here(self):
        assert set(EXPORTS) <= set(dir(pcmkit))
        for name in EXPORTS:
            namespace: dict = {}
            exec(f"from pcmkit import {name} as value", namespace)
            assert namespace["value"] is getattr(pcmkit, name)

    @pytest.mark.parametrize("name", sorted(REMOVED))
    def test_removed_name_cannot_be_imported(self, name):
        assert name not in dir(pcmkit)
        for module in ("pcmkit", f"pcmkit.{REMOVED[name]}"):
            with pytest.raises(ImportError):
                exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize("name", ["no_such_name", "cli_main", "WeightsCheck"])
    def test_unknown_attribute_raises(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(pcmkit, name)
        with pytest.raises(ImportError):
            exec(f"from pcmkit import {name}", {})


@pytest.fixture()
def started(monkeypatch) -> list:
    """Every worker process started while it lives."""
    from multiprocessing.process import BaseProcess

    procs: list = []
    start = BaseProcess.start

    def counting_start(self):
        procs.append(self)
        start(self)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    return procs


class TestDeferredImportsChangeNothing:
    # A 2-worker simulate through the CLI, which imports multiprocessing when
    # it starts a worker, is compared with 1 and 8 workers by acceptance
    # criterion 09.

    def test_ri_table_starts_one_worker_and_keeps_every_value(self, started):
        # 45,000 samples are three chunks per order.
        table = build_ri_table([5, 3, 4], 45_000, 17, workers=2)
        assert len(started) == 1
        assert table.orders == (3, 4, 5)
        for n in table.orders:
            assert table.ri(n) == estimate_random_index(n, 45_000, 17 + n)
            assert table.provenance_of(n).seed == 17 + n

    @pytest.mark.parametrize("orders, samples, message", [
        ([3, 2], 2000, "random index needs n >= 3, got 2"),
        ([4], 999, "need at least 1000 samples for a random index, got 999"),
    ])
    def test_ri_table_keeps_argument_messages(self, orders, samples, message):
        with pytest.raises(ValueError, match=message):
            build_ri_table(orders, samples, 1, workers=2)

    def test_a_bad_scale_is_rejected_before_any_worker_starts(self, started):
        with pytest.raises(ValueError, match="unknown scale 'bad'"):
            build_ri_table([3, 4], 40_000, 1, scale="bad", workers=2)
        assert started == []


def _simulation(tasks: int, workers: int):
    """A one-cell simulation of `tasks` batches, the last one of 50 matrices."""
    from pcmkit.montecarlo import _BATCH, SimulationConfig, run_simulation

    config = SimulationConfig(dims=(4,), deltas=(1.0,),
                              matrices_per_cell=_BATCH * (tasks - 1) + 50, seed=5)
    return run_simulation(config, workers=workers)


class TestFanOutSize:
    """The calling process runs tasks too, so fewer worker processes start
    than there are tasks, and one task starts none."""

    def test_a_one_chunk_estimate_starts_no_worker(self, started):
        assert estimate_random_index(6, 4000, 9, workers=2) == estimate_random_index(6, 4000, 9)
        assert started == []

    def test_a_one_task_simulation_starts_no_worker(self, started):
        wide, serial = _simulation(1, 8), _simulation(1, 1)
        assert started == []
        assert wide.cell_tables[(4, 1.0)].tobytes() == serial.cell_tables[(4, 1.0)].tobytes()

    def test_three_tasks_start_two_workers(self, started):
        wide, serial = _simulation(3, 8), _simulation(3, 1)
        assert len(started) == 2
        assert wide.cell_tables[(4, 1.0)].tobytes() == serial.cell_tables[(4, 1.0)].tobytes()

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("tasks", [0, 1, 3])
    def test_a_worker_count_below_one_is_rejected_before_any_task(self, started, workers,
                                                                  tasks):
        from pcmkit.consistency import _ordered_map

        ran = []
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _ordered_map(ran.append, [(k,) for k in range(tasks)], workers)
        assert ran == [] and started == []


class TestIdentityEquality:
    def test_matrices_vectors_and_eigen_results_compare_without_raising(self, matrix_file):
        a, b = load_matrix(matrix_file), load_matrix(matrix_file)
        assert a.entries.tobytes() == b.entries.tobytes()
        pairs = [(a, b), (row_geometric_mean(a), row_geometric_mean(b)),
                 (right_eigenvector(a), right_eigenvector(b))]
        for x, y in pairs:
            assert x == x and not x != x
            assert (x == y) is False and x != y
            assert len({x, y, x}) == 2  # hashable
        # The memo hands back the same result, which is equal to itself.
        assert right_eigenvector(a) == right_eigenvector(a)
        assert np.array_equal(right_eigenvector(a).weights.priorities,
                              right_eigenvector(b).weights.priorities)
