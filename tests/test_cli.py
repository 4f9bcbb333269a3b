import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcmkit import (METRICS, aggregate_priorities_geometric, bin_columns, combined_eigenvector,
                    format_matrix_text, inverse_left_eigenvector, load_matrix,
                    right_eigenvector, row_geometric_mean)
from pcmkit.cli import (WORKERS_ENV, _parse_simulation_config, _round_half_away, build_parser,
                        main)

from conftest import reference_bins

FIVE_ALT_TEXT = """5
1    1    3    9  9
1    1    5    8  5
1/3  1/5  1    9  5
1/9  1/8  1/9  1  1
1/9  1/5  1/5  1  1
"""

JUDGE_1_TEXT = """4
1    1    1    9
1    1    2    5
1    1/2  1    9
1/9  1/5  1/9  1
"""

JUDGE_2_TEXT = """4
1    1    1    1/9
1    1    1/2  1/5
1    2    1    1/9
9    5    9    1
"""

TINY_CONFIG = """# tiny simulation
dims=4,5
deltas=1,2
counts=2000
seed=31
bin_width=0.005
min_bin_count=1000
cr_cap=0.5
"""


# An overflow bucket, suppressed and kept bins, an order of 10 and a bin
# width that is not a power of ten.
RENDER_CONFIG = """dims=3,10
deltas=0.5,4
counts=1500
seed=5
bin_width=0.03
min_bin_count=60
cr_cap=0.24
"""

REFERENCE_BIN_HEADER = "count,mean_R_vs_invL,mean_R_vs_RL,mean_R_vs_RGM,closer_prob,suppressed"


def _g12(x) -> str:
    return format(float(x), ".12g")


def _bin_lower(config, b: int) -> float:
    return config.cr_cap if b == config.n_bins else b * config.bin_width


def _reference_bin_row(ref, metric: int) -> str:
    """A bin's CSV columns from its lower edge on, formatted one value at a
    time from its reference bin: the rows the CSV writer must reproduce."""
    mean = ref.means[metric]
    return ",".join([
        _g12(ref.lower), str(ref.count),
        _g12(mean[0]), _g12(mean[1]), _g12(mean[2]),
        _g12(ref.closer[metric]),
        "true" if ref.suppressed else "false",
    ])


@pytest.fixture()
def five_alt_file(tmp_path):
    path = tmp_path / "five.txt"
    path.write_text(FIVE_ALT_TEXT)
    return str(path)


def _run_capped(*argv: str) -> subprocess.CompletedProcess:
    """The CLI on `argv` in a subprocess under a 2 GiB address-space cap and
    a timeout, so that a run not refused fails alone instead of exhausting
    the machine."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from pcmkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=30)


def _weight_row(output: str, method: str) -> list[float]:
    for line in output.splitlines():
        parts = line.split()
        if parts and parts[0] == method:
            return [float(x) for x in parts[1:]]
    raise AssertionError(f"no row for method {method!r} in output:\n{output}")


class TestWeightsCommand:
    def test_published_five_alternative_table(self, five_alt_file, capsys):
        assert main(["weights", five_alt_file, "--method", "all"]) == 0
        out = capsys.readouterr().out
        row = _weight_row(out, "right")
        expected = [36.5652, 38.9564, 16.7155, 3.4693, 4.2936]
        assert np.max(np.abs(np.array(row) - expected)) < 0.005

    def test_all_ones_uniform(self, tmp_path, capsys):
        path = tmp_path / "ones.txt"
        path.write_text("4\n" + "\n".join(["1 1 1 1"] * 4) + "\n")
        assert main(["weights", str(path), "--method", "rgm"]) == 0
        row = _weight_row(capsys.readouterr().out, "rgm")
        assert row == [25.0, 25.0, 25.0, 25.0]

    def test_fraction_and_decimal_files_agree(self, tmp_path, capsys):
        frac = tmp_path / "frac.txt"
        frac.write_text("3\n1 1/3 2\n3 1 6\n1/2 1/6 1\n")
        deci = tmp_path / "deci.txt"
        deci.write_text(
            "3\n1 0.333333333333333315 2\n3 1 6\n0.5 0.166666666666666657 1\n"
        )
        assert main(["weights", str(frac)]) == 0
        out_frac = capsys.readouterr().out
        assert main(["weights", str(deci)]) == 0
        out_deci = capsys.readouterr().out
        assert out_frac == out_deci

    def test_sum_one_scale(self, five_alt_file, capsys):
        assert main(["weights", five_alt_file, "--method", "right",
                     "--scale", "sum1"]) == 0
        row = _weight_row(capsys.readouterr().out, "right")
        assert sum(row) == pytest.approx(1.0, abs=2e-4)

    def test_unparseable_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        assert main(["weights", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["weights", "/nonexistent/matrix.txt"]) == 2


class TestConsistencyCommand:
    def test_report_fields(self, five_alt_file, capsys):
        assert main(["consistency", five_alt_file]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
        assert float(values["cr"]) == pytest.approx(0.082, abs=0.005)
        assert values["acceptable"] == "true"
        assert "estimated" in values["ri"]

    def test_custom_ri_table(self, five_alt_file, tmp_path, capsys):
        from pcmkit import default_ri_table

        doubled = 2.0 * default_ri_table().ri(5)
        table = tmp_path / "ri.txt"
        table.write_text(f"5 {doubled!r} 1000 1\n")
        assert main(["consistency", five_alt_file, "--ri-table", str(table)]) == 0
        out = capsys.readouterr().out
        cr_line = [l for l in out.splitlines() if l.startswith("cr")][0]
        assert float(cr_line.split("=")[1]) == pytest.approx(0.0783 / 2, abs=0.002)

    @pytest.mark.parametrize("ri", ["-0.9", "0", "nan", "inf"])
    def test_bad_ri_table_value_exits_2(self, five_alt_file, tmp_path, capsys, ri):
        table = tmp_path / "ri.txt"
        table.write_text(f"4 1.0 1000 1\n5 {ri} 1000 1\n")
        assert main(["consistency", five_alt_file, "--ri-table", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(table) in captured.err and "order 5" in captured.err

    def test_repeated_ri_table_order_exits_2(self, five_alt_file, tmp_path, capsys):
        table = tmp_path / "ri.txt"
        table.write_text("4 0.9 1000 1\n4 0.5 1000 1\n")
        assert main(["consistency", five_alt_file, "--ri-table", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pcmkit: error: {table}:2: order 4 repeats line 1\n"

    def test_unparseable_ri_table_field_names_file_and_line(self, five_alt_file, tmp_path,
                                                            capsys):
        table = tmp_path / "ri.txt"
        table.write_text("# n ri samples seed\n3 x 1000 1\n")
        assert main(["consistency", five_alt_file, "--ri-table", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"pcmkit: error: {table}:2: ")
        assert "'x'" in captured.err


class TestCompareCommand:
    def test_record_output(self, five_alt_file, capsys):
        assert main(["compare", five_alt_file]) == 0
        out = capsys.readouterr().out
        assert "euclidean" in out
        assert "top_reversal = true" in out


    def test_underflowing_vector_exits_2_without_warning(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("3\n1 1e300 1e300\n1e-300 1 1\n1e-300 1 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("pcmkit: error: all priorities must be strictly "
                                "positive and finite\n")


@pytest.mark.parametrize("command", ["weights", "consistency", "compare"])
def test_extra_matrix_row_exits_2_naming_its_line(tmp_path, capsys, command):
    path = tmp_path / "extra.txt"
    path.write_text("3\n1 2 3\n0.5 1 2\n0.3333333333333333 0.5 1\n9 9 9\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pcmkit: error: line 5: unexpected data after the 3 matrix rows\n"


@pytest.mark.parametrize("command", ["weights", "consistency", "compare"])
def test_underflowing_perron_vector_exits_2_with_one_error_line(tmp_path, command):
    """Run as a user would, with numpy's warnings shown: the only line on
    stderr is the error."""
    path = tmp_path / "underflow.txt"
    path.write_text("3\n1 1e200 1e300\n1e-200 1 1e250\n1e-300 1e-250 1\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "pcmkit.cli", command, str(path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pcmkit: error: no convergence"), lines


class TestGenerateCommand:
    def test_writes_deterministic_loadable_matrices(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["generate", "--n", "5", "--delta", "2", "--count", "4",
                         "--seed", "9", "--out-dir", str(out)]) == 0
        files_a = sorted(out_a.iterdir())
        files_b = sorted(out_b.iterdir())
        assert len(files_a) == 4
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()
        # full-precision text reloads under the strictest reciprocity check
        assert main(["weights", str(files_a[0]), "--tolerance", "1e-9"]) == 0

    @pytest.mark.parametrize("flag,value", [
        ("--delta", "nan"), ("--delta", "inf"), ("--weight-high", "inf"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, flag, value):
        args = {"--n": "4", "--delta": "1", "--out-dir": str(tmp_path / "m")}
        args[flag] = value
        assert main(["generate", *(x for kv in args.items() for x in kv)]) == 2
        assert "pcmkit: error:" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_half_width_of_infinite_width_exits_2(self, tmp_path, capsys):
        # 2 * 1e308 overflows: the draw would span no finite range.
        assert main(["generate", "--n", "4", "--delta", "1e308",
                     "--out-dir", str(tmp_path / "m")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite width 2 * delta" in captured.err
        assert not (tmp_path / "m").exists()

    def test_unsolvable_extreme_matrix_exits_2_without_warning(self, tmp_path, capsys):
        # Entries near 1e300 overflow the power iteration; its failure is
        # reported as a message, and the eigenvalue check of the failed
        # solve raises no numpy warning.
        assert main(["generate", "--n", "4", "--delta", "1e300", "--count", "1",
                     "--out-dir", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        assert main(["weights", str(tmp_path / "m" / "matrix_0.txt")]) == 2
        assert capsys.readouterr().err == \
            "pcmkit: error: no convergence after 10000 iterations (residual nan)\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_2(self, tmp_path, capsys, count):
        assert main(["generate", "--n", "4", "--delta", "1", "--count", count,
                     "--out-dir", str(tmp_path / "m")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--count" in captured.err
        assert not (tmp_path / "m").exists()

    def test_order_below_three_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--n", "2", "--delta", "1",
                     "--out-dir", str(tmp_path / "m")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and ">= 3" in captured.err
        assert not (tmp_path / "m").exists()


class TestSimulateCommand:
    def _run(self, tmp_path, out_name, extra=()):
        config = tmp_path / "sim.cfg"
        config.write_text(TINY_CONFIG)
        out_dir = tmp_path / out_name
        code = main(["simulate", str(config), "--out", str(out_dir), *extra])
        assert code == 0
        return out_dir

    def test_files_written(self, tmp_path, capsys):
        out_dir = self._run(tmp_path, "run", ("--workers", "1"))
        names = {p.name for p in out_dir.iterdir()}
        assert "histogram.csv" in names
        assert "manifest.txt" in names
        for metric in ("euclidean", "chebyshev", "max_ratio", "kendall"):
            assert f"bins_{metric}.csv" in names
            assert f"bins_{metric}_by_delta.csv" in names

    def test_histogram_rows_match_touched_bins(self, tmp_path, capsys):
        out_dir = self._run(tmp_path, "run")
        lines = (out_dir / "histogram.csv").read_text().splitlines()
        assert lines[0] == "n,delta,bin_lower,count"
        counts = {}
        total = 0
        for line in lines[1:]:
            n, delta, lower, count = line.split(",")
            assert int(count) > 0
            counts[(n, delta)] = counts.get((n, delta), 0) + int(count)
            total += int(count)
        assert total == 4 * 2000
        assert set(counts) == {("4", "1"), ("4", "2"), ("5", "1"), ("5", "2")}

    def test_manifest_reproduces_configuration(self, tmp_path, capsys):
        out_dir = self._run(tmp_path, "run")
        manifest = (out_dir / "manifest.txt").read_text()
        assert "seed=31" in manifest
        assert "dims=4,5" in manifest
        assert "counts=2000" in manifest
        assert "ri[4]=" in manifest
        assert "tool_version=" in manifest

    def test_manifest_hashes_every_csv(self, tmp_path, capsys):
        out_dir = self._run(tmp_path, "run")
        lines = (out_dir / "manifest.txt").read_text().splitlines()
        assert f"numpy={np.__version__}" in lines
        hashes = dict(re.fullmatch(r"sha256\[(.+)\]=([0-9a-f]{64})", line).groups()
                      for line in lines if line.startswith("sha256["))
        csvs = sorted(p.name for p in out_dir.iterdir() if p.suffix == ".csv")
        assert sorted(hashes) == csvs and len(csvs) == 9
        for name, digest in hashes.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest

    def test_byte_identical_reruns(self, tmp_path, capsys):
        first = self._run(tmp_path, "one")
        second = self._run(tmp_path, "two")
        for name in sorted(p.name for p in first.iterdir()):
            if name.endswith(".csv"):
                assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_env_var_worker_default(self, tmp_path, capsys, monkeypatch):
        flag = self._run(tmp_path, "flagged", ("--workers", "2"))
        monkeypatch.setenv(WORKERS_ENV, "2")
        env = self._run(tmp_path, "from-env")
        for name in sorted(p.name for p in flag.iterdir()):
            if name.endswith(".csv"):
                assert (flag / name).read_bytes() == (env / name).read_bytes()

    def test_csv_values_round_trip_at_twelve_digits(self, tmp_path, capsys):
        from pcmkit import SimulationConfig, default_ri_table, run_simulation

        out_dir = self._run(tmp_path, "run")
        config = SimulationConfig(dims=(4, 5), deltas=(1.0, 2.0),
                                  matrices_per_cell=2000, seed=31)
        result = run_simulation(config, default_ri_table())
        lines = (out_dir / "bins_euclidean.csv").read_text().splitlines()
        by_key = {}
        for line in lines[1:]:
            parts = line.split(",")
            bin_index = round(float(parts[1]) / 0.005)
            by_key[(int(parts[0]), bin_index)] = (int(parts[2]), float(parts[3]))
        euclidean = METRICS.index("euclidean")
        for n in (4, 5):
            c = bin_columns(config, result.order_tables[n])
            for lower, want_count, want_mean in zip(c.lower.tolist(), c.count.tolist(),
                                                    c.means[euclidean, 0].tolist()):
                count, mean = by_key[(n, round(lower / 0.005))]
                assert count == want_count
                assert mean == pytest.approx(want_mean, rel=1e-11)

    def test_unusable_out_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_simulation called before --out was checked")

        monkeypatch.setattr("pcmkit.montecarlo.run_simulation", refuse)
        config = tmp_path / "sim.cfg"
        config.write_text(TINY_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["simulate", str(config), "--out", str(taken)]) == 2
        assert "File exists" in capsys.readouterr().err

    def test_csvs_equal_rows_rendered_from_reference_bins(self, tmp_path, capsys):
        from pcmkit import default_ri_table, run_simulation

        config_path = tmp_path / "sim.cfg"
        config_path.write_text(RENDER_CONFIG)
        out_dir = tmp_path / "run"
        assert main(["simulate", str(config_path), "--out", str(out_dir)]) == 0
        config, _ = _parse_simulation_config(config_path)
        result = run_simulation(config, default_ri_table())
        pooled = {n: reference_bins(config, result.order_tables[n]) for n in config.dims}
        cells = {cell: reference_bins(config, result.cell_tables[cell])
                 for cell in sorted(result.cell_tables)}
        refs = [r for bins in pooled.values() for r in bins]
        assert 10 in config.dims and any(r.overflow for r in refs)
        assert {r.suppressed for r in refs} == {True, False}

        want = {"histogram.csv": ["n,delta,bin_lower,count"] + [
            f"{n},{_g12(delta)},{_g12(_bin_lower(config, b))},{int(count)}"
            for (n, delta), table in sorted(result.cell_tables.items())
            for b, count in enumerate(table[0]) if count]}
        for metric in ("euclidean", "chebyshev", "max_ratio", "kendall"):
            mi = METRICS.index(metric)
            want[f"bins_{metric}.csv"] = ["n,bin_lower," + REFERENCE_BIN_HEADER] + [
                f"{n},{_reference_bin_row(r, mi)}" for n, bins in pooled.items() for r in bins]
            want[f"bins_{metric}_by_delta.csv"] = ["n,delta,bin_lower," + REFERENCE_BIN_HEADER] + [
                f"{n},{_g12(delta)},{_reference_bin_row(r, mi)}"
                for (n, delta), bins in cells.items() for r in bins]
        assert sorted(p.name for p in out_dir.glob("*.csv")) == sorted(want)
        for name, lines in want.items():
            assert (out_dir / name).read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_readme_config_example_parses_as_printed(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Simulation config format", 1)[1]
        block = section.split("```\n", 2)[1]
        path = tmp_path / "sim.cfg"
        path.write_text(block, encoding="utf-8")
        config, ri_path = _parse_simulation_config(path)
        assert (config.dims, config.deltas, config.matrices_per_cell, config.seed) == \
            ((4, 5, 6), (1.0, 2.0, 3.0), 100_000, 42)
        assert (config.bin_width, config.min_bin_count, config.cr_cap) == (0.005, 1000, 0.5)
        assert ri_path == "ri.txt"

    def test_inline_comment_needs_whitespace_before_hash(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("dims=4 # orders\n  # indented comment\ndeltas=1\t#\n"
                        "counts=10\nseed=1\nri_table=a#b.txt\n", encoding="utf-8")
        config, ri_path = _parse_simulation_config(path)
        assert (config.dims, config.deltas) == ((4,), (1.0,))
        assert ri_path == "a#b.txt"

    def test_repeated_config_key_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_simulation called on a config with a repeated key")

        monkeypatch.setattr("pcmkit.montecarlo.run_simulation", refuse)
        config = tmp_path / "sim.cfg"
        config.write_text("dims=4\nseed=1\ndeltas=1\ncounts=100\n seed = 2\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == \
            f"pcmkit: error: {config}:5: key 'seed' repeats line 2\n"
        assert not (tmp_path / "x").exists()

    def test_out_of_memory_exits_2_without_traceback(self, tmp_path, capsys, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.4 GiB")

        monkeypatch.setattr("pcmkit.montecarlo.run_simulation", exhaust)
        config = tmp_path / "sim.cfg"
        config.write_text(TINY_CONFIG)
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pcmkit: error: out of memory (Unable to allocate 6.4 GiB)\n"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("dims=4\ndeltas=1\ncounts=100\nseed=1\nbogus=1\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2

    def test_missing_ri_order_exits_2(self, tmp_path, capsys):
        table = tmp_path / "ri.txt"
        table.write_text("4 0.88 1000 1\n")
        config = tmp_path / "sim.cfg"
        config.write_text(f"dims=4,5\ndeltas=1\ncounts=100\nseed=1\nri_table={table}\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2

    def test_bad_ri_table_value_exits_2(self, tmp_path, capsys):
        table = tmp_path / "ri.txt"
        table.write_text("4 -0.9 1000 1\n")
        config = tmp_path / "sim.cfg"
        config.write_text(f"dims=4\ndeltas=1\ncounts=100\nseed=1\nri_table={table}\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert str(table) in err and "order 4" in err
        assert not (tmp_path / "x").exists()

    def test_unparseable_ri_table_field_names_file_and_line(self, tmp_path, capsys):
        table = tmp_path / "ri.txt"
        table.write_text("3 x 1000 1\n")
        config = tmp_path / "sim.cfg"
        config.write_text(f"dims=4\ndeltas=1\ncounts=100\nseed=1\nri_table={table}\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pcmkit: error: {table}:1: ") and "'x'" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line,lineno", [("counts=1e5", 3), ("dims=4,x", 1)])
    def test_unparseable_config_value_names_file_line_and_key(self, tmp_path, capsys,
                                                               line, lineno):
        key = line.partition("=")[0]
        base = {"dims": "4", "deltas": "1", "counts": "100", "seed": "1"}
        base[key] = line.partition("=")[2]
        config = tmp_path / "sim.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pcmkit: error: {config}:{lineno}: {line}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line", [
        "deltas=nan", "deltas=1,inf", "deltas=1e308", "bin_width=nan", "bin_width=inf",
        "cr_cap=inf", "cr_cap=nan",
    ])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, line):
        key = line.partition("=")[0]
        config = tmp_path / "sim.cfg"
        base = {"dims": "4", "deltas": "1", "counts": "100", "seed": "1"}
        base[key] = line.partition("=")[2]
        config.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err

    @pytest.mark.parametrize("bin_width", ["1e-320", "1e-12"])
    def test_too_many_bins_exits_2(self, tmp_path, capsys, bin_width):
        config = tmp_path / "sim.cfg"
        config.write_text(f"dims=4\ndeltas=1\ncounts=100\nseed=1\nbin_width={bin_width}\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "bins" in capsys.readouterr().err

    def test_task_list_beyond_memory_exits_2_at_once(self, tmp_path):
        """1e14 matrices are 1.2e10 tasks, whose list alone exceeds any
        machine's memory.  The run is refused before the list is built."""
        config = tmp_path / "sim.cfg"
        config.write_text("dims=4\ndeltas=1\ncounts=99999999999999\nseed=1\n")
        proc = _run_capped("simulate", str(config), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("pcmkit: error: counts 99999999999999 gives 1.22e+10 tasks")

    def test_overflowing_fraction_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text(f"3\n1 {10 ** 400}/3 1\n1 1 1\n1 1 1\n")
        assert main(["weights", str(path)]) == 2
        assert "cannot parse entry" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        config = tmp_path / "sim.cfg"
        config.write_text(TINY_CONFIG)
        assert main(["simulate", str(config), "--out", str(tmp_path / "x"),
                     "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_env_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv(WORKERS_ENV, value)
        config = tmp_path / "sim.cfg"
        config.write_text(TINY_CONFIG)
        assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert WORKERS_ENV in capsys.readouterr().err


UNIT_VECTORS = {
    "right": lambda m: right_eigenvector(m).weights,
    "left-inverse": inverse_left_eigenvector,
    "rl": combined_eigenvector,
    "rgm": row_geometric_mean,
}


class TestPercentScale:
    """--scale sum100 prints each unit-sum vector times 100, rounded half away
    from zero at four places: a percentage is a print format only."""

    def test_weights_all_methods(self, five_alt_file, capsys):
        assert main(["weights", five_alt_file, "--method", "all", "--scale", "sum100"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        matrix = load_matrix(five_alt_file)
        assert rows == [[m] + [_round_half_away(p * 100.0) for p in vector(matrix).priorities]
                        for m, vector in UNIT_VECTORS.items()]

    @pytest.mark.parametrize("method", list(UNIT_VECTORS))
    def test_aggregate_aip(self, tmp_path, capsys, method):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path, text in zip(paths, (JUDGE_1_TEXT, JUDGE_2_TEXT)):
            path.write_text(text)
        assert main(["aggregate", *map(str, paths), "--mode", "aip", "--method", method,
                     "--scale", "sum100"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1].split()
        agg = aggregate_priorities_geometric(
            [UNIT_VECTORS[method](load_matrix(path)) for path in paths])
        assert printed == [_round_half_away(p * 100.0) for p in agg.priorities]


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_each_print_what_they_print_alone(self, five_alt_file, capsys):
        # A flag or default from one call must not carry into the next.
        runs = [["weights", five_alt_file, "--method", "rgm", "--scale", "sum1"],
                ["weights", five_alt_file],
                ["ri-estimate", "--orders", "3", "--samples", "1000", "--seed", "4"],
                ["ri-estimate", "--orders", "4", "--samples", "1000"]]
        src = Path(__file__).resolve().parents[1] / "src"
        alone = [subprocess.run([sys.executable, "-m", "pcmkit.cli", *argv], check=True,
                                capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(src))).stdout
                 for argv in runs]
        in_turn = []
        for argv in runs:
            assert main(argv) == 0
            in_turn.append(capsys.readouterr().out)
        assert in_turn == alone


class TestAggregateCommand:
    def test_opposed_judges_aij_uniform(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(JUDGE_1_TEXT)
        b.write_text(JUDGE_2_TEXT)
        assert main(["aggregate", str(a), str(b), "--mode", "aij"]) == 0
        out = capsys.readouterr().out
        row = _weight_row(out, "right")
        assert row == [25.0, 25.0, 25.0, 25.0]

    def test_opposed_judges_aip_orders_second_over_first(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(JUDGE_1_TEXT)
        b.write_text(JUDGE_2_TEXT)
        assert main(["aggregate", str(a), str(b), "--mode", "aip"]) == 0
        out = capsys.readouterr().out
        numbers = [float(x) for x in out.splitlines()[-1].split()]
        assert numbers[1] > numbers[0]

    def test_single_file_matches_weights(self, five_alt_file, capsys):
        assert main(["aggregate", five_alt_file, "--mode", "aip"]) == 0
        agg_out = capsys.readouterr().out
        numbers = [float(x) for x in agg_out.splitlines()[-1].split()]
        assert main(["weights", five_alt_file, "--method", "right"]) == 0
        row = _weight_row(capsys.readouterr().out, "right")
        assert numbers == row

    def test_dimension_mismatch_exits_2(self, tmp_path, five_alt_file, capsys):
        a = tmp_path / "a.txt"
        a.write_text(JUDGE_1_TEXT)
        assert main(["aggregate", str(a), five_alt_file, "--mode", "aij"]) == 2


class TestVerifyCommand:
    KNOWN_UNREACHABLE: set[tuple[str, str]] = set()

    def test_reports_only_known_print_precision_failures(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        failures = set()
        for line in out.splitlines():
            if line.startswith("FAIL"):
                case = line.split()[1]
                method = line.split("::")[1].split()[0]
                failures.add((case, method))
        assert failures == self.KNOWN_UNREACHABLE
        assert code == 0

    def test_ri_isolation(self, tmp_path, capsys):
        # doubling every RI must break the CR checks but leave all weight
        # checks untouched
        from pcmkit import default_ri_table

        base = default_ri_table()
        doubled = tmp_path / "ri2.txt"
        lines = [f"{n} {2 * base.ri(n)} 1000 1" for n in base.orders]
        doubled.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--ri-table", str(doubled)]) == 1
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "CR =" in line and "within" in line and "0.331" in line:
                assert line.startswith("FAIL")
            if ":: right weights" in line or ":: left weights" in line:
                case = line.split()[1]
                method = line.split("::")[1].split()[0]
                if (case, method) not in self.KNOWN_UNREACHABLE:
                    assert line.startswith("PASS")


class TestRiEstimateCommand:
    def test_ri_chunk_list_beyond_memory_exits_2_at_once(self):
        """1e17 samples are 5e12 chunks, whose list alone exceeds any
        machine's memory.  The estimate is refused before the list is built."""
        proc = _run_capped("ri-estimate", "--orders", "3", "--samples", str(10 ** 17))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            f"pcmkit: error: --samples {10 ** 17} gives 5e+12 chunks of 20000 samples over 1 "
            "order(s)")

    def test_chunk_lists_of_every_order_are_counted_together(self, monkeypatch, capsys):
        from pcmkit.consistency import _CHUNK_BYTES

        # Memory for 10 chunks: one order's 6 fit, the 12 of a two-order table do not.
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 10 * _CHUNK_BYTES,
                                            "SC_PAGE_SIZE": 1}.get)
        assert main(["ri-estimate", "--orders", "3", "--samples", "120000"]) == 0
        assert main(["ri-estimate", "--orders", "3-4", "--samples", "120000"]) == 2
        assert capsys.readouterr().err.startswith(
            "pcmkit: error: --samples 120000 gives 12 chunks of 20000 samples over 2 order(s)")

    def test_prints_rows(self, capsys):
        assert main(["ri-estimate", "--orders", "3", "--samples", "2000",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        n, ri, samples, seed = out[0].split()
        assert n == "3"
        assert float(ri) > 0
        assert samples == "2000"
        assert seed == "8"  # base seed 5 + order 3

    def test_writes_table_file(self, tmp_path, capsys):
        from pcmkit import RiTable

        out = tmp_path / "ri.txt"
        assert main(["ri-estimate", "--orders", "3-4", "--samples", "1000",
                     "--seed", "2", "--out", str(out)]) == 0
        table = RiTable.from_file(out)
        assert table.orders == (3, 4)

    def test_stdout_equals_the_table_file_after_its_header(self, tmp_path, capsys):
        argv = ["ri-estimate", "--orders", "3-5", "--samples", "1000", "--seed", "0"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "ri.txt"
        assert main([*argv, "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines(keepends=True)
        assert header == "# random index table: n ri samples seed\n"
        assert printed == "".join(lines) and len(lines) == 3

    @pytest.mark.parametrize("spec, item", [("x", "x"), ("3-", "3-"), ("3-x", "3-x"),
                                            ("3,,4", ""), ("4, 5-", "5-")])
    def test_bad_order_spec_exits_2_naming_the_item(self, capsys, spec, item):
        assert main(["ri-estimate", "--orders", spec, "--samples", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"pcmkit: error: --orders: {item!r} is neither an order "
                                "nor a range lo-hi\n")

    @pytest.mark.parametrize("spec", ["9-3", "3,9-3"])
    def test_descending_order_range_exits_2(self, tmp_path, capsys, spec):
        out = tmp_path / "ri.txt"
        assert main(["ri-estimate", "--orders", spec, "--samples", "1000",
                     "--out", str(out)]) == 2
        assert "9-3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, capsys, workers):
        assert main(["ri-estimate", "--orders", "3", "--samples", "1000",
                     "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_worker_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        assert main(["ri-estimate", "--orders", "3", "--samples", "1000"]) == 2
        assert WORKERS_ENV in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-10"])
    def test_negative_seed_exits_2(self, capsys, seed):
        assert main(["ri-estimate", "--orders", "3-4", "--samples", "1000",
                     "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pcmkit: error: seed must be non-negative, got {seed}\n"

    def test_peak_memory_is_bounded_at_a_large_order(self):
        """An RI chunk is drawn, built and solved piece by piece, in pieces
        of 128 matrices at these orders, and each piece's draw and stack go
        into two buffers the chunk reuses.  The peak above an order-3 run
        must stay under half of one whole chunk's stack: 13.7 MiB at order
        60 and 153 MiB at 200.  Drawn whole, the chunk's upper triangles (as
        int64 indices and as floats) put 26 and 303 MiB there; per piece, 7
        and 78 MiB."""
        base, *large = (_peak_rss_mb(["ri-estimate", "--orders", str(n), "--samples", "1000",
                                      "--workers", "1"]) for n in (3, 60, 200))
        for order, peak in zip((60, 200), large):
            stack_mb = order * order * 1000 * 8 / 2**20
            assert peak - base < 0.5 * stack_mb, (order, base, peak)


def _peak_rss_mb(argv: list[str]) -> float:
    """Peak RSS of `pcmkit argv`, read by a fresh parent process through
    getrusage(RUSAGE_CHILDREN)."""
    code = ("import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'pcmkit.cli', *sys.argv[1:]], check=True,\n"
            "               stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    return int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux


def test_readme_library_quick_start_runs_as_printed():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["record"].cr == pytest.approx(namespace["report"].cr)
