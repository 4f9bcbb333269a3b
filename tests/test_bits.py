"""The pure helpers of tools/bits.py, the parent-against-tree output check."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bits.py"
_spec = importlib.util.spec_from_file_location("bits", _PATH)
bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits)

MANIFEST = """tool_version=0.1.0
numpy=2.4.6
timestamp_utc=2026-01-01T00:00:00+00:00
workers=1
sha256[histogram.csv]=aaaa
sha256[bins_euclidean.csv]=bbbb
"""


def test_manifests_that_differ_only_in_the_timestamp_match():
    later = MANIFEST.replace("2026-01-01T00:00:00", "2026-10-19T12:34:56")
    assert bits.manifest_diff(MANIFEST, later) == []


def test_a_changed_hash_shows_both_lines():
    changed = MANIFEST.replace("=bbbb", "=cccc")
    assert bits.manifest_diff(MANIFEST, changed) == ["-sha256[bins_euclidean.csv]=bbbb",
                                                     "+sha256[bins_euclidean.csv]=cccc"]


def test_missing_and_reordered_lines_show():
    lines = MANIFEST.splitlines()
    missing = "\n".join(lines[:-1])
    assert bits.manifest_diff(MANIFEST, missing) == ["-sha256[bins_euclidean.csv]=bbbb"]
    swapped = "\n".join(lines[:-2] + [lines[-1], lines[-2]])
    assert bits.manifest_diff(MANIFEST, swapped) != []


def test_csv_diff_names_changed_and_missing_files(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for d in (before, after):
        d.mkdir()
        (d / "same.csv").write_bytes(b"a,b\n1,2\n")
    (before / "changed.csv").write_bytes(b"x\n0.1\n")
    (after / "changed.csv").write_bytes(b"x\n0.10000000000000001\n")
    (before / "gone.csv").write_bytes(b"x\n")
    (after / "manifest.txt").write_text("not a csv\n")
    assert bits.csv_diff(before, after) == ["changed.csv", "gone.csv"]


def test_output_diff_shows_changed_lines_only():
    before = "exit 0\ncr = 0.1\n--- stderr\n"
    assert bits.output_diff(before, before) == []
    assert bits.output_diff(before, before.replace("0.1", "0.10000000000000001")) == [
        "-cr = 0.1", "+cr = 0.10000000000000001"]
    assert bits.output_diff(before, "exit 2\n--- stderr\npcmkit: error: x\n") == [
        "-exit 0", "+exit 2", "-cr = 0.1", "+pcmkit: error: x"]


def test_single_runs_run_every_command_on_every_file():
    assert bits.single_runs(["a.txt", "b.txt"]) == [
        [*command, name] for name in ("a.txt", "b.txt") for command in (
            ["weights", "--method", "all"], ["weights", "--method", "all", "--repair"],
            ["consistency"], ["compare"])]


def test_other_runs_aggregate_the_opposed_judges_and_cover_ri_and_verify(tmp_path):
    printed = [str(tmp_path / f"verify_{k}_printed.txt") for k in range(5)]
    assert bits.other_runs(tmp_path) == [
        ["aggregate", *printed[:2], "--mode", "aij"],
        ["aggregate", *printed[:2], "--mode", "aip", "--method", "rgm"],
        ["aggregate", *printed[:4], "--mode", "aip", "--method", "right"],
        ["aggregate", *printed[:4], "--mode", "aip", "--method", "left-inverse"],
        ["aggregate", *printed[:4], "--mode", "aip", "--method", "rl"],
        ["aggregate", printed[0], printed[4], "--mode", "aip", "--method", "right"],
        ["ri-estimate", "--orders", "3-6", "--samples", "4000"],
        ["verify"]]


def test_untimed_drops_only_the_time_of_the_verify_summary():
    output = ("exit 0\nPASS  a :: CR = 0.1 within 0.01  (CR 0.10000)\n"
              "23/23 checks passed in 0.031s\n")
    assert bits.untimed(output) == output.replace(" in 0.031s", "")
    assert bits.untimed(output.replace("0.031", "1.250")) == bits.untimed(output)
    assert bits.untimed("exit 0\n3 0.52 4000 3\n") == "exit 0\n3 0.52 4000 3\n"


def test_ri_runs_cover_every_order_chunking_scale_and_worker_count():
    runs = bits.ri_runs()
    assert len(runs) == len(set(runs)) == 13 * 2 * 2 * 2 + 2
    assert {run[1:] for run in runs if run[0] == 3} == {
        (samples, scale, workers) for samples in (4000, 45_000)
        for scale in ("saaty", "log-uniform") for workers in (1, 2)}
    assert {n for n, *_ in runs} == set(range(3, 16)) | {60}
    assert sorted(r for r in runs if r[0] == 60) == [(60, 1000, "log-uniform", 1),
                                                     (60, 1000, "saaty", 1)]


def test_report_prints_the_verdict_and_counts_differences(capsys):
    assert bits.report("wide, 2 worker(s)", [], "1b293fb1e3") == 0
    assert bits.report("random index", ["-3 a", "+3 b"], "1b293fb1e3") == 2
    assert capsys.readouterr().out == ("wide, 2 worker(s): identical to 1b293fb\n"
                                       "random index: DIFFERS\n  -3 a\n  +3 b\n")
