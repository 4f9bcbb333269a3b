"""The pure helpers of tools/pairs.py, the alternating-pairs runner."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


@pytest.mark.parametrize("spec,seeds", [
    ("101-105", [101, 102, 103, 104, 105]),
    ("1,3,5", [1, 3, 5]),
    ("7", [7]),
    ("301-302,9,11-12", [301, 302, 9, 11, 12]),
])
def test_parse_seeds(spec, seeds):
    assert pairs.parse_seeds(spec) == seeds


def test_parse_seeds_rejects_garbage():
    with pytest.raises(ValueError):
        pairs.parse_seeds("a-b")


@pytest.mark.parametrize("spec", ["110-101", "101-110,105", "3,3", "5-7,1-5"])
def test_parse_seeds_rejects_descending_ranges_and_repeats(spec):
    # Either would silently shrink the pair set or count a seed twice.
    with pytest.raises(ValueError):
        pairs.parse_seeds(spec)


def test_a_bad_seed_spec_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--workload", "ri-table", "--seeds", "110-101", "--out", "x.json"])
    assert exc.value.code == 2
    assert "descending" in capsys.readouterr().err


def test_summary_is_median_and_exclusive_quartiles():
    assert pairs.summary([1.0, 2.0, 3.0, 4.0]) == (2.5, [1.25, 3.75])
    assert pairs.summary([5.0, 1.0, 3.0]) == (3.0, [1.0, 5.0])
    # Exclusive quartiles of two values reach beyond them; all round to 4 places.
    assert pairs.summary([1 / 3, 2 / 3]) == (0.5, [0.25, 0.75])
    assert pairs.summary([1 / 3] * 3) == (0.3333, [0.3333, 0.3333])


def test_trace_is_passed_through(monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        raise SystemExit(0)

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit):
        pairs.bench(Path("."), "ri-table", 3, 1.0, 1)
    assert calls[0][-2:] == ["--trace", "1"]


@pytest.mark.parametrize("better,wins", [("higher", 2), ("lower", 1), ("sideways", None),
                                         (None, None)])
def test_after_wins_follow_the_metric_direction(better, wins):
    # Pairs: a rise, a fall, a tie and a rise; the tie counts for neither side.
    before, after = [1.0, 5.0, 3.0, 2.0], [2.0, 4.0, 3.0, 2.5]
    assert pairs.after_wins(before, after, better) == wins


def test_every_declared_metric_has_a_direction():
    better = pairs.directions()
    assert better["sim_mps_w1"] == "higher" and better["peak_rss_mb"] == "lower"
    assert better["montecarlo.perturbed_batch_ms.n4"] == "lower"
    assert set(better.values()) <= {"higher", "lower"}


def _entry(before, after, better):
    entry = {"before": before, "after": after,
             "after_wins": pairs.after_wins(before, after, better)}
    for side in ("before", "after"):
        entry[f"{side}_median"], entry[f"{side}_iqr"] = pairs.summary(entry[side])
    return entry


_PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("after,better,holds", [
    # Better in 10/10, median +10 against an IQR 5.5 wide.
    ([v + 10 for v in _PARENT], "higher", True),
    # The same pairs read for a lower-is-better metric: worse in every pair.
    ([v + 10 for v in _PARENT], "lower", False),
    ([v - 10 for v in _PARENT], "lower", True),
    # Better in 9/10 is enough; 8/10 is not.
    ([v + 10 for v in _PARENT[:9]] + [0.0], "higher", True),
    ([v + 10 for v in _PARENT[:8]] + [0.0, 0.0], "higher", False),
    # Better in every pair, but the median gain of 2 is within the IQR.
    ([v + 2 for v in _PARENT], "higher", False),
])
def test_verdict_is_the_speed_rule(after, better, holds):
    got = pairs.verdict("m", _entry(_PARENT, after, better), better)
    assert got["holds"] is holds
    assert got["parent_iqr_width"] == 5.5 and got["pairs"] == 10


def test_verdict_needs_ten_pairs():
    before = _PARENT[:9]
    got = pairs.verdict("m", _entry(before, [v + 10 for v in before], "higher"), "higher")
    assert got["after_wins"] == 9 and got["median_gain"] == 10.0
    assert got["holds"] is False


def test_claim_must_be_a_declared_metric(capsys):
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--workload", "ri-table", "--seeds", "1-10", "--out", "x.json",
                    "--claim", "no_such_metric"])
    assert exc.value.code == 2
    assert "no_such_metric" in capsys.readouterr().err
