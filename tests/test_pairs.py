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
