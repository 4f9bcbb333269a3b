"""The fan-out's exits: a drained, a closed, a raising and a dead-worker
stream each leave no worker process behind, and an error from a worker
reaches the caller, and the CLI, as itself."""

import multiprocessing
import os
import time

import pytest

from pcmkit import NoConvergenceError
from pcmkit.cli import main
from pcmkit.consistency import _ordered_map
from pcmkit.montecarlo import run_task

CONFIG = """dims=4,5
deltas=1,2
counts=2000
seed=31
"""


def in_worker() -> bool:
    """True in a process that multiprocessing started, whatever its start method."""
    return multiprocessing.parent_process() is not None


def square(k: int) -> int:
    return k * k


def dies_in_worker(*args):
    if in_worker():
        os._exit(3)
    return 0.0


def run_task_or_die(*args):
    if in_worker():
        os._exit(3)
    return run_task(*args)


def fails_in_worker(*args):
    if in_worker():
        raise NoConvergenceError(7, 0.25, "raised in a worker")
    return 0.0


def sleeps_in_worker(k: int) -> int:
    if in_worker():
        time.sleep(60)
    return k


def fails_in_caller_sleeps_in_worker(k: int) -> int:
    if not in_worker():
        raise ValueError(f"task {k} failed in the caller")
    time.sleep(60)
    return k


@pytest.fixture(autouse=True)
def no_worker_left():
    assert multiprocessing.active_children() == []
    yield
    assert multiprocessing.active_children() == []


class TestStreams:
    def test_a_drained_stream_keeps_task_order(self):
        args = [(k,) for k in range(11)]
        assert list(_ordered_map(square, args, 3)) == [k * k for k in range(11)]

    def test_a_stream_closed_after_its_first_result_returns_promptly(self):
        start = time.monotonic()
        stream = _ordered_map(sleeps_in_worker, [(k,) for k in range(4)], 2)
        assert next(stream) == 0  # task 0 runs in the caller
        stream.close()
        assert time.monotonic() - start < 20

    def test_a_caller_side_task_that_raises_returns_promptly(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="task 0 failed in the caller"):
            list(_ordered_map(fails_in_caller_sleeps_in_worker, [(k,) for k in range(4)], 2))
        assert time.monotonic() - start < 20

    def test_an_error_in_a_worker_keeps_its_type_and_message(self):
        with pytest.raises(NoConvergenceError) as info:
            list(_ordered_map(fails_in_worker, [(k,) for k in range(4)], 2))
        err = info.value
        assert (err.iterations, err.residual, err.detail) == (7, 0.25, "raised in a worker")
        assert str(err) == ("no convergence after 7 iterations (residual 2.500e-01): "
                            "raised in a worker")

    def test_a_worker_that_dies_without_its_result_raises_naming_it(self):
        with pytest.raises(ChildProcessError, match=r"^worker 1 exited with code 3$"):
            list(_ordered_map(dies_in_worker, [(k,) for k in range(6)], 3))


class TestCommandExits:
    """A worker's failure is an input/run error: exit 2 with a message."""

    def _ri_estimate(self):
        return main(["ri-estimate", "--orders", "3", "--samples", "40000", "--workers", "2"])

    def _simulate(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text(CONFIG)
        return main(["simulate", str(config), "--out", str(tmp_path / "out"), "--workers", "2"])

    def test_ri_estimate_exits_2_when_a_worker_dies(self, monkeypatch, capsys):
        monkeypatch.setattr("pcmkit.consistency._ri_chunk_sum", dies_in_worker)
        assert self._ri_estimate() == 2
        assert capsys.readouterr().err == "pcmkit: error: worker 1 exited with code 3\n"

    def test_simulate_exits_2_when_a_worker_dies(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("pcmkit.montecarlo.run_task", run_task_or_die)
        assert self._simulate(tmp_path) == 2
        assert capsys.readouterr().err == "pcmkit: error: worker 1 exited with code 3\n"

    def test_ri_estimate_exits_2_on_a_worker_no_convergence(self, monkeypatch, capsys):
        monkeypatch.setattr("pcmkit.consistency._ri_chunk_sum", fails_in_worker)
        assert self._ri_estimate() == 2
        err = capsys.readouterr().err
        assert err.startswith("pcmkit: error: no convergence after 7 iterations")
        assert err.endswith(": raised in a worker\n")
