"""Each PCMatrix instance solves itself and its transpose once, in one call."""

import pickle
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from pcmkit import (
    NoConvergenceError,
    PCMatrix,
    combined_eigenvector,
    compare_methods,
    consistency_index,
    consistency_ratio,
    eigen_system,
    format_matrix_text,
    inverse_left_eigenvector,
    left_eigenvector,
    right_eigenvector,
    weighting,
)
from pcmkit._power import power_iterate
from pcmkit.cli import main
from pcmkit.verify import CASES, run_verification

from conftest import random_reciprocal


@pytest.fixture()
def solves(monkeypatch):
    """Counts the power-iteration calls the weighting module makes."""
    calls = []

    def counted(mats, tol, max_iter):
        calls.append(mats.shape[2])
        return power_iterate(mats, tol, max_iter)

    monkeypatch.setattr(weighting, "power_iterate", counted)
    return calls


def _matrix(seed: int = 1, n: int = 6) -> PCMatrix:
    return random_reciprocal(n, np.random.default_rng(seed))


_EIGEN_FAMILY = (
    right_eigenvector,
    inverse_left_eigenvector,
    combined_eigenvector,
    left_eigenvector,
    consistency_ratio,
    consistency_index,
    compare_methods,
)


def _analyse(m: PCMatrix) -> None:
    for call in _EIGEN_FAMILY:
        call(m)


class TestOneSolvePerMatrix:
    def test_full_analysis_solves_each_row_once(self, solves):
        # right_eigenvector comes first and solves A and A^T in one call.
        _analyse(_matrix())
        assert solves == [2]

    def test_eigen_system_first_solves_both_rows_in_one_call(self, solves):
        m = _matrix()
        eigen_system(m)
        _analyse(m)
        assert solves == [2]

    @pytest.mark.parametrize("first", _EIGEN_FAMILY)
    def test_first_call_solves_both_rows(self, solves, first):
        m = _matrix()
        first(m)
        first(m)
        _analyse(m)
        assert solves == [2]

    def test_equal_entries_solve_again(self, solves):
        m = _matrix()
        twin = PCMatrix(m.entries.copy())
        _analyse(m)
        _analyse(twin)
        assert solves == [2, 2]

    def test_call_order_does_not_change_the_bits(self):
        m = _matrix(seed=5, n=8)
        right_first = PCMatrix(m.entries.copy())
        right_eigenvector(right_first)
        for got, want in zip(eigen_system(right_first), eigen_system(m)):
            assert got.weights.priorities.tobytes() == want.weights.priorities.tobytes()
            assert (got.lambda_max, got.iterations, got.residual) == \
                (want.lambda_max, want.iterations, want.residual)

    def test_memo_equals_fresh_solve(self):
        m = _matrix(seed=4, n=9)
        right, left = eigen_system(m)
        again = eigen_system(m)
        assert again[0] is right
        w, lam, iters, resid, conv = power_iterate(
            np.stack([m.entries, m.entries.T], axis=-1), weighting._TOL, weighting._MAX_ITERATIONS)
        assert conv.all()
        for got, k in ((right, 0), (left, 1)):
            # The raw power-iteration column: the vector the residual certifies.
            assert got.weights.priorities.tobytes() == w[:, k].tobytes()
            assert got.iterations == iters[k]
            assert got.residual == resid[k]
        assert right.lambda_max == left.lambda_max == lam[0]
        fresh = eigen_system(PCMatrix(m.entries.copy()))
        for got, want in zip((right, left), fresh):
            assert got.weights.priorities.tobytes() == want.weights.priorities.tobytes()
            assert (got.lambda_max, got.iterations, got.residual) == \
                (want.lambda_max, want.iterations, want.residual)


class TestThreadsSharingMatrices:
    def test_racing_threads_get_the_bits_of_a_fresh_solve(self):
        mats = [_matrix(seed=s, n=4 + s % 8) for s in range(12)]
        want = [eigen_system(PCMatrix(m.entries.copy())) for m in mats]
        got: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.extend(
                (k, eigen_system(m)) for k, m in enumerate(mats))) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 8 * len(mats)
        for k, pair in got:
            for g, w in zip(pair, want[k]):
                assert g.weights.priorities.tobytes() == w.weights.priorities.tobytes()
                assert (g.lambda_max, g.iterations, g.residual) == \
                    (w.lambda_max, w.iterations, w.residual)
        assert all(m._eigen is not None for m in mats)


class TestNonConvergence:
    @pytest.fixture()
    def left_fails(self, monkeypatch):
        """Reports every transpose of a _matrix() as not converged."""
        transpose = _matrix().entries.T

        def half_converged(mats, tol, max_iter):
            w, lam, iters, resid, _ = power_iterate(mats, tol, max_iter)
            conv = np.array([not np.array_equal(a, transpose) for a in mats.transpose(2, 0, 1)])
            return w, lam, iters, resid, conv

        monkeypatch.setattr(weighting, "power_iterate", half_converged)

    def test_right_returns_when_only_left_failed(self, left_fails):
        m = _matrix()
        with pytest.raises(NoConvergenceError):
            eigen_system(m)
        assert right_eigenvector(m).weights.n == m.n
        with pytest.raises(NoConvergenceError):
            inverse_left_eigenvector(m)

    def test_each_caller_raises_a_fresh_error(self, left_fails):
        m = _matrix()
        errors = []
        for _ in range(2):
            with pytest.raises(NoConvergenceError) as info:
                eigen_system(m)
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])

    def test_budget_failure_is_memoized_as_failure(self, solves, monkeypatch):
        monkeypatch.setattr(weighting, "_MAX_ITERATIONS", 2)
        m = _matrix(n=9)
        for call in (right_eigenvector, right_eigenvector, eigen_system, compare_methods):
            with pytest.raises(NoConvergenceError) as info:
                call(m)
            assert info.value.iterations == 2
        assert solves == [2]


class TestCliSolvesOncePerMatrix:
    @pytest.fixture()
    def matrix_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(format_matrix_text(_matrix(n=5)))
        return str(path)

    @pytest.mark.parametrize("argv, rows", [
        (["weights", "--method", "all"], [2]),
        (["compare"], [2]),
        (["consistency"], [2]),
        (["weights", "--method", "right"], [2]),
        (["weights", "--method", "rgm"], []),
    ])
    def test_single_matrix_commands(self, argv, rows, matrix_file, solves, capsys):
        assert main([argv[0], matrix_file, *argv[1:]]) == 0
        assert solves == rows

    @pytest.fixture()
    def judge_files(self, tmp_path):
        paths = []
        for seed in range(3):
            path = tmp_path / f"m{seed}.txt"
            path.write_text(format_matrix_text(_matrix(seed=seed, n=4)))
            paths.append(str(path))
        return paths

    def test_priority_aggregation(self, judge_files, solves, capsys):
        for method in ("right", "left-inverse", "rl", "rgm"):
            solves.clear()
            assert main(["aggregate", *judge_files, "--mode", "aip", "--method", method]) == 0
            assert solves == ([] if method == "rgm" else [2] * 3)

    def test_matrix_aggregation(self, judge_files, solves, capsys):
        assert main(["aggregate", *judge_files, "--mode", "aij"]) == 0
        assert solves == [2]  # the merged matrix only


class TestVerifierSolvesOncePerMatrix:
    def test_every_run_solves_each_matrix_once(self, solves):
        aggregations = sum(c.kind == "aggregation" for case in CASES for c in case.checks)
        for _ in range(2):
            solves.clear()
            assert run_verification().all_passed
            # Every case matrix, plus the partner and the merged matrix of
            # every aggregation check, each with its transpose in one call;
            # no solve is kept between runs.
            assert solves == [2] * (len(CASES) + 2 * aggregations)


class TestMatrixValueSemantics:
    def test_memo_is_not_a_compared_or_shown_field(self):
        assert [f.name for f in fields(PCMatrix) if f.compare or f.repr] == ["entries"]
        m = _matrix()
        before = repr(m)
        right_eigenvector(m)
        assert repr(m) == before == f"PCMatrix(entries={m.entries!r})"
        assert m == m

    def test_pickle_carries_entries_only(self):
        m = _matrix()
        before = pickle.dumps(m)
        right_eigenvector(m)
        assert pickle.dumps(m) == before
        back = pickle.loads(before)
        assert back.entries.tobytes() == m.entries.tobytes()
        assert not back.entries.flags.writeable
        assert back._eigen is None
        assert right_eigenvector(back).weights.priorities.tobytes() == \
            right_eigenvector(m).weights.priorities.tobytes()
