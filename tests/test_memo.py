"""Each PCMatrix instance solves each of its eigenpairs once per solver config."""

import pickle
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from pcmkit import (
    EigenSolverConfig,
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
from pcmkit.verify import CASES, AggregationCheck, run_verification
from pcmkit.weighting import DEFAULT_SOLVER

from conftest import random_reciprocal


@pytest.fixture()
def solves(monkeypatch):
    """Counts the power-iteration calls the weighting module makes."""
    calls = []

    def counted(mats, tol, max_iter):
        calls.append(mats.shape[0])
        return power_iterate(mats, tol, max_iter)

    monkeypatch.setattr(weighting, "power_iterate", counted)
    return calls


def _matrix(seed: int = 1, n: int = 6) -> PCMatrix:
    return random_reciprocal(n, np.random.default_rng(seed))


def _analyse(m: PCMatrix, config=None) -> None:
    right_eigenvector(m, config)
    inverse_left_eigenvector(m, config)
    combined_eigenvector(m, config)
    left_eigenvector(m, config)
    consistency_ratio(m, config=config)
    consistency_index(m, config)
    compare_methods(m, config=config)


class TestOneSolvePerMatrix:
    def test_full_analysis_solves_each_row_once(self, solves):
        # right_eigenvector comes first and solves A alone; the next call
        # needing the left vector adds A^T.
        _analyse(_matrix())
        assert solves == [1, 1]

    def test_eigen_system_first_solves_both_rows_in_one_call(self, solves):
        m = _matrix()
        eigen_system(m)
        _analyse(m)
        assert solves == [2]

    @pytest.mark.parametrize("right_only", [
        right_eigenvector,
        consistency_index,
        lambda m: consistency_ratio(m),
    ])
    def test_right_only_callers_solve_the_matrix_alone(self, solves, right_only):
        m = _matrix()
        right_only(m)
        right_only(m)
        assert solves == [1]

    def test_equal_entries_solve_again(self, solves):
        m = _matrix()
        twin = PCMatrix(m.entries.copy())
        _analyse(m)
        _analyse(twin)
        assert solves == [1, 1, 1, 1]

    def test_other_config_solves_again(self, solves):
        m = _matrix()
        _analyse(m)
        _analyse(m, EigenSolverConfig(convergence_tol=1e-10))
        _analyse(m, EigenSolverConfig())  # equal to the default config
        assert solves == [1, 1, 1, 1]

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
            np.stack([m.entries, m.entries.T]),
            DEFAULT_SOLVER.convergence_tol, DEFAULT_SOLVER.max_iterations)
        assert conv.all()
        for got, k in ((right, 0), (left, 1)):
            expected = w[k] / w[k].sum()
            assert got.weights.priorities.tobytes() == expected.tobytes()
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
        assert all(list(m._eigen) == [DEFAULT_SOLVER] for m in mats)


class TestNonConvergence:
    @pytest.fixture()
    def left_fails(self, monkeypatch):
        """Reports every transpose of a _matrix() as not converged."""
        transpose = _matrix().entries.T

        def half_converged(mats, tol, max_iter):
            w, lam, iters, resid, _ = power_iterate(mats, tol, max_iter)
            conv = np.array([not np.array_equal(a, transpose) for a in mats])
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

    def test_budget_failure_is_memoized_as_failure(self, solves):
        m = _matrix(n=9)
        tight = EigenSolverConfig(max_iterations=2)
        for _ in range(2):
            with pytest.raises(NoConvergenceError) as info:
                right_eigenvector(m, tight)
            assert info.value.iterations == 2
        assert solves == [1]


class TestCliSolvesOncePerMatrix:
    @pytest.fixture()
    def matrix_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(format_matrix_text(_matrix(n=5)))
        return str(path)

    @pytest.mark.parametrize("argv, rows", [
        (["weights", "--method", "all"], [1, 1]),
        (["compare"], [2]),
        (["consistency"], [1]),
    ])
    def test_single_matrix_commands(self, argv, rows, matrix_file, solves, capsys):
        assert main([argv[0], matrix_file, *argv[1:]]) == 0
        assert solves == rows

    def test_priority_aggregation(self, tmp_path, solves, capsys):
        paths = []
        for seed in range(3):
            path = tmp_path / f"m{seed}.txt"
            path.write_text(format_matrix_text(_matrix(seed=seed, n=4)))
            paths.append(str(path))
        for method, rows in (("right", 1), ("left-inverse", 2), ("rl", 2)):
            solves.clear()
            assert main(["aggregate", *paths, "--mode", "aip", "--method", method]) == 0
            assert solves == [rows] * 3


class TestVerifierSolvesOncePerMatrix:
    def test_every_run_solves_each_matrix_once(self, solves):
        aggregations = sum(isinstance(c, AggregationCheck) for case in CASES for c in case.checks)
        for _ in range(2):
            solves.clear()
            assert run_verification().all_passed
            # Both rows of every case matrix in one call, plus the right row
            # of the partner and the merged matrix of every aggregation
            # check; no solve is kept between runs.
            assert solves.count(2) == len(CASES)
            assert solves.count(1) == 2 * aggregations
            assert len(solves) == len(CASES) + 2 * aggregations


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
        assert back._eigen == {}
        assert right_eigenvector(back).weights.priorities.tobytes() == \
            right_eigenvector(m).weights.priorities.tobytes()
