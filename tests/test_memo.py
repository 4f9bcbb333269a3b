"""Each PCMatrix instance solves itself and its transpose once, in one call."""

import pickle
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from pcmkit import (
    NoConvergenceError,
    NonPositiveWeightError,
    PCMatrix,
    WeightVector,
    combined_eigenvector,
    compare_methods,
    consistency_index,
    consistency_ratio,
    eigen_system,
    format_matrix_text,
    inverse_left_eigenvector,
    right_eigenvector,
    row_geometric_mean,
    weighting,
)
from pcmkit import core, montecarlo, verify
from pcmkit._power import power_iterate
from pcmkit.cli import main
from pcmkit.verify import CASES, run_verification
from pcmkit.weighting import solve_together

from conftest import consistent_from_weights, random_reciprocal


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
    eigen_system,
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


@pytest.fixture()
def checks(monkeypatch):
    """Counts the batched vector checks, the CI derivations and every
    WeightVector construction that runs its own checks."""
    calls = {"vector check": 0, "_ci": 0, "WeightVector": 0}

    def counting(key, function):
        def counted(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(weighting, "_unit_vectors",
                        counting("vector check", weighting._unit_vectors))
    for module in (weighting, montecarlo):
        monkeypatch.setattr(module, "_ci", counting("_ci", weighting._ci))
    monkeypatch.setattr(WeightVector, "__post_init__",
                        counting("WeightVector", WeightVector.__post_init__))
    return calls


def _full_analysis(text: str):
    """The single-matrix sequence a user runs: parse, validate, the four
    vectors, the consistency report and the comparison record."""
    m = core.validate(core.parse_matrix_text(text), core.STRICT_FILE_POLICY)
    return (m, right_eigenvector(m), inverse_left_eigenvector(m), combined_eigenvector(m),
            row_geometric_mean(m), consistency_ratio(m), compare_methods(m))


class TestOneAnalysisBuildsEachObjectOnce:
    def test_repeated_calls_return_the_same_object(self):
        m = _matrix(seed=2, n=7)
        getters = (eigen_system, right_eigenvector, lambda m: eigen_system(m)[1],
                   inverse_left_eigenvector, combined_eigenvector, row_geometric_mean)
        first = [call(m) for call in getters]
        for call, got in zip(getters, first):
            assert call(m) is got
            assert call(m) == got
        right, left = first[0]
        assert first[1] is right and first[2] is left
        for v in (right.weights, left.weights, *first[3:]):
            assert not v.priorities.flags.writeable

    def test_compare_methods_reads_the_pair_through_its_own_module(self, monkeypatch):
        # perfbench's traced single-matrix run times the pair under this name.
        from pcmkit import metrics

        seen = []
        monkeypatch.setattr(metrics, "eigen_system", lambda m: seen.append(m) or eigen_system(m))
        m = _matrix()
        compare_methods(m)
        assert seen == [m]

    def test_row_geometric_mean_before_a_solve_is_built_fresh(self, solves):
        # Asked for alone it neither solves nor fills the slot; once the slot
        # is filled, every call returns the slot's object.
        m = _matrix(seed=3)
        alone = row_geometric_mean(m)
        assert row_geometric_mean(m) is not alone and m._eigen is None and solves == []
        right_eigenvector(m)
        assert row_geometric_mean(m) is row_geometric_mean(m)
        assert row_geometric_mean(m).priorities.tobytes() == alone.priorities.tobytes()

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_full_analysis_checks_the_vectors_and_derives_ci_once(self, n, solves, checks):
        m, *_, report, record = _full_analysis(format_matrix_text(_matrix(seed=n, n=n)))
        assert consistency_index(m) == report.ci and record.cr == report.cr
        assert solves == [2]
        assert checks == {"vector check": 1, "_ci": 1, "WeightVector": 0}


class TestNonPositiveVectorRaisesOnlyWhereRead:
    """A non-positive inverse-left, combined or RGM vector raises
    NonPositiveWeightError from its own getter and from compare_methods
    only, afresh on every call, and never from the right vector."""

    _GETTERS = {"inverse_left": inverse_left_eigenvector, "combined": combined_eigenvector,
                "row_geometric_mean": row_geometric_mean}

    @pytest.fixture(params=list(_GETTERS))
    def zeroed(self, request, monkeypatch):
        """Zeroes the first entry of one derived vector of every solve."""
        name = request.param
        if name == "row_geometric_mean":
            real = weighting._rgm_rows

            def rows(mats):
                out = real(mats)
                out[0] = 0.0
                return out
            monkeypatch.setattr(weighting, "_rgm_rows", rows)
        else:
            real = weighting._vector_rows
            k = ("inverse_left", "combined").index(name)

            def rows(*args):
                out = real(*args)
                out[k][0] = 0.0
                return out
            monkeypatch.setattr(weighting, "_vector_rows", rows)
        return name

    def test_only_its_getter_and_compare_methods_raise(self, zeroed):
        m = _matrix(seed=8, n=5)
        for _ in range(2):
            right, left = eigen_system(m)
            assert right_eigenvector(m) is right and eigen_system(m)[1] is left
            assert consistency_ratio(m).lambda_max == right.lambda_max
            for name, getter in self._GETTERS.items():
                if name != zeroed:
                    assert getter(m).n == m.n
            errors = []
            for call in (self._GETTERS[zeroed], compare_methods):
                with pytest.raises(NonPositiveWeightError, match="strictly positive") as info:
                    call(m)
                errors.append(info.value)
            assert errors[0] is not errors[1]

    def test_underflowing_combined_vector(self):
        # Valid entries whose combined vector underflows to zero, unpatched.
        m = core.validate(np.array([[1.0, 1e300, 1e300], [1e-300, 1.0, 1.0],
                                    [1e-300, 1.0, 1.0]]))
        assert right_eigenvector(m).weights.n == 3
        assert inverse_left_eigenvector(m).n == row_geometric_mean(m).n == 3
        for call in (combined_eigenvector, compare_methods):
            with pytest.raises(NonPositiveWeightError):
                call(m)


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


def _slot_bits(m: PCMatrix) -> tuple:
    """Every number the memo slot reports, as bytes and exact values."""
    right, left = eigen_system(m)
    return (*((r.weights.priorities.tobytes(), r.lambda_max, r.iterations, r.residual)
              for r in (right, left)),
            *(call(m).priorities.tobytes()
              for call in (inverse_left_eigenvector, combined_eigenvector, row_geometric_mean)),
            consistency_index(m))


def _copies(mats):
    return [PCMatrix(m.entries.copy()) for m in mats]


class TestSeveralMatricesFilledTogether:
    """`solve_together` fills several slots, one power-iteration call per
    order, with the bits each matrix gets alone."""

    def test_alone_together_and_reversed_give_the_same_bits(self, solves):
        mats = [case.matrix for case in CASES] + [
            _matrix(seed=100 * n + s, n=n) for n in range(3, 16) for s in range(2)]
        alone, together, backwards = _copies(mats), _copies(mats), _copies(mats)
        for m in alone:
            right_eigenvector(m)
        assert solves == [2] * len(mats)
        solves.clear()
        solve_together(together)
        solve_together(backwards[::-1])
        orders = sorted({m.n for m in mats})
        # One call per order and direction, each on every matrix of that order.
        counts = {n: 2 * sum(m.n == n for m in mats) for n in orders}
        assert sorted(solves) == sorted([*counts.values()] * 2)
        for trio in zip(alone, together, backwards):
            want = _slot_bits(trio[0])
            assert _slot_bits(trio[1]) == want and _slot_bits(trio[2]) == want
        assert len(solves) == 2 * len(orders)  # the getters solved nothing more

    def test_filled_and_repeated_matrices_are_not_solved_again(self, solves):
        a, b, c = (_matrix(seed=s, n=5) for s in range(3))
        solve_together([a, a, b])
        assert solves == [4]
        slot = a._eigen
        solve_together([a, b, c, c])
        assert solves == [4, 2] and a._eigen is slot
        solve_together([a, b, c])
        right_eigenvector(c)
        assert solves == [4, 2]

    def test_a_member_over_budget_raises_only_from_its_own_getters(self, monkeypatch):
        # At a budget of 2 mat-vecs a consistent matrix stops and a random
        # matrix of order 9 does not.
        monkeypatch.setattr(weighting, "_MAX_ITERATIONS", 2)
        good = [consistent_from_weights(np.arange(1.0, 10.0) ** p) for p in (1, 2)]
        bad = _matrix(n=9)
        want = [_slot_bits(m) for m in _copies(good)]
        solve_together([good[0], bad, good[1]])
        assert [_slot_bits(m) for m in good] == want
        for call in (right_eigenvector, eigen_system, inverse_left_eigenvector,
                     combined_eigenvector, consistency_index, compare_methods):
            with pytest.raises(NoConvergenceError) as info:
                call(bad)
            assert info.value.iterations == 2
        assert row_geometric_mean(bad).n == 9

    def test_an_underflowing_member_raises_only_from_its_own_getters(self):
        # The valid matrix of TestNonPositiveVectorRaisesOnlyWhereRead whose
        # combined vector underflows to zero.
        bad = core.validate(np.array([[1.0, 1e300, 1e300], [1e-300, 1.0, 1.0],
                                      [1e-300, 1.0, 1.0]]))
        good = [_matrix(seed=s, n=3) for s in range(2)]
        want = [_slot_bits(m) for m in _copies(good)]
        solve_together([good[0], bad, good[1]])
        assert [_slot_bits(m) for m in good] == want
        assert right_eigenvector(bad).weights.n == 3
        assert inverse_left_eigenvector(bad).n == row_geometric_mean(bad).n == 3
        for call in (combined_eigenvector, compare_methods):
            with pytest.raises(NonPositiveWeightError):
                call(bad)


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
            # The three order-4 matrices with their transposes in one call.
            assert solves == ([] if method == "rgm" else [6])

    def test_matrix_aggregation(self, judge_files, solves, capsys):
        assert main(["aggregate", *judge_files, "--mode", "aij"]) == 0
        assert solves == [2]  # the merged matrix only


class TestVerifierSolvesOncePerMatrix:
    def test_every_run_solves_each_matrix_once(self, solves):
        orders = [case.matrix.n for case in CASES]
        aggregations = [case for case in CASES for c in case.checks
                        if c.evaluator is verify._aggregation]
        assert (orders.count(4), orders.count(5)) == (5, 3)
        assert [case.aggregation_partner for case in aggregations] == \
            [case.matrix_text for case in CASES if case.name == "opposed-judges-second"]
        assert [case for case in CASES if case.aggregation_partner] == aggregations
        for _ in range(2):
            solves.clear()
            assert run_verification().all_passed
            # The case matrices of each order with their transposes in one
            # call; the merged order-4 matrix of the aggregation check joins
            # the order-4 call.  No solve is kept between runs.
            assert solves == [12, 6]


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
