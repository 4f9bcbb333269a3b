import numpy as np
import pytest

from pcmkit import (GeneratorConfig, PCMatrix, combined_eigenvector, eigen_system,
                    inverse_left_eigenvector, row_geometric_mean)
from pcmkit import _power
from pcmkit._power import _CHECK_EVERY, power_iterate
from pcmkit.consistency import SAATY_SCALE, _ri_chunk_sum
from pcmkit.core import reciprocal_from_upper
from pcmkit.montecarlo import (SimTask, SimulationConfig, batch_vectors, perturbed_batch,
                               run_task)
from pcmkit.weighting import _MAX_ITERATIONS as MAX_ITER, _TOL as TOL


def _pool(n: int = 5, count: int = 300) -> np.ndarray:
    """Near-consistent and Saaty-scale matrices mixed, so rows stop at
    different check steps and the active stack is compacted mid-run.
    Returned as a C-contiguous (n, n, count) stack."""
    rng = np.random.default_rng(2022)
    near = perturbed_batch(GeneratorConfig(n, 1.0), rng, count // 2)
    draws = rng.integers(0, len(SAATY_SCALE), size=(count - count // 2, n * (n - 1) // 2))
    saaty = reciprocal_from_upper(SAATY_SCALE[draws].T, n)
    mats = np.concatenate([near, saaty], axis=2)
    return np.ascontiguousarray(mats[:, :, rng.permutation(count)])


def _rows(result, k):
    return tuple(a[..., k] for a in result)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestBatchIndependence:
    @pytest.fixture(scope="class")
    def pool(self):
        return _pool()

    @pytest.fixture(scope="class")
    def alone(self, pool):
        return [_rows(power_iterate(pool[:, :, k:k + 1], TOL, MAX_ITER), 0)
                for k in range(pool.shape[2])]

    def test_stops_are_spread_over_several_checks(self, alone):
        iterations = {int(r[2]) for r in alone}
        assert len(iterations) >= 3

    def test_full_batch_of_300(self, pool, alone):
        result = power_iterate(pool, TOL, MAX_ITER)
        for k in range(pool.shape[2]):
            _assert_same_bits(_rows(result, k), alone[k])

    def test_shuffled_batch(self, pool, alone):
        order = np.random.default_rng(7).permutation(pool.shape[2])
        result = power_iterate(pool[:, :, order], TOL, MAX_ITER)
        for pos, k in enumerate(order):
            _assert_same_bits(_rows(result, pos), alone[k])

    def test_batches_of_7(self, pool, alone):
        for start in range(0, pool.shape[2] - 6, 7):
            result = power_iterate(pool[:, :, start:start + 7], TOL, MAX_ITER)
            for j in range(7):
                _assert_same_bits(_rows(result, j), alone[start + j])

    def test_certificate_holds_for_reported_vector(self, pool):
        weights, lam, iters, resid, conv = power_iterate(pool, TOL, MAX_ITER)
        assert conv.all()
        assert np.all(resid <= TOL * lam)
        # The residual is recomputed from the returned weights, not trusted.
        v = np.einsum("ijb,jb->ib", pool, weights)
        recomputed = np.max(np.abs(v - lam * weights) / weights, axis=0)
        assert np.array_equal(recomputed, resid)
        assert np.allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-15)

    def test_converged_counts_fall_on_check_steps(self, pool):
        _, _, iters, _, conv = power_iterate(pool, TOL, MAX_ITER)
        assert conv.all()
        assert np.all(iters % _CHECK_EVERY == 0)


class TestBudget:
    def test_budget_is_exact_between_check_steps(self):
        pool = _pool()
        budget = _CHECK_EVERY + 3
        _, _, iters, resid, conv = power_iterate(pool, TOL, budget)
        assert not conv.all()
        assert np.all(iters[~conv] == budget)
        assert np.all(np.isfinite(resid))
        # The last, shortened block still ends in a check.
        assert set(iters[conv].tolist()) <= {_CHECK_EVERY, budget}

    def test_budget_below_one_check(self):
        mats = _pool()[:, :, :10]
        _, _, iters, _, conv = power_iterate(mats, TOL, 2)
        assert not conv.any()
        assert np.all(iters == 2)


class TestEigenSystemSharesTheKernel:
    def test_same_bits_as_separate_runs(self):
        for entries in _pool(n=6, count=40).transpose(2, 0, 1):
            pair = eigen_system(PCMatrix(entries))
            alone = [power_iterate(m[:, :, None], TOL, MAX_ITER) for m in (entries, entries.T)]
            for result, (w, lam, iters, resid, conv) in zip(pair, alone):
                assert conv[0]
                assert result.weights.priorities.tobytes() == w[:, 0].tobytes()
                assert result.iterations == iters[0]
                assert result.residual == resid[0]
            # Both results report the right-hand eigenvalue.
            assert pair[0].lambda_max == pair[1].lambda_max == alone[0][1][0]


@pytest.fixture(scope="module", params=[3, 5, 9, 15], ids=lambda n: f"n{n}")
def order_pool(request):
    """A pool of one order with its right and transpose solves as a
    contiguous full batch: the bits every narrower solve must give."""
    pool = _pool(n=request.param)
    full = {transpose: power_iterate(pool, TOL, MAX_ITER, transpose)
            for transpose in (False, True)}
    return pool, full


@pytest.mark.parametrize("transpose", [False, True], ids=["right", "transpose"])
class TestNarrowAndStridedStacks:
    """The three ways a stack can differ from a contiguous full batch: a
    lone matrix, a single matrix left running, and a strided input."""

    def test_lone_matrix(self, order_pool, transpose):
        pool, full = order_pool
        for k in range(0, pool.shape[2], 5):
            lone = power_iterate(pool[:, :, k:k + 1], TOL, MAX_ITER, transpose)
            _assert_same_bits(_rows(lone, 0), _rows(full[transpose], k))

    def test_one_matrix_outlives_the_rest(self, order_pool, transpose):
        pool, full = order_pool
        iters = full[transpose][2]
        last = int(np.argmax(iters))
        early = np.flatnonzero(iters <= iters[last] - _CHECK_EVERY)[:6]
        assert early.size == 6
        picked = np.append(early, last)
        result = power_iterate(pool[:, :, picked], TOL, MAX_ITER, transpose)
        for pos, k in enumerate(picked):
            _assert_same_bits(_rows(result, pos), _rows(full[transpose], k))

    def test_boolean_masked_input(self, order_pool, transpose):
        pool, full = order_pool
        mask = np.random.default_rng(11).random(pool.shape[2]) < 0.4
        masked = pool[:, :, mask]
        assert not masked.flags.c_contiguous
        result = power_iterate(masked, TOL, MAX_ITER, transpose)
        for pos, k in enumerate(np.flatnonzero(mask)):
            _assert_same_bits(_rows(result, pos), _rows(full[transpose], k))


def test_transpose_flag_equals_a_transposed_copy(order_pool):
    pool, full = order_pool
    copy = np.ascontiguousarray(pool.transpose(1, 0, 2))
    _assert_same_bits(power_iterate(copy, TOL, MAX_ITER), full[True])


@pytest.mark.parametrize("n", [6, 15, 23])
def test_matrix_whose_two_solves_stop_apart_matches_the_batch(n):
    """eigen_system solves A and A^T as a stack of two, so when one stops
    first the other runs on as two copies of itself; the matrix still gets
    the batch's bits."""
    pool = _pool(n=n)
    right = power_iterate(pool, TOL, MAX_ITER)
    left = power_iterate(pool, TOL, MAX_ITER, transpose=True)
    apart = np.flatnonzero(right[2] != left[2])
    assert apart.size
    wr, inv, combined, rgm, lam, ok = batch_vectors(pool)
    for k in apart[:10]:
        m = PCMatrix(pool[:, :, k])
        pair = eigen_system(m)
        assert ok[k]
        for result, rows in zip(pair, (right, left)):
            assert result.weights.priorities.tobytes() == rows[0][:, k].tobytes()
            assert (result.iterations, result.residual) == (rows[2][k], rows[3][k])
        assert pair[0].lambda_max == lam[k]
        assert pair[0].weights.priorities.tobytes() == wr[:, k].tobytes()
        assert inverse_left_eigenvector(m).priorities.tobytes() == inv[:, k].tobytes()
        assert combined_eigenvector(m).priorities.tobytes() == combined[:, k].tobytes()
        assert row_geometric_mean(m).priorities.tobytes() == rgm[:, k].tobytes()


@pytest.mark.parametrize("tail", [(), (2,)], ids=["2-D", "3-D"])
def test_row_sum_adds_each_column_as_one_contiguous_row(tail):
    """`_row_sum` gives every column the bits of np.add.reduce over that
    column copied to a contiguous row, at every width (rule 3)."""
    rng = np.random.default_rng(16)
    elementwise_differs = False
    for n in (*range(3, 41), 129, 257):
        # Magnitudes spread over 1e-4..1e4, so that the order of the adds shows.
        x = np.exp(rng.uniform(-9.0, 9.0, (n, 2048) + tail))
        wide = _power._row_sum(x)
        assert wide.shape == (2048,) + tail
        for width in (1, 2, 3, 2048):
            narrow = np.ascontiguousarray(x[:, :width])
            got = _power._row_sum(narrow)
            assert got.tobytes() == wide[:width].tobytes()
            for col in np.ndindex(got.shape):
                row = np.ascontiguousarray(narrow[(slice(None),) + col])
                assert got[col].tobytes() == np.add.reduce(row).tobytes()
        elementwise_differs |= not np.array_equal(np.add.reduce(x, axis=0), wide)
    # The order is not the one a batch-last sum along axis 0 takes.
    assert elementwise_differs


# (matrices, budget in entries at order n, piece widths): pieces of 150 that
# leave a last piece of width 1, pieces of 150 that end exactly at the last
# matrix, and the floor of 128 under a budget of one entry.
_SPLITS = [
    (301, lambda n: 150 * n * n, [150, 150, 1]),
    (300, lambda n: 150 * n * n, [150, 150]),
    (301, lambda n: 1, [128, 128, 45]),
]
_UNSPLIT = 1 << 62


@pytest.mark.parametrize("count,budget,widths", _SPLITS, ids=["width-1", "exact", "floor"])
@pytest.mark.parametrize("n", [5, 15])
class TestElementBudget:
    """Solving a stack in pieces gives the bits of the unsplit solve, for
    the power iteration itself, the simulation's vector rows and bin table,
    and the RI chunk sum."""

    def _split(self, monkeypatch, n, budget, widths, count):
        monkeypatch.setattr(_power, "_STACK_ELEMENTS", budget(n))
        assert [s.stop - s.start for s in _power._pieces(n, count)] == widths

    def test_power_iterate(self, monkeypatch, n, count, budget, widths):
        pool = _pool(n=n, count=count)
        monkeypatch.setattr(_power, "_STACK_ELEMENTS", _UNSPLIT)
        whole = [power_iterate(pool, TOL, MAX_ITER, t) for t in (False, True)]
        self._split(monkeypatch, n, budget, widths, count)
        for t in (False, True):
            _assert_same_bits(power_iterate(pool, TOL, MAX_ITER, t), whole[t])

    def test_vector_rows_and_bin_table(self, monkeypatch, n, count, budget, widths):
        pool = _pool(n=n, count=count)
        config = SimulationConfig(dims=(n,), deltas=(2.0,), matrices_per_cell=count,
                                  bin_width=0.02)
        task = SimTask(0, n, 2.0, 0, count)

        def solve():
            return batch_vectors(pool), run_task(config, task, 1.0).table

        monkeypatch.setattr(_power, "_STACK_ELEMENTS", _UNSPLIT)
        (rows, table) = solve()
        self._split(monkeypatch, n, budget, widths, count)
        (rows_split, table_split) = solve()
        _assert_same_bits(rows_split, rows)
        assert table_split.tobytes() == table.tobytes()

    def test_ri_chunk_sum(self, monkeypatch, n, count, budget, widths):
        monkeypatch.setattr(_power, "_STACK_ELEMENTS", _UNSPLIT)
        whole = _ri_chunk_sum(n, count, 17, 3, "saaty")
        self._split(monkeypatch, n, budget, widths, count)
        assert _ri_chunk_sum(n, count, 17, 3, "saaty") == whole


def test_a_stack_within_the_budget_is_one_piece():
    assert _power._pieces(9, _power._STACK_ELEMENTS // 81) == [slice(0, 1618)]
    assert _power._pieces(9, 1619) == [slice(0, 1618), slice(1618, 1619)]
    assert _power._pieces(200, 300) == [slice(0, 128), slice(128, 256), slice(256, 300)]
    assert _power._pieces(4, 0) == []
