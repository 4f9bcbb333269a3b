import numpy as np
import pytest

from pcmkit import (GeneratorConfig, PCMatrix, combined_eigenvector, eigen_system,
                    inverse_left_eigenvector, row_geometric_mean)
from pcmkit import _power, weighting
from pcmkit._power import _CHECK_EVERY, power_iterate
from pcmkit.consistency import SAATY_SCALE, _RI_SOLVER_TOL as _RI_TOL, _ri_chunk_sum
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


def _oriented(mats, transpose):
    """The stack, or the view of it whose right vectors are its left
    vectors."""
    return mats.swapaxes(0, 1) if transpose else mats


@pytest.fixture(scope="module", params=[3, 5, 9, 15], ids=lambda n: f"n{n}")
def order_pool(request):
    """A pool of one order with its right and transpose solves as a full
    batch: the bits every narrower solve must give."""
    pool = _pool(n=request.param)
    full = {transpose: power_iterate(_oriented(pool, transpose), TOL, MAX_ITER)
            for transpose in (False, True)}
    return pool, full


@pytest.mark.parametrize("transpose", [False, True], ids=["right", "transpose"])
class TestNarrowAndStridedStacks:
    """The three ways a stack can differ from a contiguous full batch: a
    lone matrix, a single matrix left running, and a strided input."""

    def test_lone_matrix(self, order_pool, transpose):
        pool, full = order_pool
        for k in range(0, pool.shape[2], 5):
            lone = power_iterate(_oriented(pool[:, :, k:k + 1], transpose), TOL, MAX_ITER)
            _assert_same_bits(_rows(lone, 0), _rows(full[transpose], k))

    def test_one_matrix_outlives_the_rest(self, order_pool, transpose):
        pool, full = order_pool
        iters = full[transpose][2]
        last = int(np.argmax(iters))
        early = np.flatnonzero(iters <= iters[last] - _CHECK_EVERY)[:6]
        assert early.size == 6
        picked = np.append(early, last)
        result = power_iterate(_oriented(pool[:, :, picked], transpose), TOL, MAX_ITER)
        for pos, k in enumerate(picked):
            _assert_same_bits(_rows(result, pos), _rows(full[transpose], k))

    def test_boolean_masked_input(self, order_pool, transpose):
        pool, full = order_pool
        mask = np.random.default_rng(11).random(pool.shape[2]) < 0.4
        masked = pool[:, :, mask]
        assert not masked.flags.c_contiguous
        result = power_iterate(_oriented(masked, transpose), TOL, MAX_ITER)
        for pos, k in enumerate(np.flatnonzero(mask)):
            _assert_same_bits(_rows(result, pos), _rows(full[transpose], k))


def test_swapped_view_equals_a_transposed_copy(order_pool):
    """Rule 2: the swapped view, whose pieces are copied C-contiguous,
    gets the bits of a contiguous copy of the transposed stack."""
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
    left = power_iterate(pool.swapaxes(0, 1), TOL, MAX_ITER)
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


# Every order up to 139 (the eight-accumulator blocks and their tails, and the
# width-1 pitfall orders 15, 23, 31, ...), then orders that split once or twice.
_ROW_SUM_ORDERS = (*range(3, 140), 150, 199, 200, 256, 257, 300, 513)


def _contiguous_row_sums(x):
    """np.add.reduce over each column of x, copied to a contiguous row."""
    return np.array([np.add.reduce(np.ascontiguousarray(x[(slice(None),) + col]))
                     for col in np.ndindex(x.shape[1:])]).reshape(x.shape[1:])


@pytest.mark.parametrize("tail", [(), (2,)], ids=["2-D", "3-D"])
def test_row_sum_adds_each_column_as_one_contiguous_row(tail):
    """`_row_sum` gives every column the bits of np.add.reduce over that
    column copied to a contiguous row, at every width, on a strided view
    and on a 1-D input (rule 3)."""
    rng = np.random.default_rng(16)
    elementwise_differs = False
    for n in _ROW_SUM_ORDERS:
        # Magnitudes spread over 1e-4..1e4, so that the order of the adds shows.
        x = np.exp(rng.uniform(-9.0, 9.0, (n, 2048) + tail))
        wide = _power._row_sum(x)
        assert wide.shape == (2048,) + tail
        assert wide.tobytes() == np.add.reduce(np.moveaxis(x, 0, -1).copy(), axis=-1).tobytes()
        for width in (1, 2, 3):
            narrow = np.ascontiguousarray(x[:, :width])
            got = _power._row_sum(narrow)
            assert got.tobytes() == wide[:width].tobytes()
            assert got.tobytes() == _contiguous_row_sums(narrow).tobytes()
        column = x.reshape(n, -1)[:, 7]
        assert _power._row_sum(column).tobytes() == np.add.reduce(column.copy()).tobytes()
        # Each column's terms strided between the rows of a swapped view, as
        # `_rgm_rows` passes its logs.
        stack = np.exp(rng.uniform(-9.0, 9.0, (2, n, 3) + tail))
        for width in (1, 3):
            view = stack[:, :, :width].swapaxes(0, 1)
            got = _power._row_sum(view)
            assert got.tobytes() == _contiguous_row_sums(view).tobytes()
        elementwise_differs |= not np.array_equal(np.add.reduce(x, axis=0), wide)
    # The order is not the one a batch-last sum along axis 0 takes.
    assert elementwise_differs


@pytest.mark.parametrize("width", [1, 2, 3, 257])
def test_rgm_rows_sum_each_row_of_logs_as_one_contiguous_row(width):
    """`_rgm_rows` gives the bits of summing each row's logs as one
    C-contiguous row of an (n, B, n) log stack."""
    rng = np.random.default_rng(17)
    for n in (*range(3, 21), 40, 129):
        mats = np.exp(rng.uniform(-9.0, 9.0, (n, n, width)))
        logs = np.log(mats.transpose(0, 2, 1), order="C")
        x = np.exp(np.add.reduce(logs, axis=2) / n)
        assert weighting._rgm_rows(mats).tobytes() == (x / _power._row_sum(x)).tobytes()


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
        whole = [power_iterate(_oriented(pool, t), TOL, MAX_ITER) for t in (False, True)]
        self._split(monkeypatch, n, budget, widths, count)
        for t in (False, True):
            _assert_same_bits(power_iterate(_oriented(pool, t), TOL, MAX_ITER), whole[t])

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


@pytest.mark.parametrize("n", [3, 9, 15])
@pytest.mark.parametrize("width", [2, 3, 257])
def test_einsum_gives_the_bits_of_np_einsum(n, width):
    rng = np.random.default_rng(18)
    mats = np.exp(rng.uniform(-9.0, 9.0, (n, n, width)))
    w = rng.uniform(0.01, 1.0, (n, width))
    out = np.empty((n, width))
    _power._einsum(_power._MATVEC, mats, w, out=out)
    assert out.tobytes() == np.einsum(_power._MATVEC, mats, w).tobytes()


def _residual_at_every_check(mats, tol, max_iter):
    """`power_iterate` with the check step that measures the eigenvalue and
    the residual at every check, whether or not any matrix can stop there."""
    n, _, batch = mats.shape
    out = (np.full((n, batch), 1.0 / n), np.zeros(batch), np.zeros(batch, dtype=np.int64),
           np.full(batch, np.inf), np.zeros(batch, dtype=bool))
    with np.errstate(divide="ignore", invalid="ignore"):
        for piece in _power._pieces(n, batch):
            weights, lam_out, iter_out, resid_out, converged = (a[..., piece] for a in out)
            idx = _power._two_or_more(np.arange(piece.stop - piece.start))
            active = np.ascontiguousarray(np.take(mats[:, :, piece], idx, axis=2))
            w = np.full((n, idx.size), 1.0 / n)
            v = np.empty_like(w)
            it = 0
            while it < max_iter:
                check = min(it + _CHECK_EVERY, max_iter)
                for _ in range(check - it - 1):
                    np.einsum(_power._MATVEC, active, w, out=v)
                    np.divide(v, v.sum(axis=0), out=w)
                it = check
                np.einsum(_power._MATVEC, active, w, out=v)
                lam = (v / w).sum(axis=0) / n
                resid = np.max(np.abs(v - lam * w) / w, axis=0)
                w_next = v / v.sum(axis=0)
                change = np.max(np.abs(w_next - w) / w, axis=0)
                done = (change <= tol) & (resid <= tol * lam)
                stop = done if it < max_iter else np.ones_like(done)
                if stop.any():
                    hit = idx[stop]
                    weights[:, hit] = w[:, stop]
                    lam_out[hit], resid_out[hit] = lam[stop], resid[stop]
                    iter_out[hit], converged[hit] = it, done[stop]
                    cols = _power._two_or_more(np.flatnonzero(~stop))
                    if not cols.size:
                        break
                    idx, active = idx[cols], np.take(active, cols, axis=2)
                    w_next = np.take(w_next, cols, axis=1)
                    v = np.empty_like(w_next)
                w = w_next
    return out


_UNDERFLOWING = np.array([[1.0, 1e200, 1e300], [1e-200, 1.0, 1e250], [1e-300, 1e-250, 1.0]])


@pytest.mark.parametrize("max_iter", [MAX_ITER, 12])
class TestResidualOnlyWhereAMatrixCanStop:
    """Skipping the eigenvalue and the residual at a check where no matrix's
    change is within tol moves no stop, count or bit."""

    def test_stacks_of_two(self, max_iter):
        for n in range(3, 16):
            for a in _pool(n=n, count=20).transpose(2, 0, 1):
                pair = np.ascontiguousarray(np.stack((a, a.T), axis=2))
                _assert_same_bits(power_iterate(pair, TOL, max_iter),
                                  _residual_at_every_check(pair, TOL, max_iter))

    @pytest.mark.parametrize("n", [4, 9])
    @pytest.mark.parametrize("transpose", [False, True], ids=["right", "transpose"])
    def test_batches_of_2048(self, max_iter, n, transpose):
        pool = _oriented(_pool(n=n, count=2048), transpose)
        _assert_same_bits(power_iterate(pool, TOL, max_iter),
                          _residual_at_every_check(pool, TOL, max_iter))

    def test_underflowing_matrix(self, max_iter):
        pair = np.ascontiguousarray(np.stack((_UNDERFLOWING, _UNDERFLOWING.T), axis=2))
        got = power_iterate(pair, TOL, max_iter)
        assert not got[4].any()
        # At 12 mat-vecs the residual is nan, which array_equal never matches.
        for g, w in zip(got, _residual_at_every_check(pair, TOL, max_iter)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_row_geometric_mean_has_the_same_bits_before_and_after_the_memo():
    for n in range(3, 16):
        for entries in _pool(n=n, count=10).transpose(2, 0, 1):
            m = PCMatrix(entries)
            before = row_geometric_mean(m).priorities.tobytes()
            assert m._eigen is None
            eigen_system(m)
            assert m._eigen is not None
            assert row_geometric_mean(m).priorities.tobytes() == before
            assert row_geometric_mean(PCMatrix(entries)).priorities.tobytes() == before


def _saaty_stack(n: int, count: int = 2048) -> np.ndarray:
    """Random Saaty-scale matrices, as the RI estimate draws them: at its
    tolerance their stops spread over many checks."""
    rng = np.random.default_rng(2027)
    draws = rng.integers(0, len(SAATY_SCALE), size=(count, n * (n - 1) // 2))
    return np.ascontiguousarray(reciprocal_from_upper(SAATY_SCALE[draws].T, n))


@pytest.fixture(scope="module", params=[4, 6], ids=lambda n: f"n{n}")
def saaty(request):
    """A Saaty-scale stack of 2048 and every matrix solved alone."""
    mats = _saaty_stack(request.param)
    alone = [_rows(power_iterate(mats[:, :, k:k + 1], _RI_TOL, MAX_ITER), 0)
             for k in range(mats.shape[2])]
    return mats, alone


class TestDeadColumnsCarried:
    """A stopped column stays in the stack, dead, until a quarter of it has
    stopped; no live column's bits move, and no dead column is recorded
    again."""

    def test_stops_spread_over_eight_checks(self, saaty):
        _, alone = saaty
        assert len({int(r[2]) for r in alone}) >= 8

    def test_full_budget(self, saaty):
        mats, alone = saaty
        result = power_iterate(mats, _RI_TOL, MAX_ITER)
        _assert_same_bits(result, _residual_at_every_check(mats, _RI_TOL, MAX_ITER))
        for k in range(mats.shape[2]):
            _assert_same_bits(_rows(result, k), alone[k])

    def test_budget_ends_with_dead_columns_in_the_stack(self, saaty):
        mats, alone = saaty
        iters = np.array([int(r[2]) for r in alone])
        # Between checks, one check after the first stop: some columns have
        # stopped, fewer than a quarter, so none has been compacted away and
        # the last step must record only the live ones.
        budget = int(iters.min()) + _CHECK_EVERY + 3
        early = iters < budget
        assert 0 < np.count_nonzero(early) < _power._DEAD_SHARE * mats.shape[2]
        result = power_iterate(mats, _RI_TOL, budget)
        _assert_same_bits(result, _residual_at_every_check(mats, _RI_TOL, budget))
        assert np.array_equal(result[2][early], iters[early])
        assert np.all(result[2][~early] == budget)
        for k in range(0, mats.shape[2], 16):
            alone = _rows(power_iterate(mats[:, :, k:k + 1], _RI_TOL, budget), 0)
            _assert_same_bits(_rows(result, k), alone)

    def test_width_five_carries_its_first_stop(self, saaty):
        mats, alone = saaty
        iters = np.array([int(r[2]) for r in alone])
        first = int(np.argmin(iters))
        later = np.flatnonzero(iters >= iters[first] + 2 * _CHECK_EVERY)[:4]
        # One dead column of five is under a quarter: it is carried.
        assert later.size == 4 and 1 < _power._DEAD_SHARE * 5
        picked = np.insert(later, 2, first)
        stack = np.ascontiguousarray(mats[:, :, picked])
        result = power_iterate(stack, _RI_TOL, MAX_ITER)
        _assert_same_bits(result, _residual_at_every_check(stack, _RI_TOL, MAX_ITER))
        for pos, k in enumerate(picked):
            _assert_same_bits(_rows(result, pos), alone[k])


def test_ri_chunk_copies_its_stack_at_most_twice(monkeypatch):
    """Compaction copies of an RI chunk's stack, counted in elements.
    Compacting at every stop copied this chunk's stack 4.7 times."""
    take, copied = np.take, []

    def counting_take(a, indices, axis=None, **kwargs):
        out = take(a, indices, axis=axis, **kwargs)
        if axis == 2:
            copied.append(out.size)
        return out

    monkeypatch.setattr(_power.np, "take", counting_take)
    n, count = 4, 20000
    _ri_chunk_sum(n, count, 7, 0, "saaty")
    assert copied
    assert sum(copied) <= 2 * n * n * count
