import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pcmkit import (
    GeneratorConfig,
    NoConvergenceError,
    PCMatrix,
    RiTable,
    SimulationConfig,
    bin_columns,
    combined_eigenvector,
    compare_methods,
    consistency_ratio,
    default_ri_table,
    generate_perturbed,
    inverse_left_eigenvector,
    row_geometric_mean,
    run_simulation,
    validate,
)
from pcmkit import montecarlo
from pcmkit.consistency import SAATY_SCALE
from pcmkit.core import ReciprocityPolicy, reciprocal_from_upper
from pcmkit.metrics import METRICS, comparison_flags, metric_blocks
from pcmkit.montecarlo import (
    _ROWS,
    SimTask,
    batch_vectors,
    perturbed_batch,
    reduce_partials,
    run_task,
    simulation_tasks,
)
from pcmkit.weighting import _ci

from conftest import (assert_columns_match_reference, consistent_from_weights, cr_share_below,
                      reference_bins)


class TestGenerator:
    def test_vanishing_noise_keeps_consistency(self):
        cfg = GeneratorConfig(n=6, delta=1e-12, seed=4)
        a = generate_perturbed(cfg).entries
        # Every triad a_ij * a_jk = a_ik within 1e-9 relative.
        assert np.allclose(a[:, :, None] * a[None, :, :], a[:, None, :], rtol=1e-9, atol=0)

    def test_deterministic_for_seed(self):
        cfg = GeneratorConfig(n=5, delta=2.0, seed=123)
        a = generate_perturbed(cfg)
        b = generate_perturbed(cfg)
        assert np.array_equal(a.entries, b.entries)

    def test_stream_advances_between_draws(self):
        cfg = GeneratorConfig(n=5, delta=2.0, seed=123)
        rng = np.random.default_rng(cfg.seed)
        a = generate_perturbed(cfg, rng)
        b = generate_perturbed(cfg, rng)
        assert not np.array_equal(a.entries, b.entries)

    def test_output_passes_strict_validation(self):
        rng = np.random.default_rng(9)
        for n, delta in [(4, 1.0), (6, 2.0), (9, 3.0)]:
            mats = perturbed_batch(GeneratorConfig(n=n, delta=delta), rng, 500)
            for k in range(0, 500, 97):
                validate(mats[:, :, k], ReciprocityPolicy(tolerance=1e-12))

    def test_entries_positive_under_heavy_noise(self):
        # the fold keeps entries positive even when the additive branch
        # would drop below one
        rng = np.random.default_rng(10)
        mats = perturbed_batch(GeneratorConfig(n=7, delta=3.0), rng, 2000)
        assert np.all(mats > 0.0)
        assert np.all(np.isfinite(mats))

    def test_perturbation_spread_grows_with_delta(self):
        rng = np.random.default_rng(11)
        small = perturbed_batch(GeneratorConfig(n=5, delta=0.5), rng, 2000)
        rng = np.random.default_rng(11)
        large = perturbed_batch(GeneratorConfig(n=5, delta=3.0), rng, 2000)
        table = default_ri_table()
        cr_small = np.mean([consistency_ratio(validate(small[:, :, k])).cr for k in range(50)])
        cr_large = np.mean([consistency_ratio(validate(large[:, :, k])).cr for k in range(50)])
        assert cr_large > cr_small
        assert table.ri(5) > 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=5, delta=0.0)
        # The draw spans 2 * delta, which must be finite too.
        with pytest.raises(ValueError, match="finite width"):
            GeneratorConfig(n=5, delta=1e308)
        with pytest.raises(ValueError):
            GeneratorConfig(n=5, delta=1.0, weight_low=9.0, weight_high=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=1, delta=1.0)

    def test_bin_count_must_be_countable(self):
        base = dict(dims=(4,), deltas=(1.0,), matrices_per_cell=10)
        # A subnormal width makes cr_cap / bin_width overflow to infinity.
        with pytest.raises(ValueError, match="bins"):
            SimulationConfig(**base, bin_width=1e-320)
        assert SimulationConfig(**base, bin_width=1e-12).n_bins == 500_000_000_000
        # A bin wider than the cap still leaves one regular bin.
        assert SimulationConfig(**base, bin_width=5e11).n_bins == 1

    def test_fine_bins_run(self):
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=50,
                                  bin_width=1e-5, min_bin_count=0)
        result = run_simulation(config, default_ri_table())
        assert config.n_bins == 50_000
        assert result.cell_tables[(4, 1.0)][0].sum() == 50

    def test_bins_beyond_memory_are_refused_before_running(self, monkeypatch):
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10,
                                  bin_width=1e-12)
        monkeypatch.setattr("pcmkit.montecarlo.run_task", None)  # never reached
        with pytest.raises(ValueError, match="GiB of memory"):
            run_simulation(config, default_ri_table())


class _FixedDraws:
    """Stands in for a Generator: hands out the given draws in the order the
    generator asks for them (weights, then one epsilon per pair)."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def uniform(self, low, high, size):
        return np.asarray(self.draws.pop(0), dtype=float).reshape(size)


def _scalar_batch(weights, eps):
    """The generator pair by pair in Python floats, in its documented order
    of operations: a (count, n, n) list of matrices."""
    mats = []
    for w, e in zip(weights.tolist(), eps.tolist()):
        n = len(w)
        m = [[1.0] * n for _ in range(n)]
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        for (i, j), eps_ij in zip(pairs, e):
            upper, lower = w[i] / w[j], w[j] / w[i]
            base = upper if upper >= 1.0 else lower
            shifted = base + eps_ij
            value = 1.0 / ((1.0 - eps_ij) - (base - 1.0)) if shifted < 1.0 else shifted
            m[i][j], m[j][i] = (value, 1.0 / value) if upper >= 1.0 else (1.0 / value, value)
        mats.append(m)
    return mats


def _assert_matches_scalar(mats, weights, eps):
    expected = np.array(_scalar_batch(np.asarray(weights, float), np.asarray(eps, float)))
    got = np.moveaxis(mats, 2, 0)
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestGeneratorBits:
    """`perturbed_batch` equals a per-pair scalar construction bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 9, 15])
    @pytest.mark.parametrize("delta", [1e-12, 0.5, 2.0, 8.0])
    def test_matches_the_scalar_reference(self, n, delta):
        config = GeneratorConfig(n=n, delta=delta)
        scratch = montecarlo._Scratch()
        for count in (1, 2, 257):
            seed = (n, int(delta * 10), count)
            draws = np.random.default_rng(seed)
            weights = draws.uniform(config.weight_low, config.weight_high, size=(count, n))
            eps = draws.uniform(-delta, delta, size=(count, n * (n - 1) // 2))
            for use in (None, scratch):
                mats = perturbed_batch(config, np.random.default_rng(seed), count, use)
                _assert_matches_scalar(mats, weights, eps)

    def test_a_tie_perturbs_the_upper_entry(self):
        # w0 == w1: both ratios are 1, and the fold lands on the upper entry.
        weights, eps = [[2.0, 2.0, 5.0]], [[-0.25, 0.5, 0.125]]
        mats = perturbed_batch(GeneratorConfig(3, 1.0), _FixedDraws(weights, eps), 1)
        assert mats[0, 1, 0] == 0.8 and mats[1, 0, 0] == 1.25
        _assert_matches_scalar(mats, weights, eps)

    @pytest.mark.parametrize("w0, w1, eps01", [
        (4.0, 2.0, -1.0),  # 2 - 1 is exactly 1
        (4.0, 2.0, np.nextafter(-1.0, -2.0)),  # just below 1: folded
        (4.0, 2.0, np.nextafter(-1.0, 0.0)),  # 1 + 2**-53 rounds to 1
        # 1.51 + eps rounds to 1, where the fold would give 1 + 2**-52.
        (1.51, 1.0, -0.5099999999999999),
    ])
    def test_epsilon_at_the_fold_edge(self, w0, w1, eps01):
        weights, eps = [[w0, w1, 9.0]], [[eps01, 0.5, -0.5]]
        mats = perturbed_batch(GeneratorConfig(3, 1.0), _FixedDraws(weights, eps), 1)
        assert mats[0, 1, 0] == mats[1, 0, 0] == 1.0
        _assert_matches_scalar(mats, weights, eps)

    def test_a_zero_fold_denominator_off_the_fold_is_silent(self):
        # Pair (0, 1): base 1.5 and epsilon 0.5 shift to 2, so it is not
        # folded, but (1 - 0.5) - (1.5 - 1) is zero.  pytest turns a
        # floating-point warning into an error.
        weights, eps = [[3.0, 2.0, 1.0]], [[0.5, 0.0, 0.0]]
        mats = perturbed_batch(GeneratorConfig(3, 1.0), _FixedDraws(weights, eps), 1)
        assert mats[0, 1, 0] == 2.0 and mats[1, 0, 0] == 0.5
        _assert_matches_scalar(mats, weights, eps)


class TestSelect:
    """`montecarlo._select` picks whole bit patterns, whatever they encode."""

    # +-0, subnormals, +-inf, normal values, the largest float, then three
    # NaNs as int64: quiet with a payload, signalling, and negative with
    # every payload bit set.
    PATTERNS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0e-310, np.inf, -np.inf, 1.0, -3.5,
                         np.finfo(float).max]).view(np.int64).tolist() + [
        0x7FF8_0000_0000_1234, 0x7FF0_0000_0000_0001, -1]

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("alias", [False, True])
    def test_exact_for_every_bit_pattern(self, swap, alias):
        a, b = (np.ascontiguousarray(x) for x in np.meshgrid(self.PATTERNS, self.PATTERNS))
        if swap:
            a, b = b, a
        mask = np.resize(np.array([0, -1, -1, 0, -1], dtype=np.int64), a.shape)
        expected = np.where(mask == -1, a, b)
        out = a.copy() if alias else np.empty_like(a)
        with np.errstate(all="raise"):
            montecarlo._select(out, out if alias else a, b, mask)
        assert out.tolist() == expected.tolist()


class TestGeneratorScratch:
    """`run_task` builds each batch in its thread's scratch, reused by the
    thread's later tasks; a public `perturbed_batch` call gets a fresh array."""

    def test_reused_scratch_equals_fresh_batches(self):
        scratch = montecarlo._Scratch()
        for n in (9, 4, 15, 3):
            for count in (1, 2, 130, 2048):
                config = GeneratorConfig(n=n, delta=2.0)
                reused_rng, fresh_rng = (np.random.default_rng((n, count)) for _ in range(2))
                reused = perturbed_batch(config, reused_rng, count, scratch)
                fresh = perturbed_batch(config, fresh_rng, count)
                assert reused.shape == fresh.shape == (n, n, count)
                assert reused.flags.c_contiguous
                assert reused.tobytes() == fresh.tobytes(), (n, count)
                assert reused_rng.bytes(8) == fresh_rng.bytes(8)

    def test_every_stack_entry_is_written(self):
        config = SimulationConfig(dims=(6,), deltas=(2.0,), matrices_per_cell=700, seed=3)
        task, ri = simulation_tasks(config)[0], default_ri_table().ri(6)
        scratch = montecarlo._SCRATCH
        try:
            first = run_task(config, task, ri)
            assert scratch.stack.size == 6 * 6 * 700
            scratch.stack.fill(np.nan)
            scratch.rows.fill(np.nan)
            again = run_task(config, task, ri)
        finally:
            scratch.clear()
        assert again.nonconverged == first.nonconverged == 0
        assert np.array_equal(again.table, first.table)

    def test_runs_in_two_threads_match_sequential_runs(self):
        table = default_ri_table()
        configs = [SimulationConfig(dims=dims, deltas=(1.0, 2.0, 3.0), matrices_per_cell=1500,
                                    seed=seed)
                   for dims, seed in (((4, 6, 8), 21), ((5, 7, 9), 22))]
        sequential = [run_simulation(c, table) for c in configs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda c: run_simulation(c, table), configs))
        for a, b in zip(sequential, threaded):
            _assert_same_tables(a, b)

    def test_run_empties_the_callers_scratch_on_return_and_on_raise(self, monkeypatch):
        config = SimulationConfig(dims=(5,), deltas=(1.0, 2.0), matrices_per_cell=300)
        scratch, solve = montecarlo._SCRATCH, montecarlo.batch_vectors
        in_use = []

        def watched(mats):
            in_use.append(scratch.stack.size)
            return solve(mats)

        def failing(mats):
            in_use.append(scratch.stack.size)
            raise RuntimeError("solver failed")

        monkeypatch.setattr(montecarlo, "batch_vectors", watched)
        run_simulation(config, default_ri_table())
        assert in_use == [5 * 5 * 300] * 2
        assert scratch.stack.size == scratch.rows.size == scratch.flags.size == 0

        monkeypatch.setattr(montecarlo, "batch_vectors", failing)
        with pytest.raises(RuntimeError, match="solver failed"):
            run_simulation(config, default_ri_table())
        assert in_use[-1] == 5 * 5 * 300
        assert scratch.stack.size == scratch.rows.size == scratch.flags.size == 0


class TestGeneratorAgainstIndependentReference:
    def test_cr_fraction_matches_reference_implementation(self):
        # second, independently coded implementation of the same three
        # steps, evaluated with a direct dense eigensolver
        n, delta, count = 4, 1.0, 100_000
        table = default_ri_table()
        ri = table.ri(n)

        rng = np.random.default_rng(20_001)
        mats = np.empty((count, n, n))
        for k in range(count):
            w = rng.uniform(1.0, 9.0, n)
            a = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    a[i, j] = w[i] / w[j]
            for i in range(n):
                for j in range(i + 1, n):
                    eps = rng.uniform(-delta, delta)
                    if a[i, j] >= 1.0:
                        v = a[i, j] + eps
                        if v < 1.0:
                            v = 1.0 / (1.0 - eps - (a[i, j] - 1.0))
                        a[i, j] = v
                        a[j, i] = 1.0 / v
                    else:
                        v = a[j, i] + eps
                        if v < 1.0:
                            v = 1.0 / (1.0 - eps - (a[j, i] - 1.0))
                        a[j, i] = v
                        a[i, j] = 1.0 / v
            mats[k] = a
        lam = np.linalg.eigvals(mats).real.max(axis=1)
        reference_fraction = float(np.mean((lam - n) / (n - 1) / ri < 0.1))

        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=count,
                                  seed=77)
        result = run_simulation(config, table)
        fraction = cr_share_below(result, 4, 1.0, 0.1)
        assert abs(fraction - reference_fraction) < 0.01


def _mixed_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    """Perturbed, Saaty-scale and exactly consistent matrices of order n,
    shuffled: ties in a vector and vectors that coincide are all covered.
    Returned as a (B, n, n) stack."""
    perturbed = np.concatenate([perturbed_batch(GeneratorConfig(n, delta), rng, 10)
                                for delta in (0.5, 1.0, 3.0)], axis=2).transpose(2, 0, 1)
    k = n * (n - 1) // 2
    upper = SAATY_SCALE[rng.integers(0, len(SAATY_SCALE), (30, k))]
    saaty = reciprocal_from_upper(upper.T, n).transpose(2, 0, 1)
    w = rng.uniform(1.0, 9.0, (20, n))
    consistent = w[:, :, None] / w[:, None, :]
    consistent[:, np.arange(n), np.arange(n)] = 1.0
    mats = np.concatenate([perturbed, saaty, consistent])
    return mats[rng.permutation(len(mats))]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchMatchesScalarPath:
    def test_vectors_and_records_agree(self):
        """compare_methods and the single-matrix vectors give, bit for bit,
        what the simulation computes for the same matrix in a batch."""
        rng = np.random.default_rng(30)
        checked = 0
        # Above 15, numpy's sum of a row has two or more blocks of 8 terms
        # or a tail of 7; the packaged RI table stops at 15.
        for n in (*range(3, 16), 16, 23, 40):
            table = default_ri_table() if n <= 15 else RiTable.supplied({n: 1.0})
            mats = _mixed_batch(n, rng)
            wr, inv, combined, rgm, lam, ok = batch_vectors(
                np.ascontiguousarray(mats.transpose(1, 2, 0)))
            assert ok.all()
            values = metric_blocks(wr, (inv, combined, rgm))
            closer, top = comparison_flags(values, wr, inv)
            cr = _ci(lam, n) / table.ri(n)
            iu, ju = np.triu_indices(n, 1)
            any_reversal = np.any(np.sign(wr[iu] - wr[ju])
                                  * np.sign(inv[iu] - inv[ju]) < 0, axis=0)
            for k, entries in enumerate(mats):
                m = PCMatrix(entries)
                record = compare_methods(m, table)
                assert _same_bits(record.cr, cr[k])
                for mi, metric in enumerate(METRICS):
                    assert _same_bits(record.values[metric], values[mi, :, k])
                    assert record.closer[metric] == closer[mi, k]
                assert record.top_reversal == top[k]
                assert record.any_reversal == any_reversal[k]
                assert _same_bits(inverse_left_eigenvector(m).priorities, inv[:, k])
                assert _same_bits(combined_eigenvector(m).priorities, combined[:, k])
                assert _same_bits(row_geometric_mean(m).priorities, rgm[:, k])
                checked += 1
        assert checked >= 1000


class TestClosestProbability:
    """Share of records whose row geometric mean is at least as close as the
    inverse-left vector, where the two coincide analytically."""

    def test_consistent_records_all_closer(self, toy_ri_table):
        rng = np.random.default_rng(40)
        records = []
        for _ in range(5):
            w = rng.uniform(1.0, 9.0, 4)
            records.append(compare_methods(consistent_from_weights(w), toy_ri_table))
        for metric in METRICS:
            assert np.mean([r.closer[metric] for r in records]) == 1.0

    def test_three_alternative_records_all_closer(self, toy_ri_table):
        from conftest import random_reciprocal

        rng = np.random.default_rng(41)
        records = [compare_methods(random_reciprocal(3, rng), toy_ri_table)
                   for _ in range(10)]
        for metric in METRICS:
            assert np.mean([r.closer[metric] for r in records]) == 1.0


def _share_below(columns, cr: float) -> float:
    """Share of a table's matrices in bins whose lower edge is under `cr`."""
    return float(columns.count[columns.lower < cr].sum() / columns.count.sum())


class TestFractionBelow:
    """CR shares read through `bin_columns`, the one reader of the counts."""

    @pytest.fixture()
    def columns(self):
        # 50 records in bin 10, [0.05, 0.055), and 50 in the overflow bucket.
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=100)
        table = np.zeros((_ROWS, config.n_bins + 1))
        table[0, 10] = table[0, config.n_bins] = 50
        return bin_columns(config, table)

    def test_overflow_bin_starts_at_the_cap(self, columns):
        assert columns.lower.tolist() == [0.05, 0.5]
        assert columns.overflow.tolist() == [False, True]

    @pytest.mark.parametrize("cr, share", [(0.0, 0.0), (0.05, 0.0), (0.055, 0.5),
                                           (0.1, 0.5), (0.495, 0.5), (0.5, 0.5)])
    def test_bin_edges(self, columns, cr, share):
        assert _share_below(columns, cr) == share

    def test_cap_that_is_not_a_multiple_of_the_width(self):
        # bin_width 0.03 under cap 0.1: edges 0, 0.03, 0.06, 0.09 and the cap.
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=1,
                                  bin_width=0.03, cr_cap=0.1)
        table = np.zeros((_ROWS, 5))
        table[0] = [1, 2, 3, 4, 5]
        columns = bin_columns(config, table)
        assert config.n_bins == 4
        assert columns.lower.tolist() == [0.0, 0.03, 0.06, 3 * 0.03, 0.1]
        assert _share_below(columns, 0.09) == 6 / 15
        assert _share_below(columns, 0.1) == 10 / 15

    def test_cell_without_matrices_has_no_bins(self):
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=1)
        columns = bin_columns(config, np.zeros((_ROWS, config.n_bins + 1)))
        assert columns.count.size == columns.lower.size == 0

    @pytest.mark.parametrize("cr", [0.05, 0.1, 0.2])
    def test_count_row_agrees_with_bin_columns(self, small_result, cr):
        columns = bin_columns(small_result.config, small_result.cell_tables[(4, 1.0)])
        assert cr_share_below(small_result, 4, 1.0, cr) == pytest.approx(
            _share_below(columns, cr - small_result.config.bin_width / 2), rel=1e-15)


@pytest.fixture(scope="module")
def small_result():
    config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10_000,
                              seed=5)
    return run_simulation(config, default_ri_table())


@pytest.fixture(scope="module")
def small_columns(small_result):
    return bin_columns(small_result.config, small_result.order_tables[4])


def _assert_same_tables(a, b):
    """Equal raw sums: every order table and cell table."""
    for x, y in ((a.order_tables, b.order_tables), (a.cell_tables, b.cell_tables)):
        assert list(x) == list(y)
        for key in x:
            assert np.array_equal(x[key], y[key]), key


class TestSimulationContracts:
    def test_conservation(self, small_result, small_columns):
        assert small_result.cell_tables[(4, 1.0)][0].sum() == 10_000
        assert int(small_columns.count.sum()) == 10_000

    def test_suppression_flags(self, small_result, small_columns):
        config = small_result.config
        for count, suppressed in zip(small_columns.count.tolist(),
                                     small_columns.suppressed.tolist()):
            assert suppressed == (count < config.min_bin_count)
            assert count > 0

    def test_bin_lowers_on_grid(self, small_result, small_columns):
        config = small_result.config
        for lower, overflow in zip(small_columns.lower.tolist(),
                                   small_columns.overflow.tolist()):
            if overflow:
                assert lower == config.cr_cap
            else:
                k = round(lower / config.bin_width)
                assert abs(lower - k * config.bin_width) < 1e-12
                assert lower < config.cr_cap

    def test_probabilities_in_range(self, small_columns):
        for prob in small_columns.closer.ravel().tolist():
            assert 0.0 <= prob <= 1.0
        for rate in small_columns.top_reversal.tolist():
            assert 0.0 <= rate <= 1.0

    def test_no_convergence_failures(self, small_result):
        assert small_result.nonconverged == 0

    # Columns 0, 7 and 30 of every batch report no convergence, or every column.
    @pytest.mark.parametrize("failed", [np.array([0, 7, 30]), np.arange(200)])
    def test_nonconverged_matrices_are_counted_and_refused(self, monkeypatch, failed):
        solve = montecarlo.power_iterate

        def failing(mats, tol, max_iter):
            *rest, converged = solve(mats, tol, max_iter)
            converged[failed] = False
            return (*rest, converged)

        config = SimulationConfig(dims=(4,), deltas=(1.0, 2.0), matrices_per_cell=200, seed=3)
        task, ri = simulation_tasks(config)[0], default_ri_table().ri(4)
        monkeypatch.setattr(montecarlo, "power_iterate", failing)
        partial = run_task(config, task, ri)
        assert partial.nonconverged == failed.size
        assert partial.table[0].sum() == task.count - failed.size
        with pytest.raises(NoConvergenceError,
                           match=f": {2 * failed.size} matrices failed to converge;"):
            run_simulation(config, workers=1)

    def test_cr_beyond_int64_lands_in_the_overflow_bin(self):
        # At this half-width 30 of the 50 matrices fail to converge, and the
        # CR of the other 20 divided by the bin width exceeds int64; the bins
        # are clipped before the cast, so numpy warns of no invalid cast.
        config = SimulationConfig(dims=(4,), deltas=(1e20,), matrices_per_cell=50, seed=1)
        partial = run_task(config, simulation_tasks(config)[0], default_ri_table().ri(4))
        assert partial.nonconverged == 30
        assert partial.table[0, config.n_bins] == partial.table[0].sum() == 20

    def test_statistics_equal_per_bin_reference(self, small_result, small_columns):
        config = small_result.config
        tables = [*small_result.order_tables.values(), *small_result.cell_tables.values()]
        assert len(tables) == 2
        for table in tables:
            assert_columns_match_reference(bin_columns(config, table),
                                           reference_bins(config, table))
        assert set(small_columns.suppressed.tolist()) == {True, False}

    def test_results_compare_by_identity(self):
        # Two equal runs answer == without asking an array for its truth value.
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=200, seed=3)
        a, b = run_simulation(config), run_simulation(config)
        _assert_same_tables(a, b)
        assert a == a and a != b
        columns = bin_columns(config, a.order_tables[4])
        assert columns == columns and columns != bin_columns(config, b.order_tables[4])
        task, ri = simulation_tasks(config)[0], default_ri_table().ri(4)
        partial = run_task(config, task, ri)
        assert partial == partial and partial != run_task(config, task, ri)


class TestDeterminismAndMerging:
    def _config(self):
        return SimulationConfig(dims=(4, 5), deltas=(1.0, 3.0), matrices_per_cell=3000,
                                seed=99)

    def test_worker_count_invariance(self):
        config = self._config()
        table = default_ri_table()
        serial = run_simulation(config, table, workers=1)
        parallel = run_simulation(config, table, workers=2)
        _assert_same_tables(serial, parallel)

    def test_merged_half_runs_equal_full_run(self):
        config = self._config()
        table = default_ri_table()
        tasks = simulation_tasks(config)
        ris = {n: table.ri(n) for n in config.dims}
        partials = [run_task(config, t, ris[t.n]) for t in tasks]
        full = reduce_partials(config, partials)

        half_a = partials[::2]
        half_b = partials[1::2]
        merged = reduce_partials(config, list(half_b) + list(half_a))
        _assert_same_tables(merged, full)

    def test_in_order_stream_releases_each_partial(self):
        config = SimulationConfig(dims=(4, 5), deltas=(1.0,), matrices_per_cell=9000,
                                  seed=99)
        table = default_ri_table()
        tasks = simulation_tasks(config)
        assert len(tasks) == 4
        released = []

        def stream():
            for t in tasks:
                partial = run_task(config, t, table.ri(t.n))
                ref = weakref.ref(partial)
                yield partial
                # Resumed only when the next partial is drawn.
                del partial
                released.append(ref() is None)

        streamed = reduce_partials(config, stream())
        assert released == [True] * len(tasks)
        full = run_simulation(config, table)
        _assert_same_tables(streamed, full)

    def _partials(self):
        config = SimulationConfig(dims=(4,), deltas=(1.0, 2.0), matrices_per_cell=10,
                                  seed=5)
        table = default_ri_table()
        return config, [run_task(config, t, table.ri(t.n)) for t in simulation_tasks(config)]

    @pytest.mark.parametrize("drop", [0, 1])
    def test_missing_partial_rejected(self, drop):
        config, partials = self._partials()
        del partials[drop]
        with pytest.raises(ValueError, match="missing"):
            reduce_partials(config, partials)

    @pytest.mark.parametrize("repeat", [0, 1])
    def test_duplicated_partial_rejected(self, repeat):
        config, partials = self._partials()
        with pytest.raises(ValueError, match="arrives twice"):
            reduce_partials(config, partials + [partials[repeat]])

    @pytest.mark.parametrize("workers", [0, -5])
    def test_worker_count_below_one_rejected(self, workers):
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_simulation(config, default_ri_table(), workers=workers)

    def test_task_partition_is_stable(self):
        config = self._config()
        tasks = simulation_tasks(config)
        assert tasks == simulation_tasks(config)
        assert sum(t.count for t in tasks) == 4 * 3000
        assert tasks[0] == SimTask(cell_index=0, n=4, delta=1.0, batch_index=0, count=3000)


class TestMonotoneTrend:
    def test_mean_euclidean_grows_with_cr_below_acceptance(self):
        # pooled run over all perturbation widths; only bins holding at
        # least 1000 records below CR 0.1 take part in the comparison
        config = SimulationConfig(dims=(5,), deltas=(1.0, 2.0, 3.0),
                                  matrices_per_cell=34_000, seed=2024)
        result = run_simulation(config, default_ri_table())
        c = bin_columns(config, result.order_tables[5])
        keep = ~c.overflow & (c.lower < 0.1) & (c.count >= 1000)
        means = c.means[METRICS.index("euclidean"), 0, keep].tolist()
        assert len(means) >= 10
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestSimulationConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimulationConfig(dims=(), deltas=(1.0,), matrices_per_cell=10)
        with pytest.raises(ValueError):
            SimulationConfig(dims=(4,), deltas=(), matrices_per_cell=10)
        with pytest.raises(ValueError):
            SimulationConfig(dims=(2,), deltas=(1.0,), matrices_per_cell=10)
        with pytest.raises(ValueError):
            SimulationConfig(dims=(4,), deltas=(-1.0,), matrices_per_cell=10)
        with pytest.raises(ValueError):
            SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=0)
        with pytest.raises(ValueError, match="finite widths"):
            SimulationConfig(dims=(4,), deltas=(1.0, 1e308), matrices_per_cell=10)

    def test_widest_half_width_draws_finite_matrices(self):
        half = np.finfo(float).max / 2
        SimulationConfig(dims=(4,), deltas=(half,), matrices_per_cell=10)
        entries = generate_perturbed(GeneratorConfig(n=4, delta=half, seed=1)).entries
        assert np.all(np.isfinite(entries)) and np.all(entries > 0.0)

    def test_dims_and_deltas_normalized(self):
        config = SimulationConfig(dims=(5, 4, 5), deltas=(3.0, 1.0),
                                  matrices_per_cell=10)
        assert config.dims == (4, 5)
        assert config.deltas == (1.0, 3.0)

    def test_bin_grid(self):
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10)
        assert config.n_bins == 100
