import numpy as np
import pytest

from pcmkit import (
    GeneratorConfig,
    PCMatrix,
    SimulationConfig,
    combined_eigenvector,
    compare_methods,
    consistency_ratio,
    default_ri_table,
    generate_perturbed,
    inverse_left_eigenvector,
    is_consistent,
    row_geometric_mean,
    run_simulation,
    validate,
)
from pcmkit.consistency import SAATY_SCALE, _ci_cr
from pcmkit.core import ReciprocityPolicy, reciprocal_from_upper
from pcmkit.metrics import METRICS, comparison_flags, metric_blocks
from pcmkit.montecarlo import (
    SimTask,
    batch_vectors,
    perturbed_batch,
    reduce_partials,
    run_task,
    simulation_tasks,
)
from pcmkit.weighting import DEFAULT_SOLVER


class TestGenerator:
    def test_vanishing_noise_keeps_consistency(self):
        cfg = GeneratorConfig(n=6, delta=1e-12, seed=4)
        m = generate_perturbed(cfg)
        assert is_consistent(m, 1e-9)

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
                validate(mats[k], ReciprocityPolicy(tolerance=1e-12))

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
        cr_small = np.mean([consistency_ratio(validate(m)).cr for m in small[:50]])
        cr_large = np.mean([consistency_ratio(validate(m)).cr for m in large[:50]])
        assert cr_large > cr_small
        assert table.ri(5) > 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=5, delta=0.0)
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
        assert int(result.histogram.counts[(4, 1.0)].sum()) == 50

    def test_bins_beyond_memory_are_refused_before_running(self, monkeypatch):
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10,
                                  bin_width=1e-12)
        monkeypatch.setattr("pcmkit.montecarlo.run_task", None)  # never reached
        with pytest.raises(ValueError, match="GiB of memory"):
            run_simulation(config, default_ri_table())


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
        fraction = result.histogram.fraction_below(4, 1.0, 0.1)
        assert abs(fraction - reference_fraction) < 0.01


def _mixed_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    """Perturbed, Saaty-scale and exactly consistent matrices of order n,
    shuffled: ties in a vector and vectors that coincide are all covered."""
    perturbed = np.concatenate([perturbed_batch(GeneratorConfig(n, delta), rng, 10)
                                for delta in (0.5, 1.0, 3.0)])
    k = n * (n - 1) // 2
    saaty = reciprocal_from_upper(SAATY_SCALE[rng.integers(0, len(SAATY_SCALE), (30, k))], n)
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
        table = default_ri_table()
        checked = 0
        for n in range(3, 16):
            mats = _mixed_batch(n, rng)
            wr, inv, combined, rgm, lam, ok = batch_vectors(mats, DEFAULT_SOLVER)
            assert ok.all()
            values = metric_blocks(wr, (inv, combined, rgm))
            closer, top = comparison_flags(values, wr, inv)
            _, cr = _ci_cr(lam, n, table.ri(n))
            iu, ju = np.triu_indices(n, 1)
            any_reversal = np.any(np.sign(wr[:, iu] - wr[:, ju])
                                  * np.sign(inv[:, iu] - inv[:, ju]) < 0, axis=1)
            for k, entries in enumerate(mats):
                m = PCMatrix(entries)
                record = compare_methods(m, table)
                assert _same_bits(record.cr, cr[k])
                for mi, metric in enumerate(METRICS):
                    assert _same_bits(record.values[metric], values[mi, :, k])
                    assert record.closer[metric] == closer[mi, k]
                assert record.top_reversal == top[k]
                assert record.any_reversal == any_reversal[k]
                assert _same_bits(inverse_left_eigenvector(m).priorities, inv[k])
                assert _same_bits(combined_eigenvector(m).priorities, combined[k])
                assert _same_bits(row_geometric_mean(m).priorities, rgm[k])
                checked += 1
        assert checked >= 1000


class TestClosestProbability:
    """Share of records whose row geometric mean is at least as close as the
    inverse-left vector, where the two coincide analytically."""

    def test_consistent_records_all_closer(self, toy_ri_table):
        from pcmkit import consistent_from_weights

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


@pytest.fixture(scope="module")
def small_result():
    config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10_000,
                              seed=5)
    return run_simulation(config, default_ri_table())


class TestSimulationContracts:
    def test_conservation(self, small_result):
        assert small_result.histogram.total(4, 1.0) == 10_000
        pooled_count = sum(stat.count for stat in small_result.pooled[4])
        assert pooled_count == 10_000

    def test_suppression_flags(self, small_result):
        config = small_result.config
        for stat in small_result.pooled[4]:
            assert stat.suppressed == (stat.count < config.min_bin_count)
            assert stat.count > 0

    def test_bin_lowers_on_grid(self, small_result):
        config = small_result.config
        for stat in small_result.pooled[4]:
            if stat.overflow:
                assert stat.bin_lower == config.cr_cap
            else:
                k = round(stat.bin_lower / config.bin_width)
                assert abs(stat.bin_lower - k * config.bin_width) < 1e-12
                assert stat.bin_lower < config.cr_cap

    def test_probabilities_in_range(self, small_result):
        for stat in small_result.pooled[4]:
            for metric, prob in stat.closer_probability.items():
                assert 0.0 <= prob <= 1.0
            assert 0.0 <= stat.top_reversal_rate <= 1.0

    def test_no_convergence_failures(self, small_result):
        assert small_result.nonconverged == 0


class TestDeterminismAndMerging:
    def _config(self):
        return SimulationConfig(dims=(4, 5), deltas=(1.0, 3.0), matrices_per_cell=3000,
                                seed=99)

    def test_worker_count_invariance(self):
        config = self._config()
        table = default_ri_table()
        serial = run_simulation(config, table, workers=1)
        parallel = run_simulation(config, table, workers=2)
        for cell in serial.histogram.counts:
            assert np.array_equal(serial.histogram.counts[cell],
                                  parallel.histogram.counts[cell])
        assert serial.pooled == parallel.pooled
        assert serial.per_delta == parallel.per_delta

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
        assert merged.pooled == full.pooled
        assert merged.per_delta == full.per_delta
        for cell in full.histogram.counts:
            assert np.array_equal(merged.histogram.counts[cell],
                                  full.histogram.counts[cell])

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
        means = [
            stat.means["euclidean"][0]
            for stat in result.pooled[5]
            if not stat.overflow and stat.bin_lower < 0.1 and stat.count >= 1000
        ]
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
        with pytest.raises(ValueError):
            SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10,
                             metrics=("spearman",))

    def test_dims_and_deltas_normalized(self):
        config = SimulationConfig(dims=(5, 4, 5), deltas=(3.0, 1.0),
                                  matrices_per_cell=10)
        assert config.dims == (4, 5)
        assert config.deltas == (1.0, 3.0)

    def test_bin_grid(self):
        config = SimulationConfig(dims=(4,), deltas=(1.0,), matrices_per_cell=10)
        assert config.n_bins == 100
