import numpy as np
import pytest

from pcmkit import GeneratorConfig, PCMatrix, eigen_system
from pcmkit._power import _CHECK_EVERY, power_iterate
from pcmkit.consistency import _random_reciprocal_batch
from pcmkit.montecarlo import perturbed_batch
from pcmkit.weighting import DEFAULT_SOLVER

TOL = DEFAULT_SOLVER.convergence_tol
MAX_ITER = DEFAULT_SOLVER.max_iterations


def _pool(n: int = 5, count: int = 300) -> np.ndarray:
    """Near-consistent and Saaty-scale matrices mixed, so rows stop at
    different check steps and the active stack is compacted mid-run."""
    rng = np.random.default_rng(2022)
    near = perturbed_batch(GeneratorConfig(n, 1.0), rng, count // 2)
    saaty = _random_reciprocal_batch(n, count - count // 2, rng, "saaty")
    mats = np.concatenate([near, saaty])
    return mats[rng.permutation(count)]


def _rows(result, k):
    return tuple(a[k] for a in result)


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
        return [_rows(power_iterate(pool[k:k + 1], TOL, MAX_ITER), 0)
                for k in range(len(pool))]

    def test_stops_are_spread_over_several_checks(self, alone):
        iterations = {int(r[2]) for r in alone}
        assert len(iterations) >= 3

    def test_full_batch_of_300(self, pool, alone):
        result = power_iterate(pool, TOL, MAX_ITER)
        for k in range(len(pool)):
            _assert_same_bits(_rows(result, k), alone[k])

    def test_shuffled_batch(self, pool, alone):
        order = np.random.default_rng(7).permutation(len(pool))
        result = power_iterate(pool[order], TOL, MAX_ITER)
        for pos, k in enumerate(order):
            _assert_same_bits(_rows(result, pos), alone[k])

    def test_batches_of_7(self, pool, alone):
        for start in range(0, len(pool) - 6, 7):
            result = power_iterate(pool[start:start + 7], TOL, MAX_ITER)
            for j in range(7):
                _assert_same_bits(_rows(result, j), alone[start + j])

    def test_certificate_holds_for_reported_vector(self, pool):
        weights, lam, iters, resid, conv = power_iterate(pool, TOL, MAX_ITER)
        assert conv.all()
        assert np.all(resid <= TOL * lam)
        # The residual is recomputed from the returned weights, not trusted.
        v = np.matmul(pool, weights[:, :, None])[:, :, 0]
        recomputed = np.max(np.abs(v - lam[:, None] * weights) / weights, axis=1)
        assert np.array_equal(recomputed, resid)
        assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-15)

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
        mats = _pool()[:10]
        _, _, iters, _, conv = power_iterate(mats, TOL, 2)
        assert not conv.any()
        assert np.all(iters == 2)


class TestEigenSystemSharesTheKernel:
    def test_same_bits_as_separate_runs(self):
        for entries in _pool(n=6, count=40):
            pair = eigen_system(PCMatrix(entries))
            alone = [power_iterate(m[None], TOL, MAX_ITER) for m in (entries, entries.T)]
            for result, (w, lam, iters, resid, conv) in zip(pair, alone):
                assert conv[0]
                assert result.weights.priorities.tobytes() == w[0].tobytes()
                assert result.iterations == iters[0]
                assert result.residual == resid[0]
            # Both results report the right-hand eigenvalue.
            assert pair[0].lambda_max == pair[1].lambda_max == alone[0][1][0]
