import warnings

import numpy as np
import pytest

from pcmkit import (
    DimensionMismatchError,
    NonPositiveWeightError,
    chebyshev,
    compare_methods,
    consistent_from_weights,
    euclidean,
    kendall_tau,
    max_ratio,
    normalize,
    validate,
)
from pcmkit.metrics import METRICS, comparison_flags, metric_blocks, record_from_vectors

U = (0.5, 0.4, 0.1)
V = (0.5, 0.3, 0.2)
W = (0.6, 0.3, 0.1)


class TestEuclidean:
    def test_identical_vectors(self):
        assert euclidean(U, U) == 0.0

    def test_hand_computed(self):
        assert euclidean((0.5, 0.5), (0.3, 0.7)) == pytest.approx(0.2 * np.sqrt(2), rel=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(0.05, 1.0, 5)
            b = rng.uniform(0.05, 1.0, 5)
            assert euclidean(a, b) == euclidean(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            euclidean((0.5, 0.5), (0.3, 0.3, 0.4))


class TestChebyshev:
    def test_bottom_pair_switch(self):
        assert chebyshev(U, V) == pytest.approx(0.1, abs=1e-15)

    def test_top_pair_switch(self):
        assert chebyshev(U, W) == pytest.approx(0.1, abs=1e-15)

    def test_identical_vectors(self):
        assert chebyshev(V, V) == 0.0


class TestMaxRatio:
    def test_bottom_switch_doubles(self):
        assert max_ratio(U, V) == pytest.approx(2.0, rel=1e-12)

    def test_top_switch_milder(self):
        assert max_ratio(U, W) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_identity_gives_one(self):
        assert max_ratio(U, U) == 1.0

    def test_at_least_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(0.05, 1.0, 4)
            b = rng.uniform(0.05, 1.0, 4)
            assert max_ratio(a, b) >= 1.0


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau(U, U) == 1.0

    def test_opposite_rankings(self):
        assert kendall_tau((0.5, 0.3, 0.2), (0.2, 0.3, 0.5)) == -1.0

    def test_one_discordant_pair_of_three(self):
        assert kendall_tau((0.5, 0.3, 0.2), (0.5, 0.2, 0.3)) == pytest.approx(1 / 3)

    def test_tie_counts_as_neither(self):
        # components 1 and 2 tie in the first vector: that pair contributes 0
        tau = kendall_tau((0.4, 0.4, 0.2), (0.5, 0.3, 0.2))
        assert tau == pytest.approx(2 / 3)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0.05, 1.0, 6)
            b = rng.uniform(0.05, 1.0, 6)
            tau = kendall_tau(a, b)
            order = rng.permutation(6)
            assert kendall_tau(a[order], b[order]) == pytest.approx(tau, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.uniform(0.05, 1.0, 5)
            b = rng.uniform(0.05, 1.0, 5)
            assert -1.0 <= kendall_tau(a, b) <= 1.0


class TestNormalizationHandling:
    def test_weight_vectors_compared_on_unit_scale(self):
        from pcmkit import Normalization

        a = normalize((2.0, 1.0, 1.0), Normalization.SUM_HUNDRED)
        b = normalize((2.0, 1.0, 1.0), Normalization.SUM_ONE)
        assert euclidean(a, b) == 0.0
        assert max_ratio(a, b) == 1.0

    @pytest.mark.parametrize("metric", [euclidean, chebyshev, max_ratio, kendall_tau])
    @pytest.mark.parametrize("raw", [(1.0, -2.0, 3.0), (0.0, 0.0, 0.0), (1.0, np.inf, 3.0),
                                     (1.0, np.nan, 3.0), (2.0,), ((1.0, 2.0), (3.0, 4.0)),
                                     (1e308, 1e308, 1.0)],
                             ids=["negative", "zero", "inf", "nan", "one-entry", "2-D",
                                  "overflowing-sum"])
    def test_raw_vector_must_pass_the_weight_vector_checks(self, metric, raw):
        # Refused before any arithmetic, on either side: no nan, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u, v in ((raw, (1.0, 2.0, 3.0)), ((1.0, 2.0, 3.0), raw)):
                with pytest.raises(NonPositiveWeightError):
                    metric(u, v)


class TestCompareMethods:
    def test_consistent_matrix_degenerates(self, toy_ri_table):
        m = consistent_from_weights((4.0, 3.0, 2.0, 1.0))
        record = compare_methods(m, toy_ri_table)
        assert record.cr == 0.0
        for metric in METRICS:
            assert record.closer[metric]
        assert record.value("euclidean", "inverse_left") < 1e-9
        assert record.value("chebyshev", "row_geometric_mean") < 1e-9
        assert record.value("max_ratio", "inverse_left") == pytest.approx(1.0, abs=1e-9)
        assert record.value("kendall", "inverse_left") == 1.0
        assert not record.top_reversal
        assert not record.any_reversal

    def test_fully_reversed_ranking(self, full_reversal, toy_ri_table):
        record = compare_methods(full_reversal, toy_ri_table)
        assert record.value("kendall", "inverse_left") == -1.0
        assert record.any_reversal
        assert record.top_reversal

    def test_distant_reversal_weight_gaps(self, distant_reversal, toy_ri_table):
        from pcmkit import inverse_left_eigenvector, right_eigenvector

        record = compare_methods(distant_reversal, toy_ri_table)
        assert record.top_reversal
        w = right_eigenvector(distant_reversal).weights.priorities * 100
        inv = inverse_left_eigenvector(distant_reversal).priorities * 100
        assert abs(w[1] - w[4]) == pytest.approx(4.85, abs=0.05)
        assert abs(inv[1] - inv[4]) == pytest.approx(4.44, abs=0.05)

    def test_near_consistent_reversal_at_tiny_distance(self, near_consistent, toy_ri_table):
        record = compare_methods(near_consistent, toy_ri_table)
        assert record.any_reversal
        assert record.value("euclidean", "inverse_left") < 0.001

    def test_underflowing_combined_vector_raises(self, toy_ri_table):
        # Valid entries whose combined vector underflows to zero: the same
        # refusal as WeightVector gives, before any metric divides by zero.
        m = validate(np.array([[1.0, 1e300, 1e300], [1e-300, 1.0, 1.0], [1e-300, 1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveWeightError, match="strictly positive and finite"):
                compare_methods(m, toy_ri_table)

    def test_three_alternatives_degenerate(self, toy_ri_table):
        from conftest import random_reciprocal

        rng = np.random.default_rng(9)
        for _ in range(25):
            record = compare_methods(random_reciprocal(3, rng), toy_ri_table)
            assert record.value("euclidean", "inverse_left") < 1e-9
            assert record.value("chebyshev", "inverse_left") < 1e-9
            assert record.value("max_ratio", "inverse_left") < 1.0 + 1e-7
            assert record.value("kendall", "inverse_left") == 1.0
            for metric in METRICS:
                assert record.closer[metric]

    def test_metric_identity_properties(self, toy_ri_table):
        from conftest import random_reciprocal

        rng = np.random.default_rng(10)
        record = compare_methods(random_reciprocal(5, rng), toy_ri_table)
        for metric in ("euclidean", "chebyshev"):
            for value in record.values[metric]:
                assert value >= 0.0
        for value in record.values["max_ratio"]:
            assert value >= 1.0
        for value in record.values["kendall"]:
            assert -1.0 <= value <= 1.0


class TestCloserRuleBoundaries:
    """`comparison_flags` at each metric's tie threshold and one ulp past it:
    the distances tie within 1e-9, the max ratio within a factor 1 + 1e-9,
    and Kendall tau, where larger is closer, only when equal."""

    @staticmethod
    def _closer(metric: str, to_inverse_left: float, to_rgm: float) -> bool:
        mi = METRICS.index(metric)
        values = np.ones((len(METRICS), 3, 1))
        values[mi, 0, 0], values[mi, 2, 0] = to_inverse_left, to_rgm
        closer, _ = comparison_flags(values, np.ones((3, 1)), np.ones((3, 1)))
        return bool(closer[mi, 0])

    @pytest.mark.parametrize("metric, to_inverse_left, threshold, past", [
        ("euclidean", 0.0, 1e-9, np.inf),
        ("euclidean", 0.25, 0.25 + 1e-9, np.inf),
        ("chebyshev", 0.0, 1e-9, np.inf),
        ("chebyshev", 0.125, 0.125 + 1e-9, np.inf),
        ("max_ratio", 1.0, 1.0 + 1e-9, np.inf),
        ("max_ratio", 1.5, 1.5 * (1.0 + 1e-9), np.inf),
        ("kendall", 0.6, 0.6, -np.inf),
        ("kendall", -1.0, -1.0, -np.inf),
    ])
    def test_threshold_is_closer_and_one_ulp_past_is_not(self, metric, to_inverse_left,
                                                         threshold, past):
        assert self._closer(metric, to_inverse_left, threshold)
        assert not self._closer(metric, to_inverse_left, np.nextafter(threshold, past))


def _reference_row(a: np.ndarray, b: np.ndarray) -> list[float]:
    """The four metrics of one pair of unit-sum rows, pair by pair."""
    n = a.shape[0]
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = np.sign(a[i] - a[j]) * np.sign(b[i] - b[j])
            concordant += int(s > 0)
            discordant += int(s < 0)
    d = a - b
    r = a / b
    return [np.sqrt(np.sum(d * d)), np.max(np.abs(d)),
            np.max(np.maximum(r, 1.0 / r)), (concordant - discordant) / (n * (n - 1) / 2)]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / x.sum(axis=1)[:, None]


class TestMetricKernel:
    @pytest.mark.parametrize("n", range(2, 16))
    def test_bitwise_equal_to_per_row_reference(self, n):
        rng = np.random.default_rng(100 + n)
        batch = 64
        right = _unit_rows(rng.uniform(1.0, 9.0, (batch, n)))
        others = [
            _unit_rows(right * rng.lognormal(0.0, 0.3, (batch, n))),
            # Components drawn from three levels: many exact ties inside a row.
            _unit_rows(rng.integers(1, 4, (batch, n)).astype(float)),
            # Rows equal to `right` where the mask is set: zero distances.
            np.where(rng.random((batch, 1)) < 0.25, right,
                     _unit_rows(rng.uniform(1.0, 9.0, (batch, n)))),
        ]
        tied = rng.random(batch) < 0.5
        right[tied] = _unit_rows(rng.integers(1, 3, (int(tied.sum()), n)).astype(float))
        got = metric_blocks(right.T, [other.T for other in others])
        assert got.shape == (len(METRICS), len(others), batch)
        for p, other in enumerate(others):
            for k in range(batch):
                want = np.array(_reference_row(right[k], other[k]), dtype=float)
                assert got[:, p, k].tobytes() == want.tobytes()

    def test_ties_give_sign_zero(self):
        right = np.array([[0.25, 0.25, 0.5]]).T
        other = np.array([[0.2, 0.3, 0.5]]).T
        # Pair (0, 1) is tied in `right`, so only (0, 2) and (1, 2) count.
        assert metric_blocks(right, [other])[3, 0, 0] == 2 / 3
        assert metric_blocks(right, [right])[:, 0, 0].tolist() == [0.0, 0.0, 1.0, 2 / 3]

    def test_record_is_a_batch_of_one(self):
        rng = np.random.default_rng(9)
        vecs = _unit_rows(rng.uniform(1.0, 9.0, (4, 7)))
        record = record_from_vectors(*vecs, cr=0.05)
        block = metric_blocks(vecs[0][:, None], [vecs[k][:, None] for k in (1, 2, 3)])
        for mi, m in enumerate(METRICS):
            assert record.values[m] == tuple(block[mi, :, 0].tolist())


def _record_pair_by_pair(right, inverse_left, combined, rgm):
    """(values, closer, top, any_reversal) of `record_from_vectors`, scored
    as three batches of one, with the reversal read off n x n sign matrices."""
    block = metric_blocks(right[:, None], [v[:, None] for v in (inverse_left, combined, rgm)])
    closer, top = comparison_flags(block, right[:, None], inverse_left[:, None])
    d_r = np.sign(right[:, None] - right[None, :])
    d_l = np.sign(inverse_left[:, None] - inverse_left[None, :])
    return block[:, :, 0], closer[:, 0], bool(top[0]), bool(np.any(d_r * d_l < 0))


def _analysed_vectors(m):
    from pcmkit import (combined_eigenvector, inverse_left_eigenvector, right_eigenvector,
                        row_geometric_mean)

    return [right_eigenvector(m).weights.priorities, inverse_left_eigenvector(m).priorities,
            combined_eigenvector(m).priorities, row_geometric_mean(m).priorities]


class TestOnePassRecord:
    """`record_from_vectors` scores the three pairs in one `metric_blocks`
    pass; every value keeps the bits of a batch of one per pair."""

    def _assert_same_record(self, vectors):
        values, closer, top, any_reversal = _record_pair_by_pair(*vectors)
        record = record_from_vectors(*vectors, cr=0.05)
        got = np.array([record.values[m] for m in METRICS])
        assert got.tobytes() == values.tobytes()
        assert [record.closer[m] for m in METRICS] == closer.tolist()
        assert (record.top_reversal, record.any_reversal) == (top, any_reversal)

    @pytest.mark.parametrize("n", range(3, 16))
    def test_matrix_vectors_of_every_order(self, n):
        from conftest import random_reciprocal

        rng = np.random.default_rng(700 + n)
        for _ in range(4):
            self._assert_same_record(_analysed_vectors(random_reciprocal(n, rng)))

    @pytest.mark.parametrize("n", range(3, 16))
    def test_tied_vectors_of_every_order(self, n):
        # Components from three levels: ties within and across the vectors.
        rng = np.random.default_rng(800 + n)
        for _ in range(8):
            self._assert_same_record(list(_unit_rows(rng.integers(1, 4, (4, n)).astype(float))))

    @pytest.mark.parametrize("weights", [(4.0, 3.0, 2.0, 1.0), (5.0, 1.0, 1.0, 2.0, 3.0, 1.0)],
                             ids=["n4", "n6-tied"])
    def test_consistent_matrix(self, weights):
        self._assert_same_record(_analysed_vectors(consistent_from_weights(weights)))

    def test_three_alternatives(self):
        # The inverse-left vector equals the right one analytically at n = 3.
        from conftest import random_reciprocal

        rng = np.random.default_rng(11)
        for _ in range(10):
            vectors = _analysed_vectors(random_reciprocal(3, rng))
            self._assert_same_record(vectors)
            assert record_from_vectors(*vectors, cr=0.0).value("kendall", "inverse_left") == 1.0
