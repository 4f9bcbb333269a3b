import warnings
from fractions import Fraction

import numpy as np
import pytest

from pcmkit import (
    DimensionMismatchError,
    EmptyListError,
    NoConvergenceError,
    PCMatrix,
    aggregate_matrices_geometric,
    aggregate_priorities_geometric,
    combined_eigenvector,
    compare_methods,
    eigen_system,
    inverse_left_eigenvector,
    normalize,
    right_eigenvector,
    row_geometric_mean,
    validate,
    weighting,
)

from conftest import consistent_from_weights, permute, random_reciprocal, transpose


def repeated_squaring_weights(entries: np.ndarray, squarings: int = 60) -> np.ndarray:
    """Brute-force dominant-eigenvector oracle: square the matrix repeatedly
    (renormalizing to avoid overflow), apply to the uniform vector."""
    b = np.array(entries, dtype=float)
    for _ in range(squarings):
        b = b @ b
        b /= b.max()
    v = b @ np.full(entries.shape[0], 1.0 / entries.shape[0])
    return v / v.sum()


class TestRightEigenvector:
    def test_reciprocal_pair_exact_fractions(self, reciprocal_pair):
        w = right_eigenvector(reciprocal_pair).weights.priorities
        expected = np.array([2 / 9, 5 / 18, 4 / 9, 1 / 18])
        assert np.max(np.abs(w - expected)) < 1e-6

    def test_four_alternative_published(self, four_alt):
        w = right_eigenvector(four_alt).weights.priorities
        expected = np.array([0.1844, 0.1519, 0.4364, 0.2273])
        assert np.max(np.abs(w - expected)) < 5e-4

    def test_consistent_case(self):
        m = consistent_from_weights((4.0, 2.0, 1.0))
        result = right_eigenvector(m)
        assert np.max(np.abs(result.weights.priorities - np.array([4, 2, 1]) / 7)) < 1e-12
        assert result.lambda_max == pytest.approx(3.0, abs=1e-12)

    def test_residual_certificate(self, five_alt):
        result = right_eigenvector(five_alt)
        assert result.residual <= weighting._TOL * result.lambda_max
        assert result.iterations >= 1

    def test_no_convergence_raises(self, four_alt, monkeypatch):
        monkeypatch.setattr(weighting, "_MAX_ITERATIONS", 2)
        # A fresh instance: the session fixture must not memoize the failure.
        with pytest.raises(NoConvergenceError) as err:
            right_eigenvector(PCMatrix(four_alt.entries))
        assert err.value.iterations == 2

    def test_underflowing_perron_vector_raises_no_convergence(self):
        # The right vector's last entry underflows to zero: the solver must
        # end that matrix as not converged without a floating-point warning.
        m = PCMatrix(np.array([[1.0, 1e200, 1e300], [1e-200, 1.0, 1e250],
                               [1e-300, 1e-250, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergenceError):
                right_eigenvector(m)
            with pytest.raises(NoConvergenceError):
                eigen_system(m)

    def test_overflowing_inverse_of_a_failed_left_vector_gives_no_warning(self):
        m = PCMatrix(np.array([[1.0, 1.7e308, 1.7e308], [1 / 1.7e308, 1.0, 1.7e308],
                               [1 / 1.7e308, 1 / 1.7e308, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for getter in (right_eigenvector, inverse_left_eigenvector, compare_methods):
                with pytest.raises(NoConvergenceError):
                    getter(m)

    def test_matches_repeated_squaring_oracle(self):
        rng = np.random.default_rng(42)
        for n in (4, 5):
            for _ in range(50):
                m = random_reciprocal(n, rng)
                w = right_eigenvector(m).weights.priorities
                oracle = repeated_squaring_weights(m.entries)
                assert np.max(np.abs(w - oracle)) < 1e-8


class TestLeftEigenvector:
    def test_reciprocal_pair_fractions(self, reciprocal_pair):
        w = eigen_system(reciprocal_pair)[1].weights.priorities
        expected = np.array([1 / 4, 1 / 5, 1 / 8, 1.0])
        expected /= expected.sum()
        assert np.max(np.abs(w / expected - 1.0)) < 1e-6

    def test_four_alternative_published(self, four_alt):
        w = eigen_system(four_alt)[1].weights.priorities
        expected = np.array([0.2482, 0.3878, 0.1049, 0.2591])
        assert np.max(np.abs(w - expected)) < 5e-4

    def test_all_ones_uniform(self):
        m = validate(np.ones((5, 5)))
        w = eigen_system(m)[1].weights.priorities
        assert np.allclose(w, 0.2, rtol=0, atol=1e-15)

    def test_lambda_shared_with_right(self, distant_reversal):
        right, left = eigen_system(distant_reversal)
        assert left.lambda_max == right.lambda_max


class TestInverseLeft:
    def test_equals_right_for_reciprocal_pair(self, reciprocal_pair):
        inv = inverse_left_eigenvector(reciprocal_pair).priorities
        w = right_eigenvector(reciprocal_pair).weights.priorities
        assert np.max(np.abs(inv - w)) < 1e-6

    def test_four_alternative_published(self, four_alt):
        inv = inverse_left_eigenvector(four_alt).priorities
        expected = np.array([0.2014, 0.1289, 0.4767, 0.1929])
        assert np.max(np.abs(inv - expected)) < 5e-4

    def test_five_alternative_four_decimals(self, five_alt):
        inv = inverse_left_eigenvector(five_alt).priorities
        expected = np.array([0.406431, 0.364208, 0.150669, 0.034391, 0.044302])
        assert np.max(np.abs(inv - expected)) < 5e-5

    def test_duality_with_transposed_right(self):
        rng = np.random.default_rng(8)
        for n in (4, 5, 6, 7):
            m = random_reciprocal(n, rng)
            inv = inverse_left_eigenvector(m).priorities
            wt = right_eigenvector(transpose(m)).weights.priorities
            dual = (1.0 / wt) / (1.0 / wt).sum()
            assert np.max(np.abs(inv - dual)) < 1e-9

    def test_three_alternatives_reciprocal_theorem(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = random_reciprocal(3, rng)
            inv = inverse_left_eigenvector(m).priorities
            w = right_eigenvector(m).weights.priorities
            assert np.max(np.abs(inv - w)) < 1e-9


class TestCombinedEigenvector:
    def test_consistent_is_square_of_generators(self):
        m = consistent_from_weights((4.0, 2.0, 1.0))
        combined = combined_eigenvector(m).priorities
        assert np.max(np.abs(combined - np.array([16, 4, 1]) / 21)) < 1e-9

    def test_reciprocal_pair_squares(self, reciprocal_pair):
        combined = combined_eigenvector(reciprocal_pair).priorities
        expected = np.array([16.0, 25.0, 64.0, 1.0]) / 106.0
        assert np.max(np.abs(combined - expected)) < 1e-6

    def test_all_ones_uniform(self):
        m = validate(np.ones((4, 4)))
        assert np.allclose(combined_eigenvector(m).priorities, 0.25, atol=1e-15)


class TestRowGeometricMean:
    def test_consistent_recovers_generators(self):
        m = consistent_from_weights((4.0, 2.0, 1.0))
        w = row_geometric_mean(m).priorities
        assert np.max(np.abs(w - np.array([4, 2, 1]) / 7)) < 1e-12

    def test_all_ones_uniform(self):
        m = validate(np.ones((5, 5)))
        assert np.allclose(row_geometric_mean(m).priorities, 0.2, atol=1e-15)

    def test_against_exact_fraction_oracle(self, four_alt):
        # independent oracle: exact rational row products, then float roots
        entries = [
            [Fraction(1), Fraction(3), Fraction(1, 3), Fraction(1, 2)],
            [Fraction(1, 3), Fraction(1), Fraction(1, 6), Fraction(2)],
            [Fraction(3), Fraction(6), Fraction(1), Fraction(1)],
            [Fraction(2), Fraction(1, 2), Fraction(1), Fraction(1)],
        ]
        products = []
        for row in entries:
            p = Fraction(1)
            for x in row:
                p *= x
            products.append(p)
        oracle = np.array([float(p) ** (1 / 4) for p in products])
        oracle /= oracle.sum()
        w = row_geometric_mean(four_alt).priorities
        assert np.max(np.abs(w - oracle)) < 1e-12


class TestAggregation:
    def test_opposed_judges_cancel(self, judge_pair):
        first, second = judge_pair
        merged = aggregate_matrices_geometric([first, second])
        assert np.max(np.abs(merged.entries - 1.0)) < 1e-12

    def test_single_matrix_identity(self, five_alt):
        merged = aggregate_matrices_geometric([five_alt])
        assert np.max(np.abs(merged.entries / five_alt.entries - 1.0)) < 1e-14

    def test_duplicate_idempotent(self, four_alt):
        merged = aggregate_matrices_geometric([four_alt, four_alt])
        assert np.max(np.abs(merged.entries / four_alt.entries - 1.0)) < 1e-14

    def test_dimension_mismatch(self, four_alt, five_alt):
        with pytest.raises(DimensionMismatchError):
            aggregate_matrices_geometric([four_alt, five_alt])

    def test_empty_rejected(self):
        with pytest.raises(EmptyListError):
            aggregate_matrices_geometric([])

    def test_priority_aggregation_prefers_second(self, judge_pair):
        first, second = judge_pair
        agg = aggregate_priorities_geometric([
            right_eigenvector(first).weights,
            right_eigenvector(second).weights,
        ])
        assert agg.priorities[1] > agg.priorities[0]

    def test_priority_single_identity(self):
        v = normalize((0.5, 0.3, 0.2))
        agg = aggregate_priorities_geometric([v])
        assert np.max(np.abs(agg.priorities - v.priorities)) < 1e-15

    def test_priority_reciprocal_partner_gives_uniform(self):
        v = normalize((0.5, 0.3, 0.2))
        partner = normalize(1.0 / v.priorities)
        agg = aggregate_priorities_geometric([v, partner])
        assert np.allclose(agg.priorities, 1 / 3, atol=1e-15)

    def test_priority_reversed_partner_is_palindromic(self):
        v = normalize((0.5, 0.3, 0.2))
        agg = aggregate_priorities_geometric([v, normalize(v.priorities[::-1])])
        assert np.allclose(agg.priorities, agg.priorities[::-1], atol=1e-15)

    def test_priority_empty_rejected(self):
        with pytest.raises(EmptyListError):
            aggregate_priorities_geometric([])


class TestConsistentDegeneracy:
    def test_all_methods_recover_generators(self):
        rng = np.random.default_rng(31)
        for n in range(4, 10):
            w = rng.uniform(1.0, 9.0, size=n)
            w /= w.sum()
            m = consistent_from_weights(w)
            result = right_eigenvector(m)
            assert abs(result.lambda_max - n) < 1e-9
            assert np.max(np.abs(result.weights.priorities - w)) < 1e-9
            assert np.max(np.abs(inverse_left_eigenvector(m).priorities - w)) < 1e-9
            assert np.max(np.abs(row_geometric_mean(m).priorities - w)) < 1e-9
            squared = w * w / np.sum(w * w)
            assert np.max(np.abs(combined_eigenvector(m).priorities - squared)) < 1e-9


class TestPermutationEquivariance:
    def test_all_methods(self, five_alt):
        rng = np.random.default_rng(13)
        order = rng.permutation(5)
        p = permute(five_alt, order)
        for derive in (
            lambda m: right_eigenvector(m).weights.priorities,
            lambda m: eigen_system(m)[1].weights.priorities,
            lambda m: inverse_left_eigenvector(m).priorities,
            lambda m: combined_eigenvector(m).priorities,
            lambda m: row_geometric_mean(m).priorities,
        ):
            direct = derive(five_alt)[order]
            permuted = derive(p)
            assert np.max(np.abs(direct - permuted)) < 1e-11


class TestRankingAsymmetryWitness:
    def test_four_alternative_flip(self, four_alt):
        w = right_eigenvector(four_alt).weights.priorities
        inv = inverse_left_eigenvector(four_alt).priorities
        # right eigenvector puts alternative 4 above 1, inverse-left flips them
        assert w[3] > w[0]
        assert inv[0] > inv[3]


class TestSolverConfig:
    def test_determinism(self, distant_reversal):
        a = right_eigenvector(distant_reversal)
        b = right_eigenvector(distant_reversal)
        assert np.array_equal(a.weights.priorities, b.weights.priorities)
        assert a.lambda_max == b.lambda_max
        assert a.iterations == b.iterations
