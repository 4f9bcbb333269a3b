import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmkit import (
    DimensionMismatchError,
    Normalization,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NonSquareError,
    PCMatrix,
    ReciprocityMode,
    ReciprocityPolicy,
    ReciprocityViolationError,
    consistent_from_weights,
    format_matrix_text,
    is_consistent,
    normalize,
    parse_matrix_text,
    permute,
    reconcile_matrix_text,
    transpose,
    WeightVector,
    validate,
)
from pcmkit.core import STRICT_FILE_POLICY

from conftest import random_reciprocal

M1_TEXT = """
4
1       0.4759  0.9832  0.4025
2.1011  1       1.9975  0.7374
1.0171  0.5006  1       0.3704
2.4842  1.3560  2.6998  1
"""


class TestValidate:
    def test_all_ones_is_valid(self):
        m = validate(np.ones((3, 3)))
        assert m.n == 3
        assert np.all(m.entries == 1.0)

    def test_fraction_matrix_valid_at_tight_tolerance(self):
        a = [[1, 3, 1 / 3, 1 / 2], [1 / 3, 1, 1 / 6, 2], [3, 6, 1, 1], [2, 1 / 2, 1, 1]]
        m = validate(a, ReciprocityPolicy(tolerance=1e-9))
        assert m.n == 4

    def test_printed_matrix_fails_tight_passes_file_tolerance(self):
        raw = parse_matrix_text(M1_TEXT)
        # the top pair's residual, computed directly, already exceeds 1e-6
        direct = 0.4759 * 2.1011 - 1.0
        assert abs(direct) > 1e-6
        with pytest.raises(ReciprocityViolationError) as err:
            validate(raw, ReciprocityPolicy(tolerance=1e-6))
        i, j = err.value.row, err.value.col
        assert err.value.residual == pytest.approx(raw[i, j] * raw[j, i] - 1.0, abs=1e-15)
        assert abs(err.value.residual) >= abs(direct)
        m = validate(raw, ReciprocityPolicy(tolerance=1e-3))
        assert m.n == 4

    def test_repair_from_upper(self):
        raw = [[2.0, 2.0, 3.0], [7.0, 1.0, 5.0], [9.0, 9.0, 0.5]]
        m = validate(raw, ReciprocityPolicy(mode=ReciprocityMode.REPAIR_FROM_UPPER,
                                            tolerance=1e-3))
        assert np.all(np.diag(m.entries) == 1.0)
        assert m[1, 0] == 1.0 / 2.0
        assert m[2, 0] == 1.0 / 3.0
        assert m[2, 1] == 1.0 / 5.0

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            validate([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]])

    def test_small_orders_rejected(self):
        with pytest.raises(NonSquareError):
            validate([[1.0, 2.0], [0.5, 1.0]])

    def test_non_positive_entry(self):
        raw = np.ones((3, 3))
        raw[0, 2] = 0.0
        with pytest.raises(NonPositiveEntryError) as err:
            validate(raw)
        assert (err.value.row, err.value.col) == (0, 2)

    def test_diagonal_must_be_one(self):
        raw = np.ones((3, 3))
        raw[1, 1] = 1.001
        with pytest.raises(ReciprocityViolationError):
            validate(raw, STRICT_FILE_POLICY)

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-3, 0.1])
    def test_names_the_largest_residual_at_any_tolerance(self, tolerance):
        # Two pairs off reciprocity, one by 5e-2 and one by 0.3: the policy
        # and the hard bound report the same pair, the one furthest off.
        raw = np.ones((4, 4))
        raw[0, 2], raw[3, 1] = 1.05, 1.3
        with pytest.raises(ReciprocityViolationError) as err:
            validate(raw, ReciprocityPolicy(tolerance=tolerance))
        assert (err.value.row, err.value.col) == (1, 3)
        assert err.value.residual == raw[1, 3] * raw[3, 1] - 1.0
        with pytest.raises(ReciprocityViolationError) as built:
            PCMatrix(raw)
        assert (built.value.row, built.value.col, built.value.residual) == \
            (err.value.row, err.value.col, err.value.residual)

    def test_policy_violation_alone_names_its_pair(self):
        raw = np.ones((3, 3))
        raw[2, 0] = 1.0 + 1e-6
        with pytest.raises(ReciprocityViolationError) as err:
            validate(raw)
        assert (err.value.row, err.value.col) == (0, 2)
        assert validate(raw, STRICT_FILE_POLICY).entries.tobytes() == raw.tobytes()

    def test_policy_tolerance_bounds(self):
        with pytest.raises(ValueError):
            ReciprocityPolicy(tolerance=0.0)
        with pytest.raises(ValueError):
            ReciprocityPolicy(tolerance=0.2)


class TestConsistentFromWeights:
    def test_direct_ratios(self):
        m = consistent_from_weights((4.0, 2.0, 1.0))
        expected = np.array([[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1.0]])
        assert np.allclose(m.entries, expected, rtol=0, atol=0)

    def test_equal_weights_give_all_ones(self):
        m = consistent_from_weights((1.0, 1.0, 1.0, 1.0))
        assert np.all(m.entries == 1.0)

    def test_two_alternatives(self):
        m = consistent_from_weights((9.0, 1.0))
        assert m[0, 1] == 9.0
        assert m[1, 0] == pytest.approx(1 / 9, rel=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveWeightError):
            consistent_from_weights((1.0, 0.0, 2.0))

    def test_triads_multiply_exactly(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.1, 10.0, size=6)
        m = consistent_from_weights(w)
        assert is_consistent(m, 1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_strict_validation(self, weights):
        m = consistent_from_weights(weights)
        again = validate(m.entries, ReciprocityPolicy(tolerance=1e-12))
        assert np.array_equal(again.entries, m.entries)


class TestIsConsistent:
    def test_consistent_true(self):
        assert is_consistent(consistent_from_weights((4.0, 2.0, 1.0)), 1e-9)

    def test_published_example_is_inconsistent(self, four_alt):
        assert not is_consistent(four_alt, 1e-3)

    def test_two_by_two_always_consistent(self):
        m = consistent_from_weights((9.0, 1.0))
        assert is_consistent(m, 1e-12)


class TestTranspose:
    def test_matches_opposed_judge(self, judge_pair):
        first, second = judge_pair
        assert np.array_equal(transpose(first).entries, second.entries)

    def test_all_ones_fixed_point(self):
        m = validate(np.ones((4, 4)))
        assert np.array_equal(transpose(m).entries, m.entries)

    def test_involution(self, five_alt):
        assert np.array_equal(transpose(transpose(five_alt)).entries, five_alt.entries)

    def test_entries_are_reciprocals(self):
        rng = np.random.default_rng(11)
        m = random_reciprocal(6, rng)
        t = transpose(m)
        assert np.max(np.abs(t.entries * m.entries - 1.0)) <= 1e-9


class TestNormalize:
    def test_sum_hundred(self):
        v = normalize((2.0, 1.0, 1.0), Normalization.SUM_HUNDRED)
        assert np.allclose(v.priorities, (50.0, 25.0, 25.0), rtol=0, atol=1e-12)

    def test_sum_one_fractions(self):
        v = normalize((4.0, 5.0, 8.0, 1.0))
        assert np.allclose(v.priorities, (2 / 9, 5 / 18, 4 / 9, 1 / 18), rtol=1e-15)

    def test_idempotent(self):
        v = normalize((0.5, 0.3, 0.2))
        again = normalize(v.priorities)
        assert np.array_equal(again.priorities, v.priorities)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveWeightError):
            normalize((1.0, -2.0, 3.0))

    def test_rejects_a_sum_that_overflows(self):
        # Finite positive components whose sum is not finite: refused with
        # no numpy warning (warnings are errors in this suite).
        with pytest.raises(NonPositiveWeightError, match="sum of the components overflows"):
            normalize((1e308, 1e308, 1.0))
        with pytest.raises(NonPositiveWeightError, match="sum of the priorities overflows"):
            WeightVector(np.array([1e308, 1e308, 1.0]))

    def test_rescaled_round_trip(self):
        v = normalize((1.0, 2.0, 3.0))
        assert np.allclose(
            v.rescaled(Normalization.SUM_HUNDRED).unit(), v.priorities, rtol=1e-15
        )


class TestPermutation:
    def test_permuted_matrix_is_valid(self):
        rng = np.random.default_rng(3)
        m = random_reciprocal(5, rng)
        order = rng.permutation(5)
        p = permute(m, order)
        assert p.n == 5
        assert p[0, 1] == m[order[0], order[1]]

    @pytest.mark.parametrize("order", [[0.9, 1.2, 2.7], [0, 1, 2.5], [float("nan"), 1, 2]])
    def test_non_integral_order_rejected(self, order):
        # Truncated to integers, the first two would read as the identity.
        m = random_reciprocal(3, np.random.default_rng(4))
        with pytest.raises(DimensionMismatchError, match="not a permutation"):
            permute(m, order)

    def test_integral_float_order_accepted(self):
        m = random_reciprocal(3, np.random.default_rng(4))
        assert np.array_equal(permute(m, [2.0, 0.0, 1.0]).entries, permute(m, [2, 0, 1]).entries)


class TestTextFormat:
    def test_fraction_equals_long_decimal(self):
        a = parse_matrix_text("3\n1 1/3 2\n3 1 6\n1/2 1/6 1\n")
        b = parse_matrix_text("3\n1 0.3333333333333333 2\n3 1 6\n0.5 0.16666666666666666 1\n")
        assert np.array_equal(a, b)

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\n3\n# row comment\n1 2 4\n0.5 1 2\n0.25 0.5 1\n"
        a = parse_matrix_text(text)
        assert a.shape == (3, 3)

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            parse_matrix_text("3\n1 2\n0.5 1 2\n0.25 0.5 1\n")

    def test_missing_rows(self):
        with pytest.raises(ValueError):
            parse_matrix_text("3\n1 2 4\n")

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_matrix_text("3\n1 x 4\n0.5 1 2\n0.25 0.5 1\n")

    @pytest.mark.parametrize("trailer,lineno", [("9 9 9\n", 5), ("# end\n\n1\n", 7),
                                                ("\n  x\n", 6)])
    @pytest.mark.parametrize("loader", [parse_matrix_text, reconcile_matrix_text])
    def test_data_after_the_last_row_names_its_line(self, loader, trailer, lineno):
        text = "3\n1 2 3\n0.5 1 2\n0.3333333333333333 0.5 1\n" + trailer
        with pytest.raises(ValueError, match=f"^line {lineno}: unexpected data after "
                                             "the 3 matrix rows$"):
            loader(text)

    @pytest.mark.parametrize("loader", [parse_matrix_text, reconcile_matrix_text])
    def test_comments_and_blank_lines_after_the_last_row_are_ignored(self, loader):
        rows = "3\n1 2 3\n1/2 1 2\n1/3 1/2 1\n"
        assert np.array_equal(loader(rows + "\n# done\n   \n#\n")[:], loader(rows)[:])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(17)
        m = random_reciprocal(5, rng)
        text = format_matrix_text(m, comments=("round trip",))
        again = validate(parse_matrix_text(text), ReciprocityPolicy(tolerance=1e-9))
        assert np.array_equal(again.entries, m.entries)


class TestReconcileMatrixText:
    EXACT_TEXT = """
    # fractions and integers only
    5
    1    3    1/3  7    1/9
    1/3  1    5/8  2    1/7
    3    8/5  1    1/6  4
    1/7  1/2  6    1    9
    9    7    1/4  1/9  1
    """

    def test_exact_matrix_loads_bitwise_as_printed(self):
        expected = validate(parse_matrix_text(self.EXACT_TEXT), STRICT_FILE_POLICY)
        got = reconcile_matrix_text(self.EXACT_TEXT)
        assert np.array_equal(got.entries, expected.entries)

    def test_decimal_pair_reconciled_within_both_printed_entries(self):
        # 0.574 admits [0.5735, 0.5745]; 1/1.743 rounded admits
        # [1/1.7435, 1/1.7425] = [0.57356, 0.57389]
        got = reconcile_matrix_text("3\n1 0.574 2\n1.743 1 4\n1/2 1/4 1\n")
        u = got[0, 1]
        assert 1 / 1.7435 <= u <= 1 / 1.7425
        assert got[1, 0] * u == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert got[0, 2] == 2.0 and got[2, 0] == 0.5

    def test_contradicting_triangles_name_the_pair(self):
        # 1 / 0.48 rounded to 2 decimals admits [2.06, 2.11], not the exact 2
        text = "3\n1 4 2\n1/4 1 3\n0.48 1/3 1\n"
        with pytest.raises(ReciprocityViolationError) as info:
            reconcile_matrix_text(text)
        assert (info.value.row, info.value.col) == (0, 2)
        assert "(0, 2)" in str(info.value)

    def test_non_positive_entry_rejected(self):
        with pytest.raises(NonPositiveEntryError):
            reconcile_matrix_text("3\n1 0 2\n1 1 4\n1/2 1/4 1\n")

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            reconcile_matrix_text("3\n1 x 2\n1 1 4\n1/2 1/4 1\n")


def test_upper_indices_are_cached_read_only_triu_indices():
    from pcmkit.core import _upper_indices

    for n in (3, 7, 15):
        iu, ju = _upper_indices(n)
        want = np.triu_indices(n, 1)
        assert np.array_equal(iu, want[0]) and np.array_equal(ju, want[1])
        assert not iu.flags.writeable and not ju.flags.writeable
        assert _upper_indices(n)[0] is iu
