from importlib import resources

import numpy as np
import pytest

from pcmkit import (
    MissingRiError,
    RiTable,
    build_ri_table,
    consistency_index,
    consistency_ratio,
    default_ri_table,
    estimate_random_index,
    validate,
)

from pcmkit._power import _pieces, power_iterate
from pcmkit.consistency import (SAATY_SCALE, _RI_SOLVER_MAX_ITER, _RI_SOLVER_TOL,
                                 RiProvenance, _ri_chunk_sum)
from pcmkit.core import reciprocal_from_upper

from conftest import consistent_from_weights, permute, random_reciprocal, transpose


class TestConsistencyIndex:
    def test_consistent_matrix_is_exactly_zero(self):
        m = consistent_from_weights((5.0, 2.0, 1.0, 0.5))
        assert consistency_index(m) == 0.0

    def test_three_by_three_against_characteristic_cubic(self):
        # For a 3x3 reciprocal matrix the characteristic polynomial is
        # lam^3 - 3 lam^2 - (t + 1/t - 2) with t = a12 * a23 / a13.
        m = validate([[1, 2, 2], [0.5, 1, 2], [0.5, 0.5, 1]])
        t = 2.0 * 2.0 / 2.0
        roots = np.roots([1.0, -3.0, 0.0, -(t + 1.0 / t - 2.0)])
        lam = max(r.real for r in roots if abs(r.imag) < 1e-9)
        assert consistency_index(m) == pytest.approx((lam - 3.0) / 2.0, abs=1e-9)

    def test_permutation_invariant(self, five_alt):
        rng = np.random.default_rng(2)
        ci = consistency_index(five_alt)
        for _ in range(5):
            assert consistency_index(permute(five_alt, rng.permutation(5))) == pytest.approx(
                ci, abs=1e-9
            )

    def test_transpose_shares_ci(self, four_alt):
        assert consistency_index(transpose(four_alt)) == pytest.approx(
            consistency_index(four_alt), abs=1e-9
        )


class TestRandomIndexEstimation:
    def test_deterministic_for_seed(self):
        a = estimate_random_index(4, 1000, seed=7)
        b = estimate_random_index(4, 1000, seed=7)
        assert a == b

    def test_two_disjoint_seeds_agree_within_one_percent(self):
        a = estimate_random_index(3, 100_000, seed=1)
        b = estimate_random_index(3, 100_000, seed=2)
        assert a > 0.0
        assert abs(a - b) / a < 0.01

    def test_monotone_between_small_and_large_order(self):
        small = estimate_random_index(4, 100_000, seed=3)
        large = estimate_random_index(9, 100_000, seed=3)
        assert large > small

    def test_worker_count_does_not_change_result(self):
        serial = estimate_random_index(4, 40_000, seed=11)
        parallel = estimate_random_index(4, 40_000, seed=11, workers=2)
        assert serial == parallel

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            estimate_random_index(4, 999, seed=0)

    def test_order_floor_enforced(self):
        with pytest.raises(ValueError):
            estimate_random_index(2, 1000, seed=0)

    def test_continuous_scale_supported(self):
        ri = estimate_random_index(4, 1000, seed=5, scale="log-uniform")
        assert ri > 0.0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            estimate_random_index(4, 1000, seed=5, scale="cauchy")

    @pytest.mark.parametrize("workers", [0, -5])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate_random_index(3, 1000, 1, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            build_ri_table([3], 1000, 1, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            build_ri_table([], 1000, 1, workers=workers)

    def test_negative_seed_rejected(self):
        # Order n of a table uses base seed + n, so a negative base seed would
        # silently reuse the stream another order gets from a valid one.
        with pytest.raises(ValueError) as info:
            estimate_random_index(3, 1000, -1)
        assert str(info.value) == "seed must be non-negative, got -1"
        with pytest.raises(ValueError) as info:
            build_ri_table([3, 4], 1000, -1)
        assert str(info.value) == "seed must be non-negative, got -1"


def _draw(rng, scale: str, size: tuple[int, int]) -> np.ndarray:
    """One draw of RI upper triangles, as `_ri_chunk_sum` makes it."""
    if scale == "saaty":
        return rng.integers(0, len(SAATY_SCALE), size=size)
    return rng.uniform(-np.log(9.0), np.log(9.0), size=size)


def _whole_chunk_sum(n: int, count: int, seed: int, chunk_index: int, scale: str) -> float:
    """`_ri_chunk_sum` with the chunk's upper triangles drawn and mapped in
    one call, and its stack built whole: the reference for the per-piece
    draws into reused buffers."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
    drawn = _draw(rng, scale, (count, n * (n - 1) // 2))
    upper = (SAATY_SCALE[drawn] if scale == "saaty" else np.exp(drawn)).T
    lam = np.empty(count)
    for piece in _pieces(n, count):
        lam[piece] = power_iterate(reciprocal_from_upper(upper[:, piece], n), _RI_SOLVER_TOL,
                                   _RI_SOLVER_MAX_ITER)[1]
    return float(((lam - n) / (n - 1)).sum())


# Orders and chunk sizes of the split-draw test.  Whole draws above 20 M
# values (n = 60 at 20,000 samples, n = 200 at 4,000 and 20,000: 283 MB to
# 3.2 GB as int64) are left out, to keep the suite's memory small; they
# split at the same block sizes as n = 200 at 1,000.
_SPLIT_CASES = [(n, count) for n in (3, 15, 60, 200) for count in (1000, 4000, 20_000)
                if count * n * (n - 1) // 2 <= 20_000_000]


class TestPerPieceDraws:
    @pytest.mark.parametrize("scale", ["saaty", "log-uniform"])
    @pytest.mark.parametrize("n, count", _SPLIT_CASES)
    def test_row_blocks_draw_the_values_of_one_call(self, n, count, scale):
        """The property the per-piece draws rest on, which numpy does not
        document: drawn in the row blocks of `_pieces`, the short last one
        included, the rows equal those of one whole call."""
        pairs = n * (n - 1) // 2
        whole = _draw(np.random.default_rng(count + n), scale, (count, pairs))
        rng = np.random.default_rng(count + n)
        for piece in _pieces(n, count):
            block = _draw(rng, scale, (piece.stop - piece.start, pairs))
            assert block.tobytes() == whole[piece].tobytes(), (n, count, scale, piece)

    @pytest.mark.parametrize("scale", ["saaty", "log-uniform"])
    @pytest.mark.parametrize("n, count", [(3, 1000), (9, 4000), (15, 4000), (15, 1), (60, 1000)])
    def test_chunk_sum_equals_whole_chunk_draws(self, n, count, scale):
        got = _ri_chunk_sum(n, count, 31, 2, scale)
        assert got.hex() == _whole_chunk_sum(n, count, 31, 2, scale).hex()


class TestConsistencyRatio:
    def test_published_four_alternative(self, four_alt):
        report = consistency_ratio(four_alt)
        assert report.cr == pytest.approx(0.331, abs=0.01)
        assert not report.acceptable

    def test_published_five_alternative(self, five_alt):
        report = consistency_ratio(five_alt)
        assert report.cr == pytest.approx(0.082, abs=0.005)
        assert report.acceptable

    def test_distant_reversal_cr(self, distant_reversal):
        report = consistency_ratio(distant_reversal)
        assert report.cr == pytest.approx(0.0993, abs=0.003)
        assert report.acceptable

    def test_consistent_matrix_zero_cr(self):
        m = consistent_from_weights((3.0, 2.0, 1.0, 0.5, 0.25))
        report = consistency_ratio(m)
        assert report.cr == 0.0
        assert report.acceptable

    def test_report_relations(self, four_alt, toy_ri_table):
        report = consistency_ratio(four_alt, toy_ri_table)
        assert report.ci == pytest.approx(
            (report.lambda_max - report.n) / (report.n - 1), abs=1e-12
        )
        assert report.cr == report.ci / report.ri
        assert report.acceptable == (report.cr <= 0.1)
        assert report.ri_source.kind == "supplied"

    def test_cr_inverse_homogeneous_in_ri(self, four_alt, toy_ri_table):
        doubled = RiTable.supplied({n: 2.0 * toy_ri_table.ri(n) for n in toy_ri_table.orders})
        base = consistency_ratio(four_alt, toy_ri_table).cr
        halved = consistency_ratio(four_alt, doubled).cr
        assert halved == base / 2.0

    def test_missing_order(self, four_alt):
        with pytest.raises(MissingRiError):
            consistency_ratio(four_alt, RiTable.supplied({5: 1.11}))


class TestRiTableIO:
    def test_round_trip(self, tmp_path):
        table = RiTable.supplied({4: 0.9, 5: 1.1})
        path = tmp_path / "ri.txt"
        table.to_file(path)
        again = RiTable.from_file(path)
        assert again.orders == (4, 5)
        assert again.ri(5) == pytest.approx(1.1, rel=1e-12)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "ri.txt"
        path.write_text("4 0.9\n")
        with pytest.raises(ValueError):
            RiTable.from_file(path)

    def test_rejects_repeated_order(self, tmp_path):
        path = tmp_path / "ri.txt"
        path.write_text("# n ri samples seed\n4 0.9 1000 1\n5 1.1 1000 1\n4 0.5 1000 1\n")
        with pytest.raises(ValueError) as info:
            RiTable.from_file(path)
        assert str(info.value) == f"{path}:4: order 4 repeats line 2"

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "ri.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            RiTable.from_file(path)

    def test_supplied_entries_stay_supplied(self, tmp_path):
        path = tmp_path / "ri.txt"
        RiTable.supplied({3: 0.52, 4: 0.89}).to_file(path)
        again = RiTable.from_file(path)
        assert dict(again.values) == {3: 0.52, 4: 0.89}
        assert [again.provenance_of(n).describe() for n in (3, 4)] == ["supplied"] * 2

    def test_shipped_table_loads_unchanged(self, tmp_path):
        path = tmp_path / "ri.txt"
        default_ri_table().to_file(path)
        shipped = resources.files("pcmkit").joinpath("data/ri_table.txt").read_text()
        assert path.read_text() == shipped
        again = RiTable.from_file(path)
        assert {n: again.provenance_of(n) for n in again.orders} == dict(
            default_ri_table().provenance)

    @pytest.mark.parametrize("line", ["4 0.9 -1 5", "4 0.9 1000 -5"])
    def test_rejects_negative_samples_or_seed(self, tmp_path, line):
        path = tmp_path / "ri.txt"
        path.write_text(f"# n ri samples seed\n3 0.5 1000 3\n{line}\n")
        with pytest.raises(ValueError) as info:
            RiTable.from_file(path)
        assert str(info.value) == f"{path}:3: samples and seed must be non-negative"

    @pytest.mark.parametrize("samples", [0, 1, 1000, 2**63])
    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_every_provenance_survives_its_own_file(self, tmp_path, samples, seed):
        # The file holds samples and seed only, so a provenance is those two:
        # 0 samples reads back as supplied, any other count as estimated.
        prov = RiProvenance(samples, seed)
        path = tmp_path / "ri.txt"
        RiTable({3: 0.5}, {3: prov}).to_file(path)
        again = RiTable.from_file(path).provenance_of(3)
        assert again == prov
        assert again.describe() == prov.describe()
        assert again.kind == ("estimated" if samples else "supplied")

    @pytest.mark.parametrize("samples, seed", [(-1, 0), (1000, -5)])
    def test_a_negative_provenance_cannot_be_built(self, samples, seed):
        with pytest.raises(ValueError, match="samples and seed must be non-negative"):
            RiProvenance(samples, seed)

    @pytest.mark.parametrize("ri", [-0.9, 0.0, float("nan"), float("inf")])
    def test_rejects_values_not_finite_and_positive(self, ri):
        with pytest.raises(ValueError, match="order 5"):
            RiTable.supplied({4: 0.9, 5: ri})

    @pytest.mark.parametrize("orders", [(3,), (3, 5)], ids=["missing", "other"])
    def test_rejects_values_and_provenance_of_other_orders(self, orders):
        with pytest.raises(ValueError) as info:
            RiTable({3: 0.5, 4: 0.9}, dict.fromkeys(orders, RiProvenance()))
        assert str(info.value) == (f"orders of values [3, 4] and of provenance "
                                   f"{sorted(orders)} differ")


class TestShippedTable:
    def test_covers_supported_orders(self):
        table = default_ri_table()
        assert table.orders == tuple(range(3, 16))

    def test_provenance_recorded(self):
        table = default_ri_table()
        for n in table.orders:
            p = table.provenance_of(n)
            assert p.kind == "estimated"
            assert p.samples == 1_000_000
            assert p.seed is not None

    def test_increases_over_experiment_range(self):
        table = default_ri_table()
        values = [table.ri(n) for n in range(3, 10)]
        assert values == sorted(values)

    def test_agrees_with_fresh_estimate(self):
        table = default_ri_table()
        fresh = estimate_random_index(5, 100_000, seed=914)
        assert abs(fresh - table.ri(5)) / table.ri(5) < 0.02

    def test_reproducible_from_recorded_seed(self):
        # the shipped value for one order is re-derivable from its own
        # provenance line at reduced sample count to within sampling noise
        table = default_ri_table()
        p = table.provenance_of(4)
        partial = estimate_random_index(4, 100_000, seed=p.seed)
        assert abs(partial - table.ri(4)) / table.ri(4) < 0.02


class TestRandomMatrixConsistencySpread:
    def test_random_matrices_are_usually_inconsistent(self):
        rng = np.random.default_rng(77)
        crs = [consistency_ratio(random_reciprocal(5, rng)).cr for _ in range(20)]
        assert max(crs) > 0.1
