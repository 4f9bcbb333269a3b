"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts
its criterion at the stated tolerance.  The heavyweight simulation runs
are shared module-scoped fixtures; everything here finishes in minutes.
"""

import os
import time

import numpy as np
import pytest

from pcmkit import (
    METRICS,
    SimulationConfig,
    bin_columns,
    compare_methods,
    consistency_ratio,
    default_ri_table,
    inverse_left_eigenvector,
    right_eigenvector,
    run_simulation,
    run_verification,
)
from pcmkit.cli import main
from pcmkit.core import reciprocal_from_upper
from pcmkit.montecarlo import batch_vectors

from conftest import case_matrix, cr_share_below

WORKERS = min(4, os.cpu_count() or 1)


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {name}{suffix}")
    return ok


@pytest.fixture(scope="module")
def figure2_run():
    config = SimulationConfig(dims=(4, 5, 6, 7, 8, 9), deltas=(1.0,),
                              matrices_per_cell=100_000, seed=1905)
    return run_simulation(config, default_ri_table(), workers=WORKERS)


@pytest.fixture(scope="module")
def desk_run_n6():
    config = SimulationConfig(dims=(6,), deltas=(1.0, 2.0, 3.0),
                              matrices_per_cell=100_000, seed=1906)
    return run_simulation(config, default_ri_table(), workers=WORKERS)


def _qualifying_bins(result, n):
    """Means and closer shares of the pooled bins of order n below CR 0.1
    that hold at least 1000 records, one column per bin."""
    c = bin_columns(result.config, result.order_tables[n])
    keep = ~c.overflow & (c.lower < 0.1) & (c.count >= 1000)
    return c.means[:, :, keep], c.closer[:, keep]


def test_criterion_01_published_example_suite():
    started = time.perf_counter()
    report = run_verification()
    elapsed = time.perf_counter() - started
    failures = [f"{o.case} :: {o.check} ({o.detail})" for o in report.failures]
    ok = report.all_passed and elapsed < 1.0
    _report(1, "published weight vectors reproduced at stated tolerances", ok,
            f"{len(report.outcomes) - len(failures)}/{len(report.outcomes)} in {elapsed:.3f}s")
    assert ok, (
        f"every published check must pass within 1 s (took {elapsed:.3f}s); "
        "failing checks:\n  " + "\n  ".join(failures)
    )


def test_criterion_02_consistency_ratio_oracles():
    expectations = [
        ("four-alternative-reversal", 0.331, 0.01),
        ("five-alternative-acceptable", 0.082, 0.005),
        ("minimal-inconsistency-reversal", 0.0007, 0.0005),
        ("fully-reversed-ranking", 0.078, 0.005),
        ("distant-priority-reversal", 0.0993, 0.003),
    ]
    details = []
    ok = True
    for name, expected, tolerance in expectations:
        cr = consistency_ratio(case_matrix(name)).cr
        good = abs(cr - expected) <= tolerance
        ok = ok and good
        details.append(f"{name}: {cr:.5f} vs {expected}")
    _report(2, "consistency ratios match published values", ok, "; ".join(details))
    assert ok


def test_criterion_03_rank_reversal_witnesses():
    problems = []

    m = case_matrix("four-alternative-reversal")
    w = right_eigenvector(m).weights.priorities
    inv = inverse_left_eigenvector(m).priorities
    if not (w[3] > w[0] and inv[0] > inv[3]):
        problems.append("four-alternative flip of 1 and 4 missing")

    m = case_matrix("minimal-inconsistency-reversal")
    w = right_eigenvector(m).weights.priorities
    inv = inverse_left_eigenvector(m).priorities
    cr = consistency_ratio(m).cr
    if not ((w[0] - w[2]) * (inv[0] - inv[2]) < 0 and abs(cr - 0.0007) <= 0.0005):
        problems.append("near-consistent flip of 1 and 3 missing")

    m = case_matrix("fully-reversed-ranking")
    w = right_eigenvector(m).weights.priorities
    inv = inverse_left_eigenvector(m).priorities
    if compare_methods(m).value("kendall", "inverse_left") != -1.0:
        problems.append("fully reversed ranking not at kendall -1")
    if tuple(np.argsort(-w)) != (2, 4, 0, 3, 1) or tuple(np.argsort(-inv)) != (1, 3, 0, 4, 2):
        problems.append("reversed orders differ from published ones")

    m = case_matrix("distant-priority-reversal")
    w = right_eigenvector(m).weights.priorities * 100
    inv = inverse_left_eigenvector(m).priorities * 100
    if int(np.argmax(w)) != 4 or int(np.argmax(inv)) != 1:
        problems.append("distant-priority top reversal missing")
    if not (abs(abs(w[1] - w[4]) - 4.85) <= 0.05 and abs(abs(inv[1] - inv[4]) - 4.44) <= 0.05):
        problems.append("distant-priority weight gaps off")

    ok = not problems
    _report(3, "rank-reversal witnesses", ok, "; ".join(problems) or "all four examples")
    assert ok, problems


def test_criterion_04_three_alternative_reciprocity():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    count, n = 10_000, 3
    upper = np.exp(rng.uniform(-np.log(9.0), np.log(9.0), size=(count, n * (n - 1) // 2)))
    mats = reciprocal_from_upper(upper.T, n)
    wr, inv, _, _, _, ok_mask = batch_vectors(mats)
    worst = float(np.max(np.abs(inv - wr)))
    elapsed = time.perf_counter() - started
    ok = bool(ok_mask.all()) and worst < 1e-9 and elapsed < 10.0
    _report(4, "inverse-left equals right for all 3x3 matrices", ok,
            f"max gap {worst:.2e} over {count} matrices in {elapsed:.1f}s")
    assert ok


def test_criterion_05_consistent_matrix_degeneracy():
    rng = np.random.default_rng(505)
    table = default_ri_table()
    worst_vec = worst_lam = 0.0
    worst_cr = 0.0
    for n in range(4, 10):
        w = rng.uniform(1.0, 9.0, size=(1000, n))
        w /= w.sum(axis=1, keepdims=True)
        mats = w[:, :, None] / w[:, None, :]
        ii = np.arange(n)
        mats[:, ii, ii] = 1.0
        wr, inv, combined, rgm, lam, ok_mask = batch_vectors(mats.transpose(1, 2, 0))
        assert ok_mask.all()
        squared = w * w
        squared /= squared.sum(axis=1, keepdims=True)
        worst_vec = max(worst_vec,
                        float(np.max(np.abs(wr - w.T))),
                        float(np.max(np.abs(inv - w.T))),
                        float(np.max(np.abs(rgm - w.T))),
                        float(np.max(np.abs(combined - squared.T))))
        worst_lam = max(worst_lam, float(np.max(np.abs(lam - n))))
        ci = (lam - n) / (n - 1)
        ci = np.where(np.abs(ci) < 1e-9, 0.0, ci)
        worst_cr = max(worst_cr, float(np.max(np.abs(ci / table.ri(n)))))
    ok = worst_vec < 1e-9 and worst_lam < 1e-9 and worst_cr == 0.0
    _report(5, "consistent matrices degenerate to their generators", ok,
            f"max vector gap {worst_vec:.2e}, max lambda gap {worst_lam:.2e}")
    assert ok


def test_criterion_06_generator_inconsistency_profile(figure2_run):
    shares = {n: cr_share_below(figure2_run, n, 1.0, 0.1)
              for n in (4, 5, 6, 7, 8, 9)}
    ok = all(shares[n] >= 0.99 for n in (5, 6, 7, 8, 9)) and shares[4] < 0.99
    detail = ", ".join(f"n={n}: {s:.4f}" for n, s in shares.items())
    _report(6, "unit-noise matrices stay acceptably consistent (except n=4)", ok, detail)
    assert ok, shares


def test_criterion_07_row_geometric_mean_midpoint(desk_run_n6):
    means, _ = _qualifying_bins(desk_run_n6, 6)
    euclidean = means[METRICS.index("euclidean")]
    ratios = (euclidean[2] / euclidean[0]).tolist()
    ok = len(ratios) > 0 and all(0.40 <= r <= 0.60 for r in ratios)
    detail = f"{len(ratios)} bins, ratio range [{min(ratios):.3f}, {max(ratios):.3f}]" if ratios else "no bins"
    _report(7, "row geometric mean sits midway between the eigenvectors", ok, detail)
    assert ok, ratios


def test_criterion_08_closer_probabilities(desk_run_n6):
    _, closer = _qualifying_bins(desk_run_n6, 6)
    euc, cheb, ken = (closer[METRICS.index(m)].tolist()
                      for m in ("euclidean", "chebyshev", "kendall"))
    bins = closer.shape[1]
    ok = (bins > 0 and min(euc) >= 0.95 and min(cheb) >= 0.99 and min(ken) >= 0.95)
    detail = (f"{bins} bins; min closer-prob euclidean {min(euc):.4f}, "
              f"chebyshev {min(cheb):.4f}, kendall {min(ken):.4f}") if bins else "no bins"
    _report(8, "row geometric mean is almost always the closer vector", ok, detail)
    assert ok


def test_criterion_09_worker_determinism(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("dims=4,5\ndeltas=1,2\ncounts=4000\nseed=42\n")
    outputs = {}
    for workers in (1, 2, 8):
        out_dir = tmp_path / f"w{workers}"
        assert main(["simulate", str(config), "--out", str(out_dir),
                     "--workers", str(workers)]) == 0
        outputs[workers] = {
            p.name: p.read_bytes() for p in out_dir.iterdir() if p.name.endswith(".csv")
        }
    ok = outputs[1] == outputs[2] == outputs[8] and len(outputs[1]) == 9
    _report(9, "identical CSV bytes for 1, 2, and 8 workers", ok,
            f"{len(outputs[1])} csv files compared")
    assert ok


def test_criterion_10_eigen_oracle_equivalence():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for n in (4, 5):
        iu, ju = np.triu_indices(n, 1)
        upper = np.exp(rng.uniform(-np.log(9.0), np.log(9.0), size=(1000, len(iu))))
        mats = np.ones((1000, n, n))
        mats[:, iu, ju] = upper
        mats[:, ju, iu] = 1.0 / upper

        wr, _, _, _, _, ok_mask = batch_vectors(mats.transpose(1, 2, 0))
        assert ok_mask.all()

        # brute-force oracle: 60 repeated squarings, i.e. the 2^60-th power,
        # applied to the uniform vector
        b = mats.copy()
        for _ in range(60):
            b = np.matmul(b, b)
            b /= b.max(axis=(1, 2), keepdims=True)
        v = np.matmul(b, np.full((1000, n, 1), 1.0 / n))[:, :, 0]
        oracle = v / v.sum(axis=1, keepdims=True)
        worst = max(worst, float(np.max(np.abs(wr - oracle.T))))
    ok = worst < 1e-8
    _report(10, "power iteration matches repeated-squaring oracle", ok,
            f"max componentwise gap {worst:.2e} over 2000 matrices")
    assert ok
