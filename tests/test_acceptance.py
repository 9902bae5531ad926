"""Acceptance gate: ten end-to-end checks that qualify a build.

One test per release criterion, each with pinned seeds and the agreed
tolerance or budget, printing a one-line verdict with the measured
numbers (visible under ``pytest -s`` and in failure reports). The
per-module files cover the same ground at unit granularity and run in
seconds; this file re-derives everything from scratch and takes several
minutes, most of it in the Monte Carlo criteria 6 to 8.
"""

import pathlib
import time

import numpy as np

from _reference import (
    cp_lower_by_inversion,
    cp_upper_by_inversion,
    naive_raw_band,
    naive_yb_band,
    pava_exhaustive,
    random_sorted_data,
)
from calband import (
    RegressionFamily,
    build_sorted_data,
    cp_bounds_batch,
    cp_lower,
    cp_upper,
    full_index_family,
    noncrossing_band,
    pava,
    raw_band,
    rounded_index_family,
    run_experiment,
    yb_band,
)
from calband.cli import main

DATA = pathlib.Path(__file__).parent / "data"

# delta values a band construction actually feeds the bound routines:
# two everyday confidence levels plus the Bonferroni share of alpha=0.05
# for the full pair family on 100 tie groups.
BOUND_DELTAS = (0.05, 0.01, 0.05 / (100 * 100 + 100))


def _bound_grid():
    for delta in BOUND_DELTAS:
        for m in range(1, 41):
            for z in range(m + 1):
                yield z, m, delta


def test_criterion_01_exact_binomial_bounds_match_cdf_inversion():
    """cp_upper/cp_lower agree with direct bisection of the binomial CDF.

    The oracle inverts a plain-summation CDF, sharing no code with the
    incomplete-beta route the library takes.
    """
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for z, m, delta in _bound_grid():
        worst = max(
            worst,
            abs(cp_upper(z, m, delta) - cp_upper_by_inversion(z, m, delta)),
            abs(cp_lower(z, m, delta) - cp_lower_by_inversion(z, m, delta)),
        )
        points += 1
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 1: max |bound - inversion| = {worst:.3e} over "
        f"{points} (z, m, delta) points in {elapsed:.1f}s (budget 10s)"
    )
    assert worst <= 1e-9, f"worst deviation {worst:.3e} exceeds 1e-9"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_02_hoeffding_envelope_contains_exact_bounds():
    """Exact bounds sit inside z/m +- sqrt(log(1/delta)/(2m)), no slack.

    Checks the batch path band construction uses; criterion 1 ties the
    same route, through the scalar API, to the independent oracle.
    """
    violations = 0
    slack = np.inf
    for delta in BOUND_DELTAS:
        ms = np.concatenate([np.full(m + 1, m) for m in range(1, 41)])
        zs = np.concatenate([np.arange(m + 1) for m in range(1, 41)])
        lo, up = cp_bounds_batch(zs, ms, delta)
        mean = zs / ms
        envelope = np.sqrt(np.log(1.0 / delta) / (2.0 * ms))
        violations += int((lo < mean - envelope).sum())
        violations += int((up > mean + envelope).sum())
        slack = min(slack, (lo - (mean - envelope)).min())
        slack = min(slack, ((mean + envelope) - up).min())
    print(
        f"criterion 2: {violations} envelope violations, "
        f"tightest margin {slack:.3e}"
    )
    assert violations == 0


def test_criterion_03_isotonic_fit_matches_exhaustive_search_and_block_count():
    """PAVA equals brute-force partition search; block counts stay o(n).

    The fitted step function of n binary observations takes fewer than
    3 * n^(2/3) distinct values, which is what makes the narrower-band
    candidate pruning worthwhile.
    """
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(500):
        d = random_sorted_data(rng, int(rng.integers(1, 13)))
        worst = max(
            worst, np.abs(pava(d).group_levels() - pava_exhaustive(d)).max()
        )
    assert worst <= 1e-12, f"worst fit deviation {worst:.3e}"

    worst_ratio = 0.0
    for n in (100, 1000, 10000):
        bound = 3.0 * n ** (2.0 / 3.0)
        for _ in range(100):
            d = random_sorted_data(rng, n)
            count = np.unique(pava(d).group_levels()).size
            worst_ratio = max(worst_ratio, count / bound)
            assert count < bound, f"{count} fitted values at n={n}"
    print(
        f"criterion 3: max fit deviation {worst:.3e} on 500 small datasets; "
        f"block count at most {worst_ratio:.0%} of the 3n^(2/3) bound"
    )


def test_criterion_04_band_sweeps_match_naive_double_loops():
    """Sweep-optimized bands reproduce the per-knot double loops exactly."""
    rng = np.random.default_rng(4)
    alphas = (0.01, 0.05, 0.1, 0.3)
    datasets = 200
    for i in range(datasets):
        d = random_sorted_data(rng, int(rng.integers(1, 201)))
        alpha = alphas[int(rng.integers(len(alphas)))]
        if i % 2:
            fam = rounded_index_family(d, K=int(rng.choice([7, 100, 1000])))
        else:
            fam = full_index_family(d)
        fast = raw_band(d, fam, alpha)
        ref = naive_raw_band(d, fam, alpha)
        np.testing.assert_array_equal(fast.lower_levels, ref.lower_levels)
        np.testing.assert_array_equal(fast.upper_levels, ref.upper_levels)

        fit = pava(d)
        fast_yb = yb_band(d, fit, alpha)
        ref_yb = naive_yb_band(d, fit, alpha)
        np.testing.assert_array_equal(fast_yb.lower_levels, ref_yb.lower_levels)
        np.testing.assert_array_equal(fast_yb.upper_levels, ref_yb.upper_levels)
    print(
        f"criterion 4: raw and yb sweeps exact on {datasets} datasets "
        f"(alternating full/rounded families)"
    )


def test_criterion_05_band_nesting_across_methods():
    """raw sits inside nc sits inside yb at every knot, no tolerance.

    Equalities do occur (nc reuses raw's arrays where no repair is
    needed, and both clip to the same 0.0/1.0 constants), so exact
    comparisons are the right strictness.
    """
    rng = np.random.default_rng(20260816)
    datasets = 1000
    worst_lo = np.inf
    worst_up = np.inf
    for _ in range(datasets):
        d = random_sorted_data(rng, int(rng.integers(1, 501)))
        fit = pava(d)
        raw = raw_band(d, full_index_family(d), alpha=0.05)
        nc = noncrossing_band(raw, fit)
        yb = yb_band(d, fit, alpha=0.05)
        assert (nc.lower_levels <= raw.lower_levels).all()
        assert (raw.upper_levels <= nc.upper_levels).all()
        assert (yb.lower_levels <= nc.lower_levels).all()
        assert (nc.upper_levels <= yb.upper_levels).all()
        worst_lo = min(worst_lo, (nc.lower_levels - yb.lower_levels).min())
        worst_up = min(worst_up, (yb.upper_levels - nc.upper_levels).min())
    print(
        f"criterion 5: nesting exact on {datasets} datasets, smallest "
        f"yb-vs-nc gaps {worst_lo:.1e} (lower) / {worst_up:.1e} (upper)"
    )


def test_criterion_06_simultaneous_coverage_at_small_sample():
    """Raw band holds its nominal level with n=512 on gentle truths."""
    lines = []
    for kind in ("monomial", "kink"):
        t0 = time.perf_counter()
        result = run_experiment(
            RegressionFamily(kind, 0.5),
            n=512,
            alpha=0.05,
            methods=("raw",),
            index_family="rounded",
            K=1000,
            reps=200,
            base_seed=0,
        )["raw"]
        elapsed = time.perf_counter() - t0
        lines.append(
            f"{kind} coverage {result.coverage_rate:.3f} in {elapsed:.0f}s"
        )
        assert result.coverage_rate >= 0.95, (
            f"{kind}: coverage {result.coverage_rate:.3f} below 0.95"
        )
        assert elapsed < 120.0, f"{kind}: took {elapsed:.0f}s, budget 120s"
    print(f"criterion 6: {'; '.join(lines)} (budget 120s per cell)")


def test_criterion_07_isotonicity_test_power_and_size():
    """Band-crossing test rejects a clearly non-isotonic truth and spares
    an isotonic one at n=2048."""
    t0 = time.perf_counter()
    rates = {}
    for s in (1.0, 0.5):
        result = run_experiment(
            RegressionFamily("wave", s),
            n=2048,
            alpha=0.05,
            methods=("raw",),
            index_family="rounded",
            K=1000,
            reps=200,
            base_seed=0,
        )["raw"]
        rates[s] = result.rejection_rate
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7: rejection rate {rates[1.0]:.3f} at s=1.0 "
        f"(window [0.72, 0.90]), {rates[0.5]:.3f} at s=0.5 (cap 0.02), "
        f"{elapsed:.0f}s total (budget 300s)"
    )
    assert 0.72 <= rates[1.0] <= 0.90, f"power {rates[1.0]:.3f} out of window"
    assert rates[0.5] <= 0.02, f"size {rates[0.5]:.3f} above 0.02"
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"


def test_criterion_08_width_shrinks_with_n_and_nc_narrower_than_yb():
    """nc mean width at x=0.5 falls as n grows and never exceeds yb's.

    Both methods are built in one run on identical datasets, so the width
    comparison holds rep by rep and survives averaging exactly.
    """
    mid_widths = []
    worst_gap = np.inf
    for n in (512, 2048, 8192):
        runs = run_experiment(
            RegressionFamily("monomial", 0.5),
            n=n,
            alpha=0.05,
            methods=("nc", "yb"),
            index_family="rounded",
            K=1000,
            reps=100,
            base_seed=0,
        )
        assert runs["nc"].width_grid[50] == 0.5
        mid_widths.append(runs["nc"].mean_width[50])
        gap = runs["yb"].mean_width - runs["nc"].mean_width
        worst_gap = min(worst_gap, gap.min())
        assert (gap >= 0.0).all(), f"nc wider than yb somewhere at n={n}"
    print(
        f"criterion 8: nc width at 0.5 = "
        f"{', '.join(f'{w:.4f}' for w in mid_widths)} over n=512/2048/8192; "
        f"smallest yb-minus-nc mean-width gap {worst_gap:.4f}"
    )
    assert mid_widths[0] > mid_widths[1] > mid_widths[2], (
        f"mean widths not decreasing: {mid_widths}"
    )


def test_criterion_09_band_construction_time_budgets():
    """Rounded band is interactive at n=16384; full band tolerable at 4096."""
    rng = np.random.default_rng(9)

    x = rng.random(16384)
    y = (rng.random(16384) < x).astype(np.float64)
    data = build_sorted_data(np.column_stack((x, y)))
    t0 = time.perf_counter()
    band = raw_band(data, rounded_index_family(data, K=1000), alpha=0.05)
    rounded_dt = time.perf_counter() - t0
    assert band.knots.shape == data.distinct_x.shape

    x = rng.random(4096)
    y = (rng.random(4096) < x).astype(np.float64)
    data = build_sorted_data(np.column_stack((x, y)))
    t0 = time.perf_counter()
    band = raw_band(data, full_index_family(data), alpha=0.05)
    full_dt = time.perf_counter() - t0
    assert band.knots.shape == data.distinct_x.shape

    print(
        f"criterion 9: rounded K=1000 at n=16384 in {rounded_dt:.2f}s "
        f"(budget 5s); full at n=4096 in {full_dt:.2f}s (budget 60s)"
    )
    assert rounded_dt < 5.0, f"rounded build took {rounded_dt:.2f}s"
    assert full_dt < 60.0, f"full build took {full_dt:.2f}s"


def test_criterion_10_cli_outputs_reproducible(monkeypatch, capsys, tmp_path):
    """Golden CLI outputs reproduce byte for byte; simulate is seeded."""
    monkeypatch.chdir(DATA)

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def norm(text):
        return text.replace("\r\n", "\n")

    small = ["band", "demo_small.csv", "--alpha", "0.1", "--index-family", "full"]
    code, out = run(small)
    assert code == 0
    assert norm(out) == norm((DATA / "golden_band_small.json").read_text())

    code, out = run(["band", "demo.csv"])
    assert code == 0
    assert norm(out) == norm((DATA / "golden_band_demo.json").read_text())

    out_path = tmp_path / "band.csv"
    code, _ = run(small + ["--format", "csv", "--output", str(out_path)])
    assert code == 0
    assert norm(out_path.read_text()) == norm(
        (DATA / "golden_band_small.csv").read_text()
    )
    sidecar = tmp_path / "band.diagnostics.json"
    assert norm(sidecar.read_text()) == norm(
        (DATA / "golden_band_small_diag.json").read_text()
    )

    plot = tmp_path / "plot.svg"
    code, _ = run(small + ["--plot", str(plot)])
    assert code == 0
    assert norm(plot.read_text()) == norm((DATA / "golden_small.svg").read_text())

    argv = [
        "simulate", "--family", "monomial", "--s", "0.5", "--n", "256",
        "--reps", "5", "--seed", "7",
    ]
    code, first = run(argv)
    assert code == 0
    code, second = run(argv)
    assert code == 0
    assert first == second
    print(
        "criterion 10: 5 golden files byte-identical; "
        "simulate output unchanged across reruns"
    )
