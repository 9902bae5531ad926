"""Tests for the calibration verdict, isotonicity test, and binned chi-square."""

from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import calband.diagnostics
from _reference import (
    crossing_regions_loop,
    isotonicity_pvalue_by_rebuilds,
    miscalibrated_regions_loop,
    random_sorted_data,
    segments,
)
from calband.bands import (
    StepBand,
    evaluate_band,
    full_index_family,
    raw_band,
    rounded_index_family,
)
from calband.diagnostics import (
    calibration_verdict,
    hosmer_lemeshow,
    isotonicity_pvalue,
    isotonicity_report,
)
from calband.isotonic import build_sorted_data


def _data(x, y):
    return build_sorted_data(np.column_stack((np.asarray(x, float), np.asarray(y, float))))


def _band(knots, lower, upper):
    return StepBand(
        knots=np.asarray(knots, float),
        lower_levels=np.asarray(lower, float),
        upper_levels=np.asarray(upper, float),
    )


def _gamma(d, fam, alpha):
    return isotonicity_report(d, fam, raw_band(d, fam, alpha), alpha).gamma_hat


def _piece_overlap(band):
    """Largest lower minus upper over the knots and the open pieces between."""
    return max(low - up for *_, low, up in segments(band, band.knots[0], band.knots[-1]))


def _two_block_data(m):
    """m successes at x=0.25 followed by m failures at x=0.75."""
    x = [0.25] * m + [0.75] * m
    y = [1] * m + [0] * m
    return _data(x, y)


# ---------------------------------------------------------------------------
# calibration verdict


def test_verdict_accepts_band_containing_diagonal():
    band = _band([0.2, 0.5, 0.8], [0.0, 0.1, 0.3], [0.7, 0.9, 1.0])
    v = calibration_verdict(band)
    assert not v.classical_reject
    assert v.miscalibrated_regions == []
    assert v.epsilon_certificate == 0.0


def test_verdict_reports_lower_violations_with_margin():
    band = _band([0.3, 0.6], [0.5, 0.7], [0.8, 0.9])
    v = calibration_verdict(band)
    assert v.classical_reject
    assert v.miscalibrated_regions == [(0.3, 0.5), (0.6, 0.7)]
    assert v.epsilon_certificate == pytest.approx(0.2, abs=1e-15)


def test_verdict_reports_upper_violation_reaching_into_gap():
    band = _band([0.5], [0.3], [0.4])
    v = calibration_verdict(band)
    assert v.classical_reject
    assert v.miscalibrated_regions == [(0.4, 0.5)]
    assert v.epsilon_certificate == pytest.approx(0.1, abs=1e-15)


def test_verdict_merges_touching_violation_pieces():
    # the point violation at the first knot joins the open piece after it,
    # which runs until the diagonal reaches that knot's lower level
    band = _band([0.3, 0.9], [0.45, 0.5], [0.95, 1.0])
    v = calibration_verdict(band)
    assert v.miscalibrated_regions == [(0.3, 0.45)]


def test_verdict_rejects_band_outside_unit_interval():
    band = _band([0.5, 1.2], [0.1, 0.2], [0.6, 0.9])
    with pytest.raises(ValueError, match="general covariates"):
        calibration_verdict(band)


def test_verdict_agrees_with_dense_grid_scan():
    rng = np.random.default_rng(113)
    grid = np.linspace(0.0, 1.0, 10001)
    checked = 0
    for trial in range(25):
        n = int(rng.integers(5, 80))
        d = random_sorted_data(rng, n)
        band = raw_band(d, full_index_family(d), alpha=0.2)
        v = calibration_verdict(band)
        lo, up = evaluate_band(band, grid, extrapolate=True)
        flagged = (grid < lo - 1e-12) | (grid > up + 1e-12)
        inside = np.zeros_like(flagged)
        for a, b in v.miscalibrated_regions:
            inside |= (grid >= a - 1e-9) & (grid <= b + 1e-9)
        assert not (flagged & ~inside).any()
        for a, b in v.miscalibrated_regions:
            t = a if a == b else 0.5 * (a + b)
            tl, tu = evaluate_band(band, float(t), extrapolate=True)
            assert t < tl or t > tu
        eps_grid = float(np.maximum(np.maximum(lo - grid, grid - up), 0.0).max())
        # margin functions are 1-Lipschitz, so the grid misses at most the gap
        assert v.epsilon_certificate >= eps_grid - 1e-12
        assert v.epsilon_certificate <= eps_grid + 1.1e-4
        checked += bool(v.miscalibrated_regions)
    assert checked > 0  # the sweep exercised actual rejections


def test_regions_match_the_piece_loops_on_coarse_grids():
    # levels and knots on a coarse grid tie with each other and with the
    # diagonal, which exercises every touching and inclusion rule
    rng = np.random.default_rng(139)
    regions = crossings = 0
    for _ in range(2000):
        grid = int(rng.choice([4, 5, 8, 10]))
        knots = np.unique(rng.integers(0, grid + 1, size=int(rng.integers(1, 12))) / grid)
        n = knots.shape[0]
        lower = np.sort(rng.integers(0, grid + 1, size=n) / grid)
        upper = np.sort(rng.integers(0, grid + 1, size=n) / grid)
        if rng.random() < 0.4:
            upper = np.maximum(upper, lower)
        elif rng.random() < 0.3:
            upper = lower.copy()
        band = _band(knots, lower, upper)
        want = miscalibrated_regions_loop(band)
        got = calibration_verdict(band).miscalibrated_regions
        assert got == want
        assert all(type(v) is float for r in got for v in r)
        want = crossing_regions_loop(band)
        assert calband.diagnostics._crossing_regions(band) == want
        assert calband.diagnostics._crossing_gap(band) == _piece_overlap(band)
        regions += len(got)
        crossings += len(want)
    assert regions > 1000 and crossings > 300


# ---------------------------------------------------------------------------
# isotonicity test


def test_pvalue_one_for_monotone_data():
    d = _data(np.linspace(0.1, 0.9, 6), [0, 0, 0, 1, 1, 1])
    assert isotonicity_pvalue(d, full_index_family(d)) == 1.0


def test_pvalue_zero_for_gross_violation():
    d = _two_block_data(200)
    assert isotonicity_pvalue(d, full_index_family(d)) == 0.0


def test_pvalue_matches_closed_form_threshold():
    # two blocks of 12: the first crossing happens where delta^(1/12)
    # passes 1/2, i.e. alpha = 6 * 2^-12
    d = _two_block_data(12)
    fam = full_index_family(d)
    p = isotonicity_pvalue(d, fam)
    assert p == pytest.approx(6.0 * 2.0**-12, abs=1e-4)
    assert _gamma(d, fam, p + 5e-4) > 0.0
    assert _gamma(d, fam, max(p - 5e-4, 1e-6)) == 0.0


def test_pvalue_matches_bisection_by_band_rebuilds():
    path = Path(__file__).resolve().parent / "data" / "crossing.csv"
    datasets = [
        _data(*np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)),
        _two_block_data(12),
        _two_block_data(200),
        _data(np.linspace(0.1, 0.9, 6), [0, 0, 0, 1, 1, 1]),
    ]
    rng = np.random.default_rng(149)
    datasets += [random_sorted_data(rng, int(rng.integers(5, 80))) for _ in range(6)]
    pvalues = set()
    for d in datasets:
        for fam in (full_index_family(d), rounded_index_family(d, 20)):
            p = isotonicity_pvalue(d, fam)
            assert p == isotonicity_pvalue_by_rebuilds(d, fam)
            pvalues.add(0.0 if p == 0.0 else 1.0 if p == 1.0 else 0.5)
    assert pvalues == {0.0, 0.5, 1.0}


def test_gamma_closed_form_two_blocks():
    # lower bound delta^(1/12) faces upper bound 1 - delta^(1/12)
    d = _two_block_data(12)
    delta = 0.05 / 6.0
    want = 0.5 * (2.0 * delta ** (1.0 / 12.0) - 1.0)
    got = _gamma(d, full_index_family(d), alpha=0.05)
    assert got == pytest.approx(want, abs=1e-9)


def test_gamma_zero_without_crossing():
    d = _data(np.linspace(0.1, 0.9, 6), [0, 0, 1, 0, 1, 1])
    assert _gamma(d, full_index_family(d), alpha=0.05) == 0.0


def test_gamma_validates_alpha():
    d = _two_block_data(3)
    fam = full_index_family(d)
    band = raw_band(d, fam, 0.05)
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            isotonicity_report(d, fam, band, bad)


def test_report_bundles_consistent_fields():
    d = _two_block_data(12)
    fam = full_index_family(d)
    band = raw_band(d, fam, 0.05)
    rep = isotonicity_report(d, fam, band, alpha=0.05)
    assert rep.alpha == 0.05
    assert rep.p_value < 0.05
    assert rep.gamma_hat == 0.5 * _piece_overlap(band) > 0.0
    assert rep.crossing_regions == [(0.25, 0.75)]


def test_report_clean_data_has_empty_regions():
    d = _data(np.linspace(0.1, 0.9, 8), [0, 0, 0, 0, 1, 1, 1, 1])
    fam = full_index_family(d)
    rep = isotonicity_report(d, fam, raw_band(d, fam, 0.05), alpha=0.05)
    assert rep.p_value == 1.0
    assert rep.gamma_hat == 0.0
    assert rep.crossing_regions == []


def test_non_crossing_band_skips_the_segment_list(monkeypatch):
    def no_pieces(*args):
        raise AssertionError("pieces built for a band that does not cross")

    monkeypatch.setattr(calband.diagnostics, "_pieces", no_pieces)
    d = _data(np.linspace(0.1, 0.9, 8), [0, 0, 0, 0, 1, 1, 1, 1])
    fam = full_index_family(d)
    assert isotonicity_report(d, fam, raw_band(d, fam, 0.05), 0.05).crossing_regions == []
    # levels that touch, at a knot and across a gap, do not cross
    touching = StepBand(
        knots=np.array([0.2, 0.5, 0.8]),
        lower_levels=np.array([0.3, 0.4, 0.6]),
        upper_levels=np.array([0.3, 0.4, 0.7]),
    )
    assert calband.diagnostics._crossing_regions(touching) == []


def test_crossing_signals_agree_across_random_data():
    rng = np.random.default_rng(127)
    datasets = [random_sorted_data(rng, int(rng.integers(4, 60))) for _ in range(20)]
    datasets += [_two_block_data(m) for m in (8, 12, 40)]
    crossings = 0
    for d in datasets:
        fam = full_index_family(d)
        rep = isotonicity_report(d, fam, raw_band(d, fam, 0.3), alpha=0.3)
        has_regions = bool(rep.crossing_regions)
        assert has_regions == (rep.gamma_hat > 0.0)
        if has_regions:
            assert rep.p_value <= 0.3 + 1e-3
        else:
            assert rep.p_value >= 0.3 - 1e-3
        crossings += has_regions
    assert 3 <= crossings < len(datasets)


# ---------------------------------------------------------------------------
# binned chi-square


def test_hosmer_lemeshow_hand_computed_three_bins():
    x = [0.2] * 3 + [0.5] * 3 + [0.8] * 3
    y = [1, 0, 0, 1, 0, 0, 1, 1, 0]
    res = hosmer_lemeshow(_data(x, y), g=3)
    assert res.statistic == pytest.approx(1.0, abs=1e-12)
    assert res.p_value == pytest.approx(scipy.stats.chi2.sf(1.0, 1), abs=1e-12)


def test_hosmer_lemeshow_pushes_ties_into_lower_bin():
    x = [0.2, 0.2, 0.2, 0.2, 0.8, 0.8]
    y = [1, 0, 0, 0, 1, 1]
    res = hosmer_lemeshow(_data(x, y), g=2)
    # the tie run at 0.2 stays whole, so bins are 4 + 2 observations
    assert res.statistic == pytest.approx(0.0625 + 0.5, abs=1e-12)
    # two bins leave 0 degrees of freedom
    assert res.p_value is None


def test_hosmer_lemeshow_warns_when_bins_collapse():
    x = [0.5] * 5 + [0.9]
    y = [1, 0, 1, 0, 1, 1]
    with pytest.warns(UserWarning, match="reduced"):
        res = hosmer_lemeshow(_data(x, y), g=3)
    assert np.isfinite(res.statistic)


def test_hosmer_lemeshow_degenerate_expected_counts():
    with pytest.raises(ValueError, match="bin 1"):
        hosmer_lemeshow(_data([0.0, 0.0, 0.5, 0.5], [0, 1, 1, 0]), g=2)
    with pytest.raises(ValueError, match="bin 2"):
        hosmer_lemeshow(_data([0.5, 0.5, 1.0, 1.0], [0, 1, 1, 0]), g=2)


def test_hosmer_lemeshow_needs_two_usable_bins():
    with pytest.raises(ValueError, match="fewer than 2"):
        hosmer_lemeshow(_data([0.5] * 6, [1, 0, 1, 0, 1, 0]), g=3)


def test_hosmer_lemeshow_validates_shape_arguments():
    d = _data([0.2, 0.4, 0.6], [0, 1, 1])
    with pytest.raises(ValueError, match="at least 2 bins"):
        hosmer_lemeshow(d, g=1)
    with pytest.raises(ValueError, match="observations"):
        hosmer_lemeshow(d, g=10)


def test_hosmer_lemeshow_pvalue_matches_chi_square_tail():
    rng = np.random.default_rng(131)
    x = np.sort(rng.uniform(0.05, 0.95, size=200))
    y = (rng.random(200) < x).astype(float)
    res = hosmer_lemeshow(_data(x, y), g=10)
    assert res.p_value == pytest.approx(
        scipy.stats.chi2.sf(res.statistic, 8), abs=1e-12
    )
