"""Tests for the calibration verdict, isotonicity test, and binned chi-square."""

import itertools
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import calband.bands as bands_module
import calband.diagnostics
from _reference import (
    crossing_regions_loop,
    dip_data,
    hosmer_lemeshow_loop,
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
    _crossing_gap,
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


def test_verdict_reads_its_regions_from_a_wider_band():
    # the regions come from the wider band, here the band with its levels
    # rounded outward; classical_reject and the certificate stay the band's,
    # also when the wider band holds the diagonal everywhere
    band = _band([0.3, 0.6], [0.5000000000001, 0.7], [0.8, 0.9])
    wider = _band([0.3, 0.6], [0.5, 0.69], [0.8, 0.9])
    v = calibration_verdict(band, wider)
    assert v.miscalibrated_regions == [(0.3, 0.5), (0.6, 0.69)]
    assert v.classical_reject
    assert v.epsilon_certificate == calibration_verdict(band).epsilon_certificate
    band = _band([0.5], [0.5000000000001], [0.6])
    v = calibration_verdict(band, _band([0.5], [0.5], [0.6]))
    assert v.classical_reject and v.epsilon_certificate > 0.0
    assert v.miscalibrated_regions == []


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


def test_regions_match_the_piece_loops_on_coarse_grids(monkeypatch):
    # levels and knots on a coarse grid tie with each other and with the
    # diagonal, which exercises every touching and inclusion rule. With a
    # chunk of a few knots most regions also run over a chunk edge, where
    # the regions of the chunks are joined. With a spill of one the levels
    # also reach a grid step outside [0, 1], which pins the rules at the
    # edges 0 and 1
    for spill, chunk in itertools.product((0, 1), (calband.diagnostics._KNOT_CHUNK, 2, 3)):
        monkeypatch.setattr(calband.diagnostics, "_KNOT_CHUNK", chunk)
        rng = np.random.default_rng(139)
        regions = crossings = 0
        for _ in range(2000):
            grid = int(rng.choice([4, 5, 8, 10]))
            size = int(rng.integers(1, 12))
            knots = np.unique(rng.integers(0, grid + 1, size=size) / grid)
            n = knots.shape[0]
            lower = np.sort(rng.integers(-spill, grid + 1 + spill, size=n) / grid)
            upper = np.sort(rng.integers(-spill, grid + 1 + spill, size=n) / grid)
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


def test_regions_join_at_a_chunk_edge_only_through_an_included_point(monkeypatch):
    # chunks of two knots: the edge falls right after the knot 0.2
    monkeypatch.setattr(calband.diagnostics, "_KNOT_CHUNK", 2)
    knots = [0.1, 0.2, 0.3, 0.4]
    # the diagonal is below the lower level 0.5 from the first knot on, and
    # the violation at the knot 0.2 joins the pieces on both sides of it
    inside = _band(knots, [0.5] * 4, [1.0] * 4)
    assert calibration_verdict(inside).miscalibrated_regions == [(0.1, 0.5)]
    crossing = _band(knots, [0.6] * 4, [0.5] * 4)
    assert calband.diagnostics._crossing_regions(crossing) == [(0.1, 0.4)]
    # the diagonal meets both levels at the knot 0.2 and only there: it is
    # below the lower level left of it and above the upper level right of
    # it, and the uncovered point keeps the two regions apart
    apart = _band(knots, [0.2] * 4, [0.2, 0.2, 0.2, 1.0])
    want = [(0.1, 0.2), (0.2, 0.3)]
    assert miscalibrated_regions_loop(apart) == want
    assert calibration_verdict(apart).miscalibrated_regions == want


def _large_band(n, margin=0.04, ripple=0.0):
    # a nondecreasing band of n knots with levels on a 1e-3 grid that the
    # diagonal leaves in many places; a ripple larger than the margin
    # lifts the lower level above the upper on many of its crests
    x = np.sort(np.random.default_rng(157).random(n))
    wave = 0.06 * np.sin(40.0 * x)
    crest = ripple * np.sin(400.0 * x)
    lower = np.maximum.accumulate(np.floor((x - margin + wave + crest) * 1e3) / 1e3)
    upper = np.maximum.accumulate(np.ceil((x + margin + wave - crest) * 1e3) / 1e3)
    return _band(x, lower, upper)


@pytest.mark.parametrize(
    "regions, shape",
    [
        (lambda band: calibration_verdict(band).miscalibrated_regions, {}),
        (calband.diagnostics._crossing_regions, {"margin": 0.001, "ripple": 0.004}),
    ],
    ids=["calibration_verdict", "_crossing_regions"],
)
def test_regions_memory_stays_within_a_chunk_budget(regions, shape):
    # the parts are built a chunk of knots at a time, so the temporaries
    # of the verdict and of the crossing regions do not grow with the
    # number of knots
    band = _large_band(200_000, **shape)
    regions(band)
    tracemalloc.start()
    try:
        found = regions(band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) > 5
    assert peak < 8e6, f"regions peak {peak / 1e6:.1f} MB"


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
    # the dip at n = 512: with K = 20 the p-value is about 3.4e-4 and the
    # crossing witness answers most probes; with the full family it is
    # about 0.24, where the probes alternate and the witness mostly fails
    datasets.append(dip_data(np.random.default_rng(3), 512))
    pvalues = set()
    for d in datasets:
        for fam in (full_index_family(d), rounded_index_family(d, 20)):
            p = isotonicity_pvalue(d, fam)
            assert p == isotonicity_pvalue_by_rebuilds(d, fam)
            pvalues.add(0.0 if p == 0.0 else 1.0 if p == 1.0 else 0.5)
    assert pvalues == {0.0, 0.5, 1.0}


def test_pvalue_probes_carry_a_crossing_witness(monkeypatch):
    # every midpoint above a small p-value crosses, and the witness the
    # last crossing left answers such a probe from two exact bounds; a
    # failed witness falls back to the full decision. Deciding every
    # probe in full takes 16 bracket passes here
    passes, checks = [], []
    levels, check = bands_module._bracket_levels, bands_module._witness_crosses

    def spy_levels(*args):
        passes.append(args[2])
        return levels(*args)

    def spy_check(*args):
        checks.append(check(*args))
        return checks[-1]

    monkeypatch.setattr(bands_module, "_bracket_levels", spy_levels)
    monkeypatch.setattr(bands_module, "_witness_crosses", spy_check)
    d = dip_data(np.random.default_rng(3), 512)
    p = isotonicity_pvalue(d, rounded_index_family(d, 20))
    assert 1e-4 < p < 1e-3
    assert len(passes) <= 8
    assert True in checks and False in checks


def test_witness_from_the_crossing_bounds_saves_bracket_passes(monkeypatch):
    # the full family on the dip at n = 512, p about 0.24: the probes
    # alternate, and each one that does not cross needs a bracket pass.
    # The witness is the pair of bounds that cross the most at the last
    # crossing; it holds at 4 of the 14 checks here, and 11 probes make a
    # bracket pass (15 with the champions' closed-form ends as witness).
    # A midpoint that does not cross settles the probe at 1e-8 unasked
    passes, checks = [], []
    levels, check = bands_module._bracket_levels, bands_module._witness_crosses

    def spy_levels(*args):
        passes.append(args[2])
        return levels(*args)

    def spy_check(*args):
        checks.append(check(*args))
        return checks[-1]

    monkeypatch.setattr(bands_module, "_bracket_levels", spy_levels)
    monkeypatch.setattr(bands_module, "_witness_crosses", spy_check)
    d = dip_data(np.random.default_rng(3), 512)
    assert 0.2 < isotonicity_pvalue(d, full_index_family(d)) < 0.3
    assert len(checks) == 14
    assert len(passes) <= 11


def test_pvalue_seeded_with_the_band_equals_the_unseeded_one():
    # the band answers the probes on its side of its alpha and seeds the
    # first probe past it with its witness; the p-value stays bit for bit
    cases = [(dip_data(np.random.default_rng(seed), 512), True) for seed in range(1, 9)]
    rng = np.random.default_rng(29)
    for n in (40, 300):
        x = rng.random(n)
        cases.append((_data(x, rng.random(n) < x**0.7), False))
    for d, dip in cases:
        families = [full_index_family(d)] + ([] if dip else [rounded_index_family(d, 20)])
        for fam in families:
            p = isotonicity_pvalue(d, fam)
            assert dip == (p < 1.0)
            for alpha in (0.01, 0.05, 0.5):
                band = raw_band(d, fam, alpha)
                assert band.alpha == alpha
                assert (band.witness is None) == (_crossing_gap(band) <= 0.0)
                assert isotonicity_pvalue(d, fam, band) == p


def test_pvalue_leaves_the_probes_on_the_bands_side_undecided(monkeypatch):
    # a crossing band answers every probe at or above its alpha, one that
    # does not cross every probe at or below it; _crosses sees the others
    asked = []
    real = calband.diagnostics._crosses

    def spy(data, family, alpha, witness=None):
        asked.append(alpha)
        return real(data, family, alpha, witness)

    monkeypatch.setattr(calband.diagnostics, "_crosses", spy)
    d = dip_data(np.random.default_rng(3), 512)
    fam = full_index_family(d)
    p = isotonicity_pvalue(d, fam)
    all_probes = len(asked)
    assert 0.2 < p < 0.5
    for alpha in (0.2, 0.5):
        band = raw_band(d, fam, alpha)
        asked.clear()
        assert isotonicity_pvalue(d, fam, band) == p
        if alpha > p:
            assert band.witness is not None
            assert asked and max(asked) < alpha
        else:
            assert band.witness is None
            assert asked and min(asked) > alpha
        assert len(asked) < all_probes


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
    # a band built at 0.05 would report its gamma and regions under 0.5
    with pytest.raises(ValueError, match="alpha=0.05"):
        isotonicity_report(d, fam, band, 0.5)


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
    def no_parts(*args):
        raise AssertionError("crossing parts built for a band that does not cross")

    monkeypatch.setattr(calband.diagnostics, "_crossing_parts", no_parts)
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


def _hl_outcome(test, data, g):
    """(result, warnings, error) of one Hosmer-Lemeshow call, comparable."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stat, p = test(data, g)
        except ValueError as exc:
            return None, [str(w.message) for w in caught], str(exc)
    # bits, so that a statistic that moved by an ulp shows
    bits = np.float64(stat).tobytes(), None if p is None else np.float64(p).tobytes()
    return bits, [str(w.message) for w in caught], None


def test_hosmer_lemeshow_cuts_match_the_tie_walking_loop():
    # random tie structures: rounded predictions, a large shared run, and
    # few distinct values, with 0 and 1 among them so that bins collapse,
    # go degenerate or leave fewer than 2
    rng = np.random.default_rng(149)
    seen = set()
    for case in range(600):
        n = int(rng.integers(2, 400))
        kind = case % 3
        if kind == 0:
            x = np.round(rng.random(n), int(rng.integers(0, 3)))
        elif kind == 1:
            x = rng.random(n)
            x[rng.random(n) < rng.random()] = rng.choice([0.0, 0.5, 1.0])
        else:
            x = rng.choice(np.array([0.0, 0.3, 0.7, 1.0])[: int(rng.integers(1, 5))], n)
        d = _data(x, rng.random(n) < x)
        for g in (2, 3, 5, 10, 17):
            want = _hl_outcome(hosmer_lemeshow_loop, d, g)
            assert _hl_outcome(hosmer_lemeshow, d, g) == want
            bits, caught, error = want
            # an error's first word names it: bin (degenerate), tie, need
            seen.add(error.split()[0] if error else "p" if bits[1] else "no-p")
            if caught:
                seen.add("warned")
    assert seen == {"p", "no-p", "warned", "bin", "tie", "need"}
    # one tie run of 199,900 of 200,000 predictions holds all 9 cuts
    x = np.concatenate((rng.random(50) * 0.5, np.full(199_900, 0.5), 0.5 + rng.random(50) * 0.5))
    d = _data(x, rng.random(x.shape[0]) < x)
    got = _hl_outcome(hosmer_lemeshow, d, 10)
    assert got == _hl_outcome(hosmer_lemeshow_loop, d, 10)
    assert got[1] == ["tie grouping reduced 10 requested bins to 2"]
