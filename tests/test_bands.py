"""Tests for index-pair families, the confidence bands, and evaluation."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _reference import (
    band_crosses,
    dip_data,
    family_pairs,
    naive_raw_band,
    naive_yb_band,
    random_sorted_data,
    rounded_pairs_bruteforce,
)
import calband.bands as bands_module
from calband.bands import (
    StepBand,
    evaluate_band,
    full_index_family,
    noncrossing_band,
    raw_band,
    rounded_index_family,
    yb_band,
)
from calband.diagnostics import isotonicity_pvalue
from calband.isotonic import IsotonicFit, build_sorted_data, pava
from calband.simulation import RegressionFamily, simulate_dataset
from calband.special import cp_lower


def _data(x, y):
    return build_sorted_data(np.column_stack((np.asarray(x, float), np.asarray(y, float))))


def _pair_set(family):
    js, ks = family_pairs(family)
    return set(zip(js.tolist(), ks.tolist()))


# ---------------------------------------------------------------------------
# full family


def test_full_family_single_group():
    fam = full_index_family(_data([0.5], [1]))
    assert fam.pair_count == 1
    assert _pair_set(fam) == {(0, 0)}
    assert fam.correction == 2


def test_full_family_three_groups():
    fam = full_index_family(_data([0.1, 0.2, 0.3], [0, 1, 0]))
    assert fam.pair_count == 6
    assert fam.correction == 12
    assert _pair_set(fam) == set(
        itertools.combinations_with_replacement(range(3), 2)
    )


def test_full_family_counts_scale_quadratically():
    x = np.linspace(0.05, 0.95, 10)
    fam = full_index_family(_data(x, np.zeros(10)))
    assert fam.pair_count == 55
    assert fam.correction == 110


# ---------------------------------------------------------------------------
# rounded family


def test_rounded_family_coarsest_grid_keeps_one_pair():
    d = _data([0.11, 0.19, 0.25], [0, 1, 0])
    fam = rounded_index_family(d, K=1)
    assert _pair_set(fam) == {(0, 2)}
    assert fam.correction == 1


def test_rounded_family_worked_example_k10():
    d = _data([0.11, 0.19, 0.25], [0, 1, 0])
    fam = rounded_index_family(d, K=10)
    assert _pair_set(fam) == {(0, 1), (2, 2), (0, 2)}
    assert fam.correction == 3
    assert _pair_set(fam) == rounded_pairs_bruteforce(d, 10)


def test_rounded_family_grid_aligned_recovers_all_pairs():
    # knots sitting exactly on the rounding grid lose nothing
    K = 1024
    x = np.array([3, 17, 100, 512, 900]) / K
    d = _data(x, [0, 1, 0, 1, 1])
    fam = rounded_index_family(d, K)
    assert _pair_set(fam) == _pair_set(full_index_family(d))
    assert fam.correction == 15


def test_rounded_family_matches_bruteforce_on_random_data():
    rng = np.random.default_rng(71)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        d = random_sorted_data(rng, n)
        K = int(rng.integers(1, 40))
        assert _pair_set(rounded_index_family(d, K)) == rounded_pairs_bruteforce(d, K)


def test_rounded_family_handles_covariates_above_one():
    d = _data([0.3, 0.9, 1.4, 1.7], [0, 1, 1, 0])
    for K in (1, 4, 10):
        fam = rounded_index_family(d, K)
        assert _pair_set(fam) == rounded_pairs_bruteforce(d, K)


def test_rounded_family_correction_equals_pair_count():
    rng = np.random.default_rng(73)
    for _ in range(10):
        d = random_sorted_data(rng, int(rng.integers(2, 200)))
        fam = rounded_index_family(d, K=1000)
        assert fam.correction == fam.pair_count


def test_rounded_family_rejects_bad_resolution():
    d = _data([0.5], [1])
    with pytest.raises(ValueError):
        rounded_index_family(d, 0)
    with pytest.raises(ValueError):
        rounded_index_family(d, -3)


# ---------------------------------------------------------------------------
# raw band


def test_raw_band_single_positive_observation():
    d = _data([0.7], [1])
    band = raw_band(d, full_index_family(d), alpha=0.05)
    np.testing.assert_array_equal(band.knots, [0.7])
    assert band.upper_levels[0] == 1.0
    assert band.lower_levels[0] == pytest.approx(cp_lower(1, 1, 0.025), abs=1e-9)
    assert band.lower_levels[0] == pytest.approx(0.025, abs=1e-10)


def test_raw_band_all_zero_outcomes():
    d = _data(np.linspace(0.1, 0.9, 12), np.zeros(12))
    band = raw_band(d, full_index_family(d), alpha=0.1)
    np.testing.assert_array_equal(band.lower_levels, np.zeros(12))
    assert (band.upper_levels < 1.0).all()


def test_raw_band_all_one_outcomes():
    d = _data(np.linspace(0.1, 0.9, 12), np.ones(12))
    band = raw_band(d, full_index_family(d), alpha=0.1)
    np.testing.assert_array_equal(band.upper_levels, np.ones(12))
    assert (band.lower_levels > 0.0).all()


def test_raw_band_matches_naive_sweep_exactly():
    rng = np.random.default_rng(79)
    for _ in range(30):
        d = random_sorted_data(rng, int(rng.integers(1, 51)))
        for fam in (full_index_family(d), rounded_index_family(d, K=17)):
            got = raw_band(d, fam, alpha=0.05)
            want = naive_raw_band(d, fam, alpha=0.05)
            np.testing.assert_array_equal(got.lower_levels, want.lower_levels)
            np.testing.assert_array_equal(got.upper_levels, want.upper_levels)


def _tied_data(rng, n, levels, p):
    x = rng.integers(1, levels + 1, size=n) / (levels + 1)
    return _data(x, rng.random(n) < p)


def test_raw_band_pruning_matches_naive_beyond_criterion_4():
    # extreme alphas are the p-value's probes; with few tie groups the
    # Bonferroni delta exceeds 1/(m+1) for large groups, so the brackets'
    # c <= 0 branch decides there
    rng = np.random.default_rng(97)
    cases = [
        _tied_data(rng, 600, 4, 0.3),
        _tied_data(rng, 900, 12, rng.random(900)),
        _tied_data(rng, 400, 40, 0.9),
        _data(np.linspace(0.01, 0.99, 300), np.zeros(300)),
        _data(np.linspace(0.01, 0.99, 300), np.ones(300)),
        _data(rng.random(500), rng.random(500) < 0.5),
        random_sorted_data(rng, 450),
    ]
    fallback = 0
    for d in cases:
        for fam in (full_index_family(d), rounded_index_family(d, K=50)):
            js, ks = family_pairs(fam)
            m = d.group_bounds[ks + 1] - d.group_bounds[js]
            for alpha in (1e-8, 0.05, 1.0 - 1e-6):
                fallback += bool((m + 1 >= fam.correction / alpha).any())
                got = raw_band(d, fam, alpha)
                want = naive_raw_band(d, fam, alpha)
                np.testing.assert_array_equal(got.lower_levels, want.lower_levels)
                np.testing.assert_array_equal(got.upper_levels, want.upper_levels)
    assert fallback >= 4


def _record_batches(monkeypatch):
    """Record (size, bounds asked for) of each cp_bounds_batch call raw_band makes."""
    calls = []
    real = bands_module.cp_bounds_batch

    def spy(z, m, delta, lower_where=True, upper_where=True):
        n = np.shape(z)[0]
        asked = np.broadcast_to(lower_where, n).sum()
        asked += np.broadcast_to(upper_where, n).sum()
        calls.append((n, asked))
        return real(z, m, delta, lower_where, upper_where)

    monkeypatch.setattr(bands_module, "cp_bounds_batch", spy)
    return calls


def test_raw_band_bounds_only_pairs_that_can_set_a_level(monkeypatch):
    calls = _record_batches(monkeypatch)
    rng = np.random.default_rng(101)
    x = rng.random(20000)
    d = _data(x, rng.random(20000) < x)
    fam = rounded_index_family(d, K=100)
    raw_band(d, fam, alpha=0.05)
    # bounding both sides of every pair would take 2 * pair_count
    assert 0 < sum(asked for _, asked in calls) < fam.pair_count


def test_raw_band_kl_cascade_bounds_few_pairs_exactly(monkeypatch):
    # a sweep replication: sshaped s = 0.5, n = 2048, K = 1000, 372,816
    # pairs. With only the closed-form brackets, raw_band bounded 363,505
    # pair sides exactly here, and 70,763 with caps from the KL outer
    # ends. The champions' exact caps, the KL inner ends and one bound
    # per distinct (z, m) left 10,251 bounds in 6 cp_bounds_batch calls;
    # champions from every 4th row and column leave 9,147
    calls = _record_batches(monkeypatch)
    d = simulate_dataset(RegressionFamily("sshaped", 0.5), 2048, np.random.default_rng(7))
    fam = rounded_index_family(d, K=1000)
    got = raw_band(d, fam, alpha=0.05)
    asked = sum(n for _, n in calls)
    want = naive_raw_band(d, fam, alpha=0.05)
    np.testing.assert_array_equal(got.lower_levels, want.lower_levels)
    np.testing.assert_array_equal(got.upper_levels, want.upper_levels)
    assert 0 < asked <= 9_500
    assert len(calls) <= 6


@pytest.mark.parametrize("stride", [1, 2, 7])
def test_raw_band_champion_stride_does_not_change_levels(monkeypatch, stride):
    # any computed bound of a real pair is a valid cap, so the rows and
    # columns the champions come from change only the work, not the band
    rng = np.random.default_rng(211)
    d = _data(rng.random(700), rng.random(700) < 0.4)
    monkeypatch.setattr(bands_module, "_CHAMPION_STRIDE", stride)
    for fam in (full_index_family(d), rounded_index_family(d, K=60)):
        got = raw_band(d, fam, alpha=0.05)
        want = naive_raw_band(d, fam, alpha=0.05)
        np.testing.assert_array_equal(got.lower_levels, want.lower_levels)
        np.testing.assert_array_equal(got.upper_levels, want.upper_levels)


def test_rate_test_drops_only_pairs_whose_inner_ends_fail(monkeypatch):
    # with the rate test off (an infinite margin) the exact pass hands the
    # KL step the very same sides: every pair the test drops would have
    # failed its closed-form inner-end test at both sides
    seen = []
    real = bands_module._kl_inner

    def spy(z, m, delta, inner, upper):
        seen.append((upper, z.tolist(), m.tolist()))
        return real(z, m, delta, inner, upper)

    monkeypatch.setattr(bands_module, "_kl_inner", spy)
    d = simulate_dataset(RegressionFamily("sshaped", 0.5), 2048, np.random.default_rng(8))
    runs = []
    for margin in (bands_module._RATE_SLACK, np.inf):
        monkeypatch.setattr(bands_module, "_RATE_SLACK", margin)
        for fam in (rounded_index_family(d, K=1000), full_index_family(d)):
            del seen[:]
            raw_band(d, fam, alpha=0.05)
            runs.append(list(seen))
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert sum(len(z) for _, z, _ in runs[0]) > 1000


def test_strided_champions_leave_the_other_rows_unbounded():
    rng = np.random.default_rng(212)
    d = _data(rng.random(300), rng.random(300) < 0.5)
    fam = rounded_index_family(d, K=40)
    champions = bands_module._strided_champions(d, fam, 0.05 / fam.correction)
    for (zm, inner), size in zip(champions, (fam.row_j.shape[0], fam.k_values.shape[0])):
        picked = np.zeros(size, dtype=bool)
        picked[:: bands_module._CHAMPION_STRIDE] = picked[-1] = True
        assert np.isfinite(inner[picked]).all()
        assert np.isnan(inner[~picked]).all()
        assert (zm[1, picked] >= 1).all() and (zm[:, ~picked] == 0).all()


def test_raw_band_flush_size_does_not_change_levels(monkeypatch):
    # survivors of many chunks reach betaincinv in one batch per side;
    # a small _CHUNK_MIN flushes several batches per side mid-sweep, each
    # tightening the caps the next chunks are tested against, and the
    # flush size does not change the levels
    flushed = []
    real = bands_module._Survivors.flush

    def spy(self):
        flushed.append((self.upper, self.size))
        real(self)

    monkeypatch.setattr(bands_module._Survivors, "flush", spy)
    rng = np.random.default_rng(103)
    d = _data(rng.random(1500), rng.random(1500) < 0.3)
    fam = full_index_family(d)
    single = raw_band(d, fam, alpha=0.05)
    assert sorted(up for up, n in flushed if n) == [False, True]
    del flushed[:]
    monkeypatch.setattr(bands_module, "_CHUNK_MIN", 500)
    batched = raw_band(d, fam, alpha=0.05)
    for side in (False, True):
        assert sum(1 for up, n in flushed if up is side and n) >= 2
    np.testing.assert_array_equal(batched.lower_levels, single.lower_levels)
    np.testing.assert_array_equal(batched.upper_levels, single.upper_levels)


def test_raw_band_and_crossing_match_naive_on_edge_families():
    # tied champions: all-0 (all-1) outcomes tie the closed-form inner
    # ends of every column (row), and equal groups with equal counts
    # repeat each (z, m) across rows; coarse grids leave one-pair rows;
    # K = 1 on covariates inside (0, 1) is one pair, so delta = alpha,
    # above 1/2 at the last alpha
    rng = np.random.default_rng(109)
    x = np.repeat(np.arange(1, 41) / 41, 6)
    cases = [
        _data(x, np.tile([1, 0, 0, 1, 0, 0], 40)),
        _data(x, np.tile([1, 1, 0, 1, 1, 1], 40)),
        _data(np.linspace(0.01, 0.99, 90), np.zeros(90)),
        _data(np.linspace(0.01, 0.99, 90), np.ones(90)),
        _data([0.3], [0]),
        _tied_data(rng, 200, 8, 0.6),
        random_sorted_data(rng, 120),
    ]
    one_pair_rows = 0
    for d in cases:
        families = [full_index_family(d)]
        families += [rounded_index_family(d, K) for K in (1, 3, 7, 40)]
        for fam in families:
            one_pair_rows += int((fam.k_values.shape[0] - fam.row_first_k == 1).sum())
            for alpha in (1e-8, 0.05, 0.5, 0.9):
                want = naive_raw_band(d, fam, alpha)
                got = raw_band(d, fam, alpha)
                np.testing.assert_array_equal(got.lower_levels, want.lower_levels)
                np.testing.assert_array_equal(got.upper_levels, want.upper_levels)
                assert bands_module._crosses(d, fam, alpha)[0] is band_crosses(want)
    assert one_pair_rows > 0


def test_raw_band_levels_are_nondecreasing():
    rng = np.random.default_rng(83)
    for _ in range(20):
        d = random_sorted_data(rng, int(rng.integers(1, 150)))
        band = raw_band(d, full_index_family(d), alpha=0.05)
        assert (np.diff(band.lower_levels) >= 0).all()
        assert (np.diff(band.upper_levels) >= 0).all()


def test_raw_band_widens_as_alpha_shrinks():
    rng = np.random.default_rng(89)
    d = random_sorted_data(rng, 80)
    fam = full_index_family(d)
    loose = raw_band(d, fam, alpha=0.2)
    tight = raw_band(d, fam, alpha=0.01)
    assert (tight.lower_levels <= loose.lower_levels).all()
    assert (tight.upper_levels >= loose.upper_levels).all()


def test_raw_band_validates_inputs():
    d = _data([0.2, 0.4], [0, 1])
    fam = full_index_family(d)
    other = _data([0.1, 0.2, 0.3], [0, 1, 1])
    for build in (raw_band, bands_module._crosses):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="outside"):
                build(d, fam, alpha=bad)
        with pytest.raises(ValueError, match="different data"):
            build(other, fam, alpha=0.05)


# ---------------------------------------------------------------------------
# crossing decision without the band


def _crossing_file():
    path = Path(__file__).resolve().parent / "data" / "crossing.csv"
    return _data(*np.loadtxt(path, delimiter=",", skiprows=1, unpack=True))


def _threshold(d, fam, p):
    """Alphas 2.4e-8 apart on either side of where the band starts crossing.

    The p-value's bisection ends within 5e-5 of the threshold; twelve more
    steps on built bands close in to where the bracket levels cannot decide.
    """
    if not 1e-4 < p < 1.0 - 1e-4:
        return []
    lo, hi = p - 5e-5, p + 5e-5
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if band_crosses(raw_band(d, fam, mid)):
            hi = mid
        else:
            lo = mid
    return [lo, hi]


def test_raw_band_crosses_matches_the_band(monkeypatch):
    calls = _record_batches(monkeypatch)
    rng = np.random.default_rng(137)
    x = rng.integers(1, 6, size=300) / 6
    cases = [
        _tied_data(rng, 600, 4, 0.3),
        _tied_data(rng, 400, 40, 0.9),
        _data(x, rng.random(300) < 0.9 - 0.5 * x),
        _data(np.linspace(0.01, 0.99, 300), np.zeros(300)),
        _data(np.linspace(0.01, 0.99, 300), np.ones(300)),
        _crossing_file(),
    ]
    # truths mid + amp * sin(3 pi x) cross at middling alphas; near 0 or 1
    # Hoeffding's end of the brackets is far looser than the other
    for n, mid, amp in ((80, 0.5, 0.45), (200, 0.5, 0.3), (500, 0.5, 0.2),
                        (400, 0.9, 0.08), (600, 0.1, 0.09)):
        x = rng.random(n)
        cases.append(_data(x, rng.random(n) < mid + amp * np.sin(3 * np.pi * x)))
    cases += [random_sorted_data(rng, int(rng.integers(5, 200))) for _ in range(6)]
    outcomes = set()
    for d in cases:
        families = [full_index_family(d), rounded_index_family(d, K=20)]
        # K=1 on covariates inside (0, 1) leaves the single window [0, 1]:
        # one pair, so delta = alpha, above 1/2 at the last alpha
        families.append(rounded_index_family(d, K=1))
        for fam in families:
            near = _threshold(d, fam, isotonicity_pvalue(d, fam))
            for alpha in [1e-8, 3e-5, 0.05, 0.5, 1.0 - 1e-6] + near:
                want = band_crosses(raw_band(d, fam, alpha))
                del calls[:]
                got = bands_module._crosses(d, fam, alpha)[0]
                assert got is want, (fam.correction, alpha)
                outcomes.add((want, bool(calls)))
    assert rounded_index_family(cases[0], K=1).pair_count == 1
    # no crossing comes both from the brackets alone and from exact
    # bounds; a crossing always takes exact bounds, the champions' at least
    assert outcomes == {(False, False), (False, True), (True, True)}


def test_raw_band_crosses_needs_no_exact_bound_for_a_clear_crossing(monkeypatch):
    # a clear crossing is decided from the champions' bounds alone: the
    # exact pass never runs, and one side per row and per column is bounded
    def refuse(*args, **kwargs):
        raise AssertionError("exact pass run")

    calls = _record_batches(monkeypatch)
    x = [0.25] * 200 + [0.75] * 200
    d = _data(x, [1] * 200 + [0] * 200)
    monkeypatch.setattr(bands_module, "_exact_levels", refuse)
    for fam in (full_index_family(d), rounded_index_family(d, K=100)):
        del calls[:]
        assert bands_module._crosses(d, fam, 0.05)[0] is True
        sides = sum(asked for _, asked in calls)
        assert sides == fam.row_j.shape[0] + fam.k_values.shape[0]


def test_raw_band_crosses_bounds_only_champions_that_pass_the_caps(monkeypatch):
    # the p-value's first probe on a flat truth: near alpha = 1 the band
    # is narrow but does not cross, and the brackets leave some knots
    # open (on a rising truth they rule the crossing out alone). Of the 40
    # champion sides only 4 reach the caps every other pair is tested
    # against, so only those are bounded, and one pair more after them
    calls = _record_batches(monkeypatch)
    rng = np.random.default_rng(0)
    x = rng.random(20000)
    d = _data(x, rng.random(20000) < 0.5)
    fam = rounded_index_family(d, K=20)
    assert bands_module._crosses(d, fam, 1.0 - 1e-6)[0] is False
    assert 0 < sum(asked for _, asked in calls) <= 10


def test_survivors_bound_each_distinct_count_once(monkeypatch):
    # a batch with repeated (z, m), within an index and across indices,
    # leaves the same levels, caps and (z, m) per index as bounding its
    # pairs one at a time, and asks cp_bounds_batch for each count once
    z = np.array([3, 5, 3, 7, 3, 5, 0, 12, 12])
    m = np.array([10, 20, 10, 30, 10, 20, 4, 12, 12])
    index = np.array([0, 1, 2, 2, 3, 1, 4, 4, 0])
    no_champions = (np.zeros((2, 5), dtype=np.int64), np.full(5, np.nan))
    for upper in (True, False):
        cap = np.full(5, np.inf if upper else -np.inf)
        one_by_one = bands_module._Survivors(1e-3, upper, cap, no_champions)
        for i in range(z.shape[0]):
            one_by_one._solve(z[i : i + 1], m[i : i + 1], index[i : i + 1])
        calls = _record_batches(monkeypatch)
        batch = bands_module._Survivors(1e-3, upper, cap, no_champions)
        batch._solve(z, m, index)
        assert calls == [(5, 5)]
        monkeypatch.undo()
        np.testing.assert_array_equal(batch.out, one_by_one.out)
        np.testing.assert_array_equal(batch.cap, one_by_one.cap)
        np.testing.assert_array_equal(batch.zm, one_by_one.zm)


def test_raw_band_crosses_memory_stays_at_family_size():
    # the p-value's first probe at n = 200,000 with K = 1000: levels, caps
    # and the count tables are kept per row and per column of the family,
    # so no temporary grows with the number of knots
    rng = np.random.default_rng(1)
    x = rng.random(200_000)
    d = _data(x, rng.random(200_000) < x**0.7)
    fam = rounded_index_family(d, K=1000)
    alpha = 1.0 - 1e-6
    assert bands_module._crosses(d, fam, alpha)[0] is False  # imports scipy first
    tracemalloc.start()
    try:
        bands_module._crosses(d, fam, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"probe peak {peak / 1e6:.1f} MB"


def test_a_witness_that_holds_proves_the_band_crosses():
    # witnesses made at one alpha are checked at every alpha of the grid,
    # below and above their own and 1e-4 either side of the p-value;
    # whenever one holds, the band bounded pair by pair crosses there too.
    # Truths mid + amp * sin(3 pi x), a falling line and the dip cross
    # from middling alphas on
    rng = np.random.default_rng(151)
    cases = []
    for n, mid, amp in ((60, 0.5, 0.45), (120, 0.5, 0.4), (200, 0.5, 0.3)):
        x = rng.random(n)
        cases.append(_data(x, rng.random(n) < mid + amp * np.sin(3 * np.pi * x)))
    x = rng.random(80)
    cases += [_data(x, rng.random(80) < 0.9 - 0.8 * x), dip_data(rng, 400)]
    held = failed = 0
    for d in cases:
        families = [rounded_index_family(d, K=20)]
        if d.n_groups <= 200:
            families.append(full_index_family(d))
        for fam in families:
            p = isotonicity_pvalue(d, fam)
            grid = [1e-8, 1e-4, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0 - 1e-6]
            grid += [p - 1e-4, p + 1e-4] if 2e-4 < p < 0.9 else []
            probes = [bands_module._crosses(d, fam, alpha) for alpha in grid]
            witnesses = [w for crosses, w in probes if crosses]
            for alpha in grid:
                crosses = band_crosses(naive_raw_band(d, fam, alpha))
                for w in witnesses:
                    if bands_module._witness_crosses(w, alpha / fam.correction):
                        assert crosses, (fam.correction, alpha)
                        held += 1
                    else:
                        failed += 1
    assert held > 50 and failed > 50


# ---------------------------------------------------------------------------
# non-crossing repair


def test_noncrossing_identity_when_fit_inside():
    raw = StepBand(
        knots=np.array([0.1, 0.2, 0.3]),
        lower_levels=np.array([0.0, 0.1, 0.2]),
        upper_levels=np.array([0.5, 0.6, 0.9]),
    )
    fit = IsotonicFit(
        block_starts=np.array([0]),
        block_ends=np.array([2]),
        levels=np.array([0.3]),
        n_groups=3,
    )
    nc = noncrossing_band(raw, fit)
    np.testing.assert_array_equal(nc.lower_levels, raw.lower_levels)
    np.testing.assert_array_equal(nc.upper_levels, raw.upper_levels)
    np.testing.assert_array_equal(nc.knots, raw.knots)


def test_noncrossing_repairs_upper_at_one_knot():
    raw = StepBand(
        knots=np.array([0.1, 0.2, 0.3]),
        lower_levels=np.array([0.0, 0.2, 0.4]),
        upper_levels=np.array([0.5, 0.5, 0.6]),
    )
    fit = IsotonicFit(
        block_starts=np.array([0, 1, 2]),
        block_ends=np.array([0, 1, 2]),
        levels=np.array([0.1, 0.55, 0.7]),
        n_groups=3,
    )
    nc = noncrossing_band(raw, fit)
    np.testing.assert_array_equal(nc.lower_levels, [0.0, 0.2, 0.4])
    np.testing.assert_array_equal(nc.upper_levels, [0.5, 0.55, 0.7])


def test_noncrossing_contains_fit_and_never_narrows():
    rng = np.random.default_rng(97)
    for _ in range(25):
        d = random_sorted_data(rng, int(rng.integers(1, 100)))
        fit = pava(d)
        raw = raw_band(d, full_index_family(d), alpha=0.05)
        nc = noncrossing_band(raw, fit)
        levels = fit.group_levels()
        assert (nc.lower_levels <= levels).all()
        assert (nc.upper_levels >= levels).all()
        assert (nc.lower_levels <= nc.upper_levels).all()
        assert (nc.lower_levels <= raw.lower_levels).all()
        assert (nc.upper_levels >= raw.upper_levels).all()


# ---------------------------------------------------------------------------
# variance-free band


def test_yb_band_single_group_closed_form():
    d = _data([0.4] * 8, [1, 1, 1, 0, 0, 1, 0, 1])
    band = yb_band(d, pava(d), alpha=0.1)
    q = 5.0 / 8.0
    radius = np.sqrt(np.log(2.0 / 0.1) / 16.0)
    assert band.upper_levels[0] == pytest.approx(min(1.0, q + radius), abs=1e-12)
    assert band.lower_levels[0] == pytest.approx(max(0.0, q - radius), abs=1e-12)


def test_yb_band_clips_to_unit_interval():
    d = _data([0.2, 0.8], [0, 1])
    band = yb_band(d, pava(d), alpha=0.05)
    assert (band.lower_levels >= 0.0).all()
    assert (band.upper_levels <= 1.0).all()


def test_yb_band_matches_naive_optimizer_exactly():
    rng = np.random.default_rng(101)
    for _ in range(30):
        d = random_sorted_data(rng, int(rng.integers(1, 51)))
        fit = pava(d)
        got = yb_band(d, fit, alpha=0.05)
        want = naive_yb_band(d, fit, alpha=0.05)
        np.testing.assert_array_equal(got.lower_levels, want.lower_levels)
        np.testing.assert_array_equal(got.upper_levels, want.upper_levels)


def test_band_ordering_theorem_on_random_data():
    # the repaired band sits inside the variance-free one, outside the raw one
    rng = np.random.default_rng(103)
    for _ in range(60):
        d = random_sorted_data(rng, int(rng.integers(1, 120)))
        fit = pava(d)
        raw = raw_band(d, full_index_family(d), alpha=0.05)
        nc = noncrossing_band(raw, fit)
        yb = yb_band(d, fit, alpha=0.05)
        assert (yb.lower_levels <= nc.lower_levels + 1e-12).all()
        assert (nc.lower_levels <= raw.lower_levels).all()
        assert (raw.upper_levels <= nc.upper_levels).all()
        assert (nc.upper_levels <= yb.upper_levels + 1e-12).all()


def test_yb_band_levels_are_nondecreasing():
    rng = np.random.default_rng(107)
    for _ in range(15):
        d = random_sorted_data(rng, int(rng.integers(1, 150)))
        band = yb_band(d, pava(d), alpha=0.05)
        assert (np.diff(band.lower_levels) >= 0).all()
        assert (np.diff(band.upper_levels) >= 0).all()


# ---------------------------------------------------------------------------
# evaluation


def _toy_band():
    return StepBand(
        knots=np.array([0.2, 0.5]),
        lower_levels=np.array([0.1, 0.3]),
        upper_levels=np.array([0.6, 0.9]),
    )


def test_evaluate_band_at_knots():
    band = _toy_band()
    assert evaluate_band(band, 0.2, extrapolate=False) == (0.1, 0.6)
    assert evaluate_band(band, 0.5, extrapolate=False) == (0.3, 0.9)


def test_evaluate_band_between_knots():
    lo, up = evaluate_band(_toy_band(), 0.35, extrapolate=False)
    assert (lo, up) == (0.1, 0.9)


def test_evaluate_band_tails():
    band = _toy_band()
    assert evaluate_band(band, 0.05, extrapolate=True) == (0.0, 0.6)
    assert evaluate_band(band, 0.95, extrapolate=True) == (0.3, 1.0)
    assert evaluate_band(band, 0.5 + 1e-12, extrapolate=True) == (0.3, 1.0)


def test_evaluate_band_refuses_extrapolation_by_default():
    band = _toy_band()
    with pytest.raises(ValueError, match="extrapolate"):
        evaluate_band(band, 0.1, extrapolate=False)
    with pytest.raises(ValueError, match="extrapolate"):
        evaluate_band(band, np.array([0.3, 0.51]), extrapolate=False)
    # NaN fails both range comparisons; it is refused in either mode
    for extrapolate in (False, True):
        for x in (math.nan, np.array([0.3, math.nan]), math.inf):
            with pytest.raises(ValueError, match="finite"):
                evaluate_band(band, x, extrapolate=extrapolate)


def test_evaluate_band_array_matches_scalar():
    band = _toy_band()
    xs = np.array([0.0, 0.2, 0.35, 0.5, 0.7])
    lo, up = evaluate_band(band, xs, extrapolate=True)
    assert lo.shape == up.shape == xs.shape
    for i, t in enumerate(xs):
        slo, sup = evaluate_band(band, float(t), extrapolate=True)
        assert (slo, sup) == (lo[i], up[i])


def test_evaluate_band_round_trips_knot_levels():
    rng = np.random.default_rng(109)
    d = random_sorted_data(rng, 60)
    band = raw_band(d, rounded_index_family(d, K=100), alpha=0.05)
    lo, up = evaluate_band(band, band.knots, extrapolate=False)
    np.testing.assert_array_equal(lo, band.lower_levels)
    np.testing.assert_array_equal(up, band.upper_levels)
