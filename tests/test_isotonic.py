"""Tests for the sorted-data container and the pooled isotonic fit."""

import numpy as np
import pytest

from _reference import pava_exhaustive, random_sorted_data
from calband.isotonic import build_sorted_data, pava


def _data(x, y):
    return build_sorted_data(np.column_stack((np.asarray(x, float), np.asarray(y, float))))


# ---------------------------------------------------------------------------
# build_sorted_data


def test_build_sorts_and_groups_ties():
    d = build_sorted_data([(0.2, 1), (0.1, 0), (0.2, 0)])
    np.testing.assert_array_equal(d.x, [0.1, 0.2, 0.2])
    assert d.n == 3
    assert d.n_groups == 2
    np.testing.assert_array_equal(d.distinct_x, [0.1, 0.2])
    np.testing.assert_array_equal(d.group_starts, [0, 1])
    np.testing.assert_array_equal(d.prefix_sums, [0, 0, 1, 1])
    np.testing.assert_array_equal(d.group_bounds, [0, 1, 3])
    np.testing.assert_array_equal(d.group_sizes, [1, 2])


def test_build_single_observation():
    d = build_sorted_data([(0.5, 1)])
    assert d.n == 1
    assert d.n_groups == 1
    np.testing.assert_array_equal(d.prefix_sums, [0, 1])
    np.testing.assert_array_equal(d.group_bounds, [0, 1])


def test_build_prefix_sums_match_direct_sums():
    rng = np.random.default_rng(11)
    x = rng.random(100)
    y = rng.integers(0, 2, size=100)
    d = _data(x, y)
    for _ in range(50):
        j, k = sorted(rng.integers(0, d.n + 1, size=2))
        assert d.prefix_sums[k] - d.prefix_sums[j] == d.y[j:k].sum()


def test_group_count_aggregates_inclusive_range():
    # successes and trials over tie groups g..h, as the bands slice them
    d = _data([0.1, 0.1, 0.2, 0.3, 0.3, 0.3], [1, 0, 1, 0, 1, 1])
    b = d.group_bounds
    for (g, h), want in {(0, 0): (1, 2), (1, 2): (3, 4), (0, 2): (4, 6)}.items():
        z = d.prefix_sums[b[h + 1]] - d.prefix_sums[b[g]]
        assert (z, b[h + 1] - b[g]) == want


def test_build_rejects_empty_input():
    with pytest.raises(ValueError, match="no observations"):
        build_sorted_data([])


def test_build_rejects_non_binary_outcomes():
    with pytest.raises(ValueError, match="0 or 1"):
        build_sorted_data([(0.1, 0), (0.2, 2)])
    with pytest.raises(ValueError, match="0.5"):
        build_sorted_data([(0.1, 0.5)])


def test_build_rejects_non_finite_covariates():
    with pytest.raises(ValueError, match="finite"):
        build_sorted_data([(np.nan, 0)])
    with pytest.raises(ValueError, match="finite"):
        build_sorted_data([(np.inf, 1), (0.2, 0)])


def test_build_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        build_sorted_data([(0.1, 0.2, 0.3)])


def test_tie_groups_partition_observations():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = random_sorted_data(rng, int(rng.integers(1, 60)))
        b = d.group_bounds
        assert b[0] == 0 and b[-1] == d.n
        assert (np.diff(b) > 0).all()
        for lo, hi in zip(b[:-1], b[1:]):
            assert (d.x[lo:hi] == d.x[lo]).all()
        assert (np.diff(d.distinct_x) > 0).all()


# ---------------------------------------------------------------------------
# pava


def test_pava_keeps_isotonic_sequence():
    fit = pava(_data([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1]))
    np.testing.assert_array_equal(fit.group_levels(), [0.0, 0.0, 1.0, 1.0])
    assert fit.n_blocks == 2
    np.testing.assert_array_equal(fit.block_starts, [0, 2])
    np.testing.assert_array_equal(fit.block_ends, [1, 3])


def test_pava_pools_single_violation():
    fit = pava(_data([0.3, 0.7], [1, 0]))
    np.testing.assert_array_equal(fit.group_levels(), [0.5, 0.5])
    assert fit.n_blocks == 1


def test_group_levels_is_built_once_and_read_only():
    # the nc repair and the CLI's isotonic_fit read one shared array
    fit = pava(_data([0.1, 0.2, 0.3, 0.4, 0.5], [1, 0, 0, 1, 1]))
    levels = fit.group_levels()
    assert fit.group_levels() is levels
    assert not levels.flags.writeable
    reps = fit.block_ends - fit.block_starts + 1
    np.testing.assert_array_equal(levels, np.repeat(fit.levels, reps))


def test_pava_ties_share_one_fitted_value():
    # tied covariates are pooled before any ordering is considered
    fit = pava(_data([0.5, 0.5, 0.5], [1, 0, 1]))
    assert fit.n_groups == 1
    np.testing.assert_allclose(fit.levels, [2.0 / 3.0])


def test_pava_matches_exhaustive_on_fixed_sequence():
    y = [1, 0, 0, 1, 0, 1, 1]
    d = _data(np.linspace(0.1, 0.9, len(y)), y)
    np.testing.assert_allclose(
        pava(d).group_levels(), pava_exhaustive(d), atol=1e-12
    )


def test_pava_matches_exhaustive_on_random_small_datasets():
    rng = np.random.default_rng(37)
    for _ in range(300):
        d = random_sorted_data(rng, int(rng.integers(1, 13)))
        np.testing.assert_allclose(
            pava(d).group_levels(), pava_exhaustive(d), atol=1e-12
        )


def test_pava_levels_strictly_increase():
    rng = np.random.default_rng(41)
    for _ in range(50):
        fit = pava(random_sorted_data(rng, int(rng.integers(1, 200))))
        assert (np.diff(fit.levels) > 0).all()
        assert fit.block_starts[0] == 0
        assert fit.block_ends[-1] == fit.n_groups - 1
        np.testing.assert_array_equal(fit.block_starts[1:], fit.block_ends[:-1] + 1)


def test_pava_is_closest_isotonic_function():
    # squared error of the fit never exceeds that of a random isotonic
    # competitor; 200 datasets x 500 competitors = 1e5 comparisons
    rng = np.random.default_rng(43)
    for _ in range(200):
        d = random_sorted_data(rng, int(rng.integers(1, 13)))
        expand = np.repeat(np.arange(d.n_groups), d.group_sizes)
        fit_obs = pava(d).group_levels()[expand]
        sse_fit = ((fit_obs - d.y) ** 2).sum()
        h = np.sort(rng.random((500, d.n_groups)), axis=1)
        sse_h = ((h[:, expand] - d.y[None, :]) ** 2).sum(axis=1)
        assert (sse_fit <= sse_h + 1e-12).all()


def test_pava_preserves_outcome_mean():
    rng = np.random.default_rng(47)
    for _ in range(50):
        d = random_sorted_data(rng, int(rng.integers(1, 150)))
        fit = pava(d)
        expand = np.repeat(np.arange(d.n_groups), d.group_sizes)
        assert abs(fit.group_levels()[expand].sum() - d.y.sum()) < 1e-9


def test_pava_fixed_point_on_already_fitted_means():
    # rebuild a dataset whose group means equal a previous fit's levels;
    # the second fit must reproduce those levels without pooling
    rng = np.random.default_rng(53)
    for _ in range(25):
        d = random_sorted_data(rng, int(rng.integers(2, 80)))
        fit = pava(d)
        sizes = d.group_sizes
        pairs = []
        for i, lvl in enumerate(fit.levels):
            size = int(sizes[fit.block_starts[i] : fit.block_ends[i] + 1].sum())
            ones = int(round(lvl * size))
            pairs += [(float(i), 1.0)] * ones + [(float(i), 0.0)] * (size - ones)
        refit = pava(build_sorted_data(pairs))
        assert refit.n_blocks == fit.n_blocks
        np.testing.assert_allclose(refit.levels, fit.levels, atol=1e-12)


def test_pava_few_distinct_levels_on_bernoulli_data():
    # distinct fitted values grow like n^(2/3), far below n
    rng = np.random.default_rng(59)
    for n in (100, 1000):
        x = np.sort(rng.random(n))
        y = (rng.random(n) < x).astype(float)
        fit = pava(_data(x, y))
        assert fit.n_blocks < 3 * n ** (2.0 / 3.0)


# ---------------------------------------------------------------------------
# constancy regions (block_starts, block_ends)


def test_constancy_endpoints_single_block():
    fit = pava(_data([0.1, 0.2, 0.3, 0.4, 0.5], [1, 0, 1, 0, 0]))
    assert fit.n_blocks == 1
    np.testing.assert_array_equal(fit.block_starts, [0])
    np.testing.assert_array_equal(fit.block_ends, [4])


def test_constancy_endpoints_strictly_increasing_fit():
    fit = pava(_data([0.1, 0.2, 0.3], [0, 1, 1]))
    # groups 0 | 1,2 form the two blocks
    np.testing.assert_array_equal(fit.block_starts, [0, 1])
    np.testing.assert_array_equal(fit.block_ends, [0, 2])


def test_constancy_endpoints_cover_every_group_once():
    rng = np.random.default_rng(61)
    for _ in range(25):
        d = random_sorted_data(rng, int(rng.integers(1, 120)))
        fit = pava(d)
        covered = np.concatenate(
            [np.arange(a, b + 1) for a, b in zip(fit.block_starts, fit.block_ends)]
        )
        np.testing.assert_array_equal(covered, np.arange(d.n_groups))
