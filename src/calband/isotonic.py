"""Sorted binary data and isotonic least-squares fitting.

The data container carries tie groups and prefix sums so every downstream
slice count is O(1); the fit is the classic stack-based pool-adjacent-
violators algorithm run on tie-group aggregates.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SortedBinaryData",
    "IsotonicFit",
    "build_sorted_data",
    "pava",
]


@dataclass(frozen=True)
class SortedBinaryData:
    """Covariate/outcome pairs sorted by covariate, with tie bookkeeping.

    Attributes
    ----------
    x : ndarray, shape (n,)
        Covariates in nondecreasing order.
    y : ndarray, shape (n,)
        Binary outcomes aligned with x.
    group_starts : ndarray, shape (N,)
        Start index of each tie group; groups partition 0..n-1 and the
        distinct covariates are strictly increasing across groups.
    prefix_sums : ndarray, shape (n+1,)
        prefix_sums[i] = sum of y[:i], so sums over any index slice are a
        single subtraction.
    """

    x: np.ndarray
    y: np.ndarray
    group_starts: np.ndarray
    prefix_sums: np.ndarray

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def n_groups(self):
        return self.group_starts.shape[0]

    @property
    def distinct_x(self):
        return self.x[self.group_starts]

    @property
    def group_bounds(self):
        """Group boundaries as observation indices, shape (N+1,)."""
        return np.append(self.group_starts, self.n)

    @property
    def group_sizes(self):
        return np.diff(self.group_bounds)


def build_sorted_data(pairs):
    """Sort (covariate, outcome) pairs and precompute tie groups.

    Accepts any sequence convertible to an (n, 2) float array. Outcomes
    must be exactly 0 or 1; covariates must be finite. The sort is stable,
    and the within-tie order is irrelevant to every consumer because only
    tie-group sums are ever read.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no observations")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) pairs, got shape {arr.shape}")
    x = arr[:, 0]
    y = arr[:, 1]
    if not np.isfinite(x).all():
        raise ValueError("covariates must be finite")
    if not np.isin(y, (0.0, 1.0)).all():
        bad = y[~np.isin(y, (0.0, 1.0))][0]
        raise ValueError(f"outcomes must be 0 or 1, found {bad}")
    order = np.argsort(x, kind="stable")
    x = np.ascontiguousarray(x[order])
    yi = y[order].astype(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    prefix = np.concatenate(([0], np.cumsum(yi)))
    return SortedBinaryData(x=x, y=yi, group_starts=starts, prefix_sums=prefix)


@dataclass(frozen=True)
class IsotonicFit:
    """Isotonic least-squares fit stored as constancy blocks.

    levels are strictly increasing; block_starts/block_ends are inclusive
    tie-group index ranges. Each level is the outcome mean over the
    block's observations.
    """

    block_starts: np.ndarray
    block_ends: np.ndarray
    levels: np.ndarray
    n_groups: int = field(repr=False)

    @property
    def n_blocks(self):
        return self.levels.shape[0]

    def group_levels(self):
        """Fitted value for each tie group, shape (N,)."""
        reps = self.block_ends - self.block_starts + 1
        return np.repeat(self.levels, reps)


def pava(data):
    """Pool-adjacent-violators on tie-group aggregates.

    Tie groups enter as weighted points (weight = group size, value =
    group mean), which forces tied covariates onto a common fitted value.
    Pooling decisions compare block means by integer cross-multiplication,
    so the block structure is exact; only the final levels are floats.
    """
    b = data.group_bounds
    sums = (data.prefix_sums[b[1:]] - data.prefix_sums[b[:-1]]).tolist()
    sizes = data.group_sizes.tolist()
    n_groups = data.n_groups

    start = []
    bsum = []
    bw = []
    for g in range(n_groups):
        start.append(g)
        bsum.append(sums[g])
        bw.append(sizes[g])
        # merge while the previous block mean is >= the new one
        while len(start) > 1 and bsum[-2] * bw[-1] >= bsum[-1] * bw[-2]:
            bsum[-2] += bsum[-1]
            bw[-2] += bw[-1]
            start.pop()
            bsum.pop()
            bw.pop()

    starts = np.asarray(start, dtype=np.int64)
    ends = np.append(starts[1:], n_groups) - 1
    levels = np.asarray(bsum, dtype=np.float64) / np.asarray(bw, dtype=np.float64)
    return IsotonicFit(
        block_starts=starts, block_ends=ends, levels=levels, n_groups=n_groups
    )
