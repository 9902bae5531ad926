"""Simultaneous confidence bands for calibration curves of binary outcomes.

Four constructions share one representation (StepBand): the raw band of
Bonferroni-combined Clopper-Pearson bounds over an index-pair family, its
non-crossing repair around the isotonic fit, the rounding-restricted
variant of that family, and the wider Hoeffding-style band around
isotonic block averages.

The raw band needs, per knot, one extreme over the family's pair bounds.
The bracket pass (_bracket_levels) sweeps closed-form brackets around
each bound into per-knot bracket levels; the exact pass (_exact_levels)
tightens the brackets of the pairs that pass them to the KL roots, and
runs betaincinv only for the pairs whose tight bracket can still reach a
knot's extreme. Per-knot values come from monotone suffix/prefix sweeps,
so the full family costs O(|family|) brackets and at most that many
exact bounds instead of O(N * |family|).
The result is bit-identical to bounding every pair; raw_band's docstring
gives the argument. raw_band_crosses shares both passes to decide whether
the band crosses without building it: the bracket levels settle most
alphas alone, and the exact pass then needs only the pairs that can set a
crossing level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import _kl_brackets, cp_bounds_batch, cp_brackets

__all__ = [
    "IndexPairFamily",
    "StepBand",
    "full_index_family",
    "rounded_index_family",
    "raw_band",
    "raw_band_crosses",
    "noncrossing_band",
    "yb_band",
    "evaluate_band",
]

_PAIR_CHUNK = 1 << 14
_CHUNK_MIN = 200_000
_YB_CHUNK = 1 << 22


@dataclass(frozen=True)
class IndexPairFamily:
    """A set of (j, k) tie-group index pairs with its Bonferroni divisor.

    Pairs are stored row-compressed: for the r-th admissible start index
    row_j[r], the admissible end indices are k_values[row_first_k[r]:].
    Both families have this suffix structure, which is what the sweep in
    raw_band exploits. raw_band walks the pairs in chunks of whole rows
    and nothing materializes the flat pair arrays, so the full family
    stays cheap to describe even when N^2 pairs would not fit in memory.

    correction is the divisor applied to alpha: N^2+N for the full family
    (two bounds per pair), |pairs| for the rounded family.
    """

    n_groups: int
    correction: int
    row_j: np.ndarray
    k_values: np.ndarray
    row_first_k: np.ndarray

    @property
    def pair_count(self):
        return _pair_count(self.k_values, self.row_first_k)


def _pair_count(k_values, row_first_k):
    return int((k_values.shape[0] - row_first_k).sum())


def full_index_family(data):
    """All (j, k) index pairs with j <= k over the N tie groups."""
    n = data.n_groups
    idx = np.arange(n, dtype=np.int64)
    return IndexPairFamily(
        n_groups=n,
        correction=n * n + n,
        row_j=idx,
        k_values=idx,
        row_first_k=idx,
    )


def rounded_index_family(data, K):
    """Index pairs of maximal covariate blocks inside grid windows.

    A window is [r/K, s/K] for integers r <= s; a covariate x belongs to
    it when r <= K*x <= s holds in float64, which is the convention the
    brute-force tests share. Each window's block of covariates yields one
    (first, last) group pair; identical pairs from different windows are
    counted once. The enumeration walks the images of the two monotone
    step maps r -> first group and s -> last group instead of the windows
    themselves, so it is O(N log N) regardless of K.
    """
    if K < 1:
        raise ValueError(f"grid resolution K={K} must be >= 1")
    kx = float(K) * data.distinct_x
    fl = np.floor(kx)
    ce = np.ceil(kx)
    # group g can open a block iff some integer r satisfies
    # K*x_{g-1} < r <= K*x_g; the smallest such r is floor(K*x_{g-1}) + 1
    r_min = np.concatenate(([-np.inf], fl[:-1] + 1.0))
    valid_j = r_min <= fl
    # group h can close a block iff some integer s satisfies
    # K*x_h <= s < K*x_{h+1}; the largest such s is ceil(K*x_{h+1}) - 1
    s_max = np.concatenate((ce[1:] - 1.0, [np.inf]))
    valid_k = s_max >= ce

    row_j = np.flatnonzero(valid_j)
    k_values = np.flatnonzero(valid_k)
    # pair (g, h) realizable iff g <= h and some window has r <= s,
    # i.e. the smallest r opening g is <= the largest s closing h
    i_geq = np.searchsorted(k_values, row_j, side="left")
    i_rs = np.searchsorted(s_max[k_values], r_min[row_j], side="left")
    row_first_k = np.maximum(i_geq, i_rs)
    return IndexPairFamily(
        n_groups=data.n_groups,
        correction=_pair_count(k_values, row_first_k),
        row_j=row_j,
        k_values=k_values,
        row_first_k=row_first_k,
    )


@dataclass(frozen=True)
class StepBand:
    """Lower/upper step functions stored at the distinct covariates.

    Between knots the upper bound is left-continuous, U(x) = U(x_i) on
    (x_{i-1}, x_i], and the lower bound is right-continuous, L(x) = L(x_i)
    on [x_i, x_{i+1}). Outside the knot range the defining optimizations
    are empty on one side: upper is 1 right of the last knot and lower is
    0 left of the first; the remaining two tails continue the end levels.
    Both level arrays are nondecreasing. Lower may exceed upper at a knot
    (a crossing); diagnostics consume that, nothing here forbids it.
    """

    knots: np.ndarray
    lower_levels: np.ndarray
    upper_levels: np.ndarray


def _pair_chunks(data, family):
    """Yield (js, ks, z, m, rows, starts) for runs of whole family rows.

    Each chunk holds about _PAIR_CHUNK pairs (at least one row), row-major;
    rows are the chunk's start indices and starts the offset of each row.
    """
    b = data.group_bounds
    ps = data.prefix_sums[b]
    row_j = family.row_j
    k_values = family.k_values
    first = family.row_first_k
    row_sizes = k_values.shape[0] - first
    cum = np.concatenate(([0], np.cumsum(row_sizes)))
    n_rows = row_j.shape[0]
    r0 = 0
    while r0 < n_rows:
        r1 = int(np.searchsorted(cum, cum[r0] + _PAIR_CHUNK, side="left"))
        r1 = min(max(r1, r0 + 1), n_rows)
        js = np.repeat(row_j[r0:r1], row_sizes[r0:r1])
        ks = np.concatenate([k_values[f:] for f in first[r0:r1].tolist()])
        starts = cum[r0:r1] - cum[r0]
        yield js, ks, ps[ks + 1] - ps[js], b[ks + 1] - b[js], row_j[r0:r1], starts
        r0 = r1


class _Survivors:
    """Pairs kept for one side, bounded exactly in batches of _CHUNK_MIN.

    Each chunk keeps only a fraction of its pairs, so batching across
    chunks keeps cp_bounds_batch calls few, which bounds the per-call
    overhead, while _CHUNK_MIN bounds the memory a batch holds.
    """

    def __init__(self, delta, upper, out):
        self.delta = delta
        self.upper = upper
        self.out = out
        self.pieces = []
        self.size = 0

    def add(self, keep, z, m, index):
        self.pieces.append((z[keep], m[keep], index[keep]))
        self.size += self.pieces[-1][0].shape[0]
        if self.size >= _CHUNK_MIN:
            self.flush()

    def flush(self):
        if not self.size:
            return
        z, m, index = (np.concatenate(p) for p in zip(*self.pieces))
        self.pieces, self.size = [], 0
        lo, up = cp_bounds_batch(
            z, m, self.delta, lower_where=not self.upper, upper_where=self.upper
        )
        if self.upper:
            np.minimum.at(self.out, index, up)
        else:
            np.maximum.at(self.out, index, lo)


def _delta(data, family, alpha):
    """Per-pair level alpha / correction, after checking the arguments."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if family.n_groups != data.n_groups:
        raise ValueError("index family was built from different data")
    return alpha / family.correction


def _bracket_levels(data, family, delta):
    """Per-knot brackets (L_lo, L_hi, U_lo, U_hi) around the band's levels.

    L_lo and L_hi are prefix-maxima over columns k' <= k of the lower
    brackets' two ends, U_lo and U_hi suffix-minima over rows j' >= j of
    the upper brackets' two ends; so L_lo <= lower <= L_hi and
    U_lo <= upper <= U_hi at every knot with a pair on that side. A knot
    with no pair on a side gets -inf (lower) or +inf (upper).
    """
    n_groups = data.n_groups
    rowmin = np.full((2, n_groups), np.inf)
    colmax = np.full((2, n_groups), -np.inf)
    for _, ks, z, m, rows, starts in _pair_chunks(data, family):
        lower_lo, lower_hi, upper_lo, upper_hi = cp_brackets(z, m, delta)
        rowmin[0, rows] = np.minimum.reduceat(upper_lo, starts)
        rowmin[1, rows] = np.minimum.reduceat(upper_hi, starts)
        np.maximum.at(colmax[0], ks, lower_lo)
        np.maximum.at(colmax[1], ks, lower_hi)
    L_lo, L_hi = np.maximum.accumulate(colmax, axis=1)
    U_lo, U_hi = np.minimum.accumulate(rowmin[:, ::-1], axis=1)[:, ::-1]
    return L_lo, L_hi, U_lo, U_hi


def _exact_levels(data, family, delta, cap_u, floor_l):
    """Exact (upper, lower) levels over the pairs whose brackets pass.

    A pair's upper side is bounded exactly only if the low end of its
    upper bracket is <= cap_u[j], its lower side only if the high end of
    its lower bracket is >= floor_l[k]; upper is the suffix-min over rows
    of those exact upper bounds, lower the prefix-max over columns of the
    exact lower bounds, and a knot with no such pair gets +inf or -inf.

    The test runs on tightened brackets and caps, in two sweeps that each
    hold one chunk of pairs at a time. The first refines the outer ends
    (_kl_brackets) of the sides whose cp_brackets pass and sweeps them
    into tighter caps and floors, each the min or max with the given one:
    the outer ends of any subset of pairs cap the levels. The second
    refines the inner ends of the sides whose cp_brackets pass the tighter
    caps and floors, and bounds exactly the sides whose refined ends pass
    them too.
    """
    n_groups = data.n_groups
    rowmin_u = np.full(n_groups, np.inf)
    colmax_l = np.full(n_groups, -np.inf)
    for js, ks, z, m, rows, starts in _pair_chunks(data, family):
        lower_lo, lower_hi, upper_lo, upper_hi = cp_brackets(z, m, delta)
        up = upper_lo <= cap_u[js]
        hi_u = np.full(z.shape, np.inf)
        hi_u[up] = _kl_brackets(
            z[up], m[up], delta, upper_lo[up], upper_hi[up], True, inner=False
        )[1]
        rowmin_u[rows] = np.minimum.reduceat(hi_u, starts)
        lo = lower_hi >= floor_l[ks]
        lo_l = _kl_brackets(
            z[lo], m[lo], delta, lower_lo[lo], lower_hi[lo], False, inner=False
        )[0]
        np.maximum.at(colmax_l, ks[lo], lo_l)
    cap_u = np.minimum(cap_u, np.minimum.accumulate(rowmin_u[::-1])[::-1])
    floor_l = np.maximum(floor_l, np.maximum.accumulate(colmax_l))

    rowmin_u = np.full(n_groups, np.inf)
    colmax_l = np.full(n_groups, -np.inf)
    uppers = _Survivors(delta, True, rowmin_u)
    lowers = _Survivors(delta, False, colmax_l)
    for js, ks, z, m, _, _ in _pair_chunks(data, family):
        lower_lo, lower_hi, upper_lo, upper_hi = cp_brackets(z, m, delta)
        up = np.flatnonzero(upper_lo <= cap_u[js])
        lo_u = _kl_brackets(
            z[up], m[up], delta, upper_lo[up], upper_hi[up], True, outer=False
        )[0]
        uppers.add(lo_u <= cap_u[js[up]], z[up], m[up], js[up])
        lo = np.flatnonzero(lower_hi >= floor_l[ks])
        hi_l = _kl_brackets(
            z[lo], m[lo], delta, lower_lo[lo], lower_hi[lo], False, outer=False
        )[1]
        lowers.add(hi_l >= floor_l[ks[lo]], z[lo], m[lo], ks[lo])
    uppers.flush()
    lowers.flush()
    upper = np.minimum.accumulate(rowmin_u[::-1])[::-1]
    lower = np.maximum.accumulate(colmax_l)
    return upper, lower


def raw_band(data, family, alpha):
    """Bonferroni-combined Clopper-Pearson band over an index family.

    Parameters
    ----------
    data : SortedBinaryData
    family : IndexPairFamily
        Built from the same data.
    alpha : float in (0, 1)
        Simultaneous significance level; each pair bound runs at
        alpha / family.correction.

    Returns
    -------
    StepBand
        upper(x_i) = min over pairs with j >= i of the pair's upper bound,
        lower(x_i) = max over pairs with k <= i of the pair's lower bound,
        with empty min = 1 and empty max = 0.

    The bracket pass (_bracket_levels) sweeps the closed-form brackets of
    cp_brackets into per-knot levels; U_hi[j] caps upper(x_j) and L_lo[k]
    floors lower(x_k). The exact pass (_exact_levels) sweeps the refined
    outer ends (_kl_brackets) of the pairs that pass these into tighter
    caps U'[j] <= U_hi[j] and floors L'[k] >= L_lo[k]; a cap from any
    subset of the pairs still caps the level, since each outer end lies
    above its pair's bound. It then bounds a pair's upper side only if
    the low end of its refined upper bracket is <= U'[j], and its lower
    side only if the high end of its refined lower bracket is >= L'[k].
    The band is the same as bounding every pair: the pair attaining
    upper(x_i) has j >= i and a bound <= upper(x_j) <= U'[j], so its
    bracket passes the test (likewise for the lower side), because
    cp_bounds_batch keeps every bound inside its refined bracket, which
    lies inside its closed-form one.
    """
    delta = _delta(data, family, alpha)
    L_lo, _, _, U_hi = _bracket_levels(data, family, delta)
    upper, lower = _exact_levels(data, family, delta, U_hi, L_lo)
    upper = np.where(np.isfinite(upper), upper, 1.0)
    lower = np.where(np.isfinite(lower), lower, 0.0)
    return StepBand(
        knots=data.distinct_x.copy(), lower_levels=lower, upper_levels=upper
    )


def raw_band_crosses(data, family, alpha):
    """Whether raw_band(data, family, alpha) has lower > upper at some knot.

    The same answer as building the band and comparing its levels, from
    fewer exact bounds. Upper levels are nondecreasing, so a crossing on
    the open piece after a knot implies one at the knot; knots suffice.
    The bracket levels decide most calls alone: L_lo > U_hi at a knot
    proves a crossing, L_hi <= U_lo at every knot rules one out. Otherwise
    a pair's upper side is bounded exactly only if the low end of its
    upper bracket is <= min(U_hi, L_hi)[j], and its lower side only if the
    high end of its lower bracket is >= max(L_lo, U_lo)[k], with the
    brackets and the U_hi and L_lo parts tightened as in raw_band. If the
    band crosses at x_i, the pair b attaining upper(x_i) passes: its bound
    is upper(x_{j_b}) <= U_hi[j_b], and it lies below lower(x_i) <=
    lower(x_{j_b}) <= L_hi[j_b]; the pair attaining lower(x_i) passes in
    the mirror image, so the passing pairs' levels cross at x_i too. The
    levels of a subset of pairs are never tighter than the band's, so
    they cross only where the band crosses.
    """
    delta = _delta(data, family, alpha)
    L_lo, L_hi, U_lo, U_hi = _bracket_levels(data, family, delta)
    if (L_lo > U_hi).any():
        return True
    if (L_hi <= U_lo).all():
        return False
    upper, lower = _exact_levels(
        data, family, delta, np.minimum(U_hi, L_hi), np.maximum(L_lo, U_lo)
    )
    return bool((lower > upper).any())


def noncrossing_band(raw, fit):
    """Repair a raw band so it always sandwiches the isotonic fit.

    Pointwise at each knot: lower becomes min(lower, fitted value), upper
    becomes max(upper, fitted value). Coverage is inherited from the raw
    band because the repair only widens it.
    """
    if fit.n_groups != raw.knots.shape[0]:
        raise ValueError("fit and band disagree on the number of tie groups")
    g = fit.group_levels()
    return StepBand(
        knots=raw.knots,
        lower_levels=np.minimum(raw.lower_levels, g),
        upper_levels=np.maximum(raw.upper_levels, g),
    )


def yb_band(data, fit, alpha):
    """Hoeffding-style band around isotonic block averages.

    upper(x_i) is the minimum over pairs (j, k) with x_j >= x_i of the
    block average of fitted values plus sqrt(log((N^2+N)/alpha)/(2 m));
    lower mirrors it with a minus. The minimum is attained with j = i and
    k a right end of a constancy region (symmetrically for the lower
    bound), so only O(N * #blocks) candidates are evaluated. Levels are
    clipped into [0, 1] at the end; clipping is monotone, so it commutes
    with the minimization.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    n_groups = data.n_groups
    if fit.n_groups != n_groups:
        raise ValueError("fit was built from different data")
    b = data.group_bounds
    sizes = data.group_sizes.astype(np.float64)
    fiso = np.concatenate(([0.0], np.cumsum(fit.group_levels() * sizes)))
    logterm = math.log((n_groups * n_groups + n_groups) / alpha)

    upper = np.empty(n_groups, dtype=np.float64)
    lower = np.empty(n_groups, dtype=np.float64)
    lefts = fit.block_starts
    rights = fit.block_ends
    for blk in range(fit.n_blocks):
        i_all = np.arange(lefts[blk], rights[blk] + 1, dtype=np.int64)
        k_arr = rights[blk:]
        j_arr = lefts[: blk + 1]
        width = max(k_arr.shape[0], j_arr.shape[0])
        step = max(1, _YB_CHUNK // width)
        for c0 in range(0, i_all.shape[0], step):
            i_arr = i_all[c0 : c0 + step]
            den = (b[k_arr + 1][None, :] - b[i_arr][:, None]).astype(np.float64)
            vals = (fiso[k_arr + 1][None, :] - fiso[i_arr][:, None]) / den
            vals += np.sqrt(logterm / (2.0 * den))
            upper[i_arr] = vals.min(axis=1)
            den = (b[i_arr + 1][:, None] - b[j_arr][None, :]).astype(np.float64)
            vals = (fiso[i_arr + 1][:, None] - fiso[j_arr][None, :]) / den
            vals -= np.sqrt(logterm / (2.0 * den))
            lower[i_arr] = vals.max(axis=1)

    np.clip(upper, 0.0, 1.0, out=upper)
    np.clip(lower, 0.0, 1.0, out=lower)
    return StepBand(
        knots=data.distinct_x.copy(), lower_levels=lower, upper_levels=upper
    )


def evaluate_band(band, x, extrapolate):
    """Evaluate (lower, upper) at x, honoring the continuity conventions.

    At a knot both levels are the knot's own; strictly between knots the
    lower bound carries over from the left knot and the upper bound from
    the right. With extrapolate=False, x outside [first knot, last knot]
    raises; with True, the step functions continue per the sentinel rules
    (lower 0 left / end level right, upper start level left / 1 right).
    Accepts a scalar or an array and returns matching shapes.
    """
    knots = band.knots
    xarr = np.asarray(x, dtype=np.float64)
    scalar = xarr.ndim == 0
    xq = np.atleast_1d(xarr)
    if not extrapolate:
        if (xq < knots[0]).any() or (xq > knots[-1]).any():
            raise ValueError(
                "x outside the observed covariate range; pass extrapolate=True"
            )
    n = knots.shape[0]
    ui = np.searchsorted(knots, xq, side="left")
    upper = np.where(
        ui == n, 1.0, band.upper_levels[np.minimum(ui, n - 1)]
    )
    li = np.searchsorted(knots, xq, side="right") - 1
    lower = np.where(li < 0, 0.0, band.lower_levels[np.maximum(li, 0)])
    if scalar:
        return float(lower[0]), float(upper[0])
    return lower, upper
