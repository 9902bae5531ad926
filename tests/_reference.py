"""Reference implementations the fast code is checked against.

Everything here prefers being obviously correct to being fast: direct
summation, exhaustive enumeration, per-knot double loops. The band
references intentionally share the per-pair bound formulas with the
library, so equality checks isolate the combination logic (sweeps,
candidate restrictions); the bound values themselves are verified
independently against the binomial-CDF inversion oracle below.
"""

import json
import math

import numpy as np

from calband.bands import StepBand, raw_band
from calband.isotonic import build_sorted_data
from calband.special import cp_bounds_batch


def binom_cdf_direct(z, m, xi):
    """P(Bin(m, xi) <= z) by plain summation with exact binomial weights."""
    if z < 0:
        return 0.0
    if z >= m:
        return 1.0
    terms = [
        math.comb(m, i) * xi**i * (1.0 - xi) ** (m - i) for i in range(z + 1)
    ]
    return min(math.fsum(terms), 1.0)


def cp_upper_by_inversion(z, m, delta, tol=1e-12):
    """Largest xi with P(Bin(m, xi) <= z) >= delta, found by bisection.

    The CDF is continuous and decreasing in xi, equal to 1 at xi=0, so the
    feasible set is a closed interval [0, root].
    """
    if z >= m:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if binom_cdf_direct(z, m, mid) >= delta:
            lo = mid
        else:
            hi = mid
    return lo


def cp_lower_by_inversion(z, m, delta, tol=1e-12):
    """Smallest xi with P(Bin(m, xi) >= z) >= delta, by the mirror image.

    P(Bin(m, xi) >= z) = P(Bin(m, 1 - xi) <= m - z), so the bound is 1 minus
    the upper bound of m - z; inverting that lower tail keeps full
    precision at small delta, where 1 - CDF would cancel.
    """
    if z <= 0:
        return 0.0
    return 1.0 - cp_upper_by_inversion(m - z, m, delta, tol)


def pava_exhaustive(data):
    """Isotonic least squares by enumerating consecutive-block partitions.

    Returns per-group fitted levels. The optimum is unique, so any feasible
    partition attaining the minimal weighted SSE induces the same levels.
    """
    bounds = data.group_bounds
    w = np.diff(bounds).astype(np.float64)
    ysum = np.diff(data.prefix_sums[bounds]).astype(np.float64)
    n_groups = w.shape[0]
    group_means = ysum / w
    best_levels = None
    best_sse = np.inf
    masks = range(1 << (n_groups - 1)) if n_groups > 1 else [0]
    for mask in masks:
        cuts = [g + 1 for g in range(n_groups - 1) if (mask >> g) & 1]
        starts = [0] + cuts
        ends = cuts + [n_groups]
        levels = np.empty(n_groups)
        prev = -np.inf
        feasible = True
        sse = 0.0
        for s, e in zip(starts, ends):
            mean = ysum[s:e].sum() / w[s:e].sum()
            if mean < prev:
                feasible = False
                break
            prev = mean
            levels[s:e] = mean
            sse += float((w[s:e] * (mean - group_means[s:e]) ** 2).sum())
        if feasible and sse < best_sse:
            best_sse = sse
            best_levels = levels
    return best_levels


def family_pairs(family):
    """Flat (j_indices, k_indices) arrays of a family, row-major by j then k."""
    sizes = family.k_values.shape[0] - family.row_first_k
    js = np.repeat(family.row_j, sizes)
    ks = [family.k_values[f:] for f in family.row_first_k.tolist()]
    return js, np.concatenate(ks) if ks else np.empty(0, dtype=np.int64)


def naive_raw_band(data, family, alpha):
    """Per-knot double loop over the materialized pair list."""
    delta = alpha / family.correction
    b = data.group_bounds
    ps = data.prefix_sums[b]
    js, ks = family_pairs(family)
    m = b[ks + 1] - b[js]
    z = ps[ks + 1] - ps[js]
    lo, up = cp_bounds_batch(z, m, delta)
    n_groups = data.n_groups
    lower = np.zeros(n_groups)
    upper = np.ones(n_groups)
    for i in range(n_groups):
        right = js >= i
        if right.any():
            upper[i] = up[right].min()
        left = ks <= i
        if left.any():
            lower[i] = lo[left].max()
    return StepBand(
        knots=data.distinct_x.copy(), lower_levels=lower, upper_levels=upper
    )


def band_crosses(band):
    """Whether the lower level exceeds the upper level at some knot."""
    return bool((band.lower_levels > band.upper_levels).any())


def isotonicity_pvalue_by_rebuilds(data, family):
    """The p-value bisection that builds the whole raw band at every probe.

    Same endpoints (1e-8, 1 - 1e-6), tolerance (1e-4) and midpoints as the
    library, so the two must agree bit for bit.
    """
    hi = 1.0 - 1e-6
    if not band_crosses(raw_band(data, family, hi)):
        return 1.0
    lo = 1e-8
    if band_crosses(raw_band(data, family, lo)):
        return 0.0
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if band_crosses(raw_band(data, family, mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def segments(band, lo, hi):
    """Decompose [lo, hi] into alternating point/open pieces with levels.

    Returns a list of (a, b, a_incl, b_incl, lower, upper); point pieces
    have a == b. Assumes lo <= knots[0] and knots[-1] <= hi.
    """
    knots = band.knots
    low = band.lower_levels
    up = band.upper_levels
    n = knots.shape[0]
    segs = []
    if lo < knots[0]:
        segs.append((lo, float(knots[0]), True, False, 0.0, float(up[0])))
    for i in range(n):
        xi = float(knots[i])
        segs.append((xi, xi, True, True, float(low[i]), float(up[i])))
        if i + 1 < n:
            segs.append(
                (xi, float(knots[i + 1]), False, False, float(low[i]), float(up[i + 1]))
            )
    if knots[-1] < hi:
        segs.append((float(knots[-1]), hi, False, True, float(low[-1]), 1.0))
    return segs


def merge_intervals(parts):
    """Merge interval parts (lo, hi, lo_incl, hi_incl) into (lo, hi) tuples.

    Two parts join when they overlap or when they touch at a point that at
    least one of them contains; an uncovered single point keeps its
    neighbors apart.
    """
    if not parts:
        return []
    parts = sorted(parts, key=lambda p: (p[0], not p[2]))
    out = [list(parts[0])]
    for lo, hi, li, hi_incl in parts[1:]:
        cur = out[-1]
        if lo < cur[1] or (lo == cur[1] and (cur[3] or li)):
            if hi > cur[1]:
                cur[1] = hi
                cur[3] = hi_incl
            elif hi == cur[1]:
                cur[3] = cur[3] or hi_incl
        else:
            out.append([lo, hi, li, hi_incl])
    return [(p[0], p[1]) for p in out]


def miscalibrated_regions_loop(band):
    """Where the diagonal leaves a band on [0, 1], piece by piece."""
    parts = []
    for a, b, ai, bi, low, up in segments(band, 0.0, 1.0):
        if a == b:
            if a < low or a > up:
                parts.append((a, a, True, True))
            continue
        if low > a:
            # diagonal below the band's lower level on [a, min(b, low))
            parts.append((a, min(b, low), ai, bi and b < low))
        if up < b:
            # diagonal above the band's upper level on (max(a, up), b]
            parts.append((max(a, up), b, ai and a > up, bi))
    return merge_intervals(parts)


def crossing_regions_loop(band):
    """Where a band's lower level exceeds its upper level, piece by piece."""
    lo, hi = float(band.knots[0]), float(band.knots[-1])
    parts = [
        (a, b, ai, bi)
        for a, b, ai, bi, low, up in segments(band, lo, hi)
        if low > up
    ]
    return merge_intervals(parts)


def naive_yb_band(data, fit, alpha):
    """Per-knot optimization over every group pair, no candidate pruning.

    upper(x_i) minimizes over all j >= i and k >= j (the fast path keeps
    only j = i and block right-ends); lower mirrors it. Shares the fitted
    prefix sums and arithmetic expressions with the fast path.
    """
    n_groups = data.n_groups
    b = data.group_bounds
    sizes = np.diff(b).astype(np.float64)
    fiso = np.concatenate(([0.0], np.cumsum(fit.group_levels() * sizes)))
    logterm = math.log((n_groups * n_groups + n_groups) / alpha)
    lower = np.empty(n_groups)
    upper = np.empty(n_groups)
    for i in range(n_groups):
        best = np.inf
        for j in range(i, n_groups):
            k_arr = np.arange(j, n_groups, dtype=np.int64)
            den = (b[k_arr + 1] - b[j]).astype(np.float64)
            vals = (fiso[k_arr + 1] - fiso[j]) / den
            vals += np.sqrt(logterm / (2.0 * den))
            best = min(best, vals.min())
        upper[i] = best
        best = -np.inf
        for k in range(0, i + 1):
            j_arr = np.arange(0, k + 1, dtype=np.int64)
            den = (b[k + 1] - b[j_arr]).astype(np.float64)
            vals = (fiso[k + 1] - fiso[j_arr]) / den
            vals -= np.sqrt(logterm / (2.0 * den))
            best = max(best, vals.max())
        lower[i] = best
    np.clip(upper, 0.0, 1.0, out=upper)
    np.clip(lower, 0.0, 1.0, out=lower)
    return StepBand(
        knots=data.distinct_x.copy(), lower_levels=lower, upper_levels=upper
    )


def rounded_pairs_bruteforce(data, K, r_limit=None):
    """Group pairs of the rounding-restricted family by scanning windows.

    Walks every window [r/K, s/K] with 0 <= r <= s <= ceil(K * max x)
    and collects the (first, last) tie-group pair of the covariates it
    contains, using the same membership convention r <= K*x <= s in
    float64 the library documents. Only usable for small K * max(x).
    """
    kx = float(K) * data.distinct_x
    top = int(np.ceil(kx.max())) if r_limit is None else r_limit
    pairs = set()
    for r in range(0, top + 1):
        for s in range(r, top + 1):
            inside = np.flatnonzero((r <= kx) & (kx <= s))
            if inside.size:
                pairs.add((int(inside[0]), int(inside[-1])))
    return pairs


def random_sorted_data(rng, n):
    """Random dataset mixing continuous and heavily tied covariates,
    calibrated and arbitrary truths."""
    if rng.random() < 0.5:
        x = rng.random(n)
    else:
        levels = max(2, n // 3)
        x = rng.integers(0, levels, size=n) / levels
    if rng.random() < 0.5:
        p = rng.random(n)
    else:
        p = x
    y = (rng.random(n) < p).astype(np.float64)
    return build_sorted_data(np.column_stack((x, y)))


def dump_document(doc, fh):
    """`calband band` JSON as json.dump writes it: indent 2, then a newline."""
    json.dump(doc, fh, indent=2)
    fh.write("\n")
