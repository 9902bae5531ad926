"""Calibration and isotonicity diagnostics derived from a band.

The verdict machinery does exact interval arithmetic on the band's step
pieces, held as arrays, so reported regions are not grid approximations.
The isotonicity test inverts band construction over alpha; its p-value is
the smallest level at which the lower bound overtakes the upper somewhere,
found by bisection on bands.raw_band_crosses, which decides crossing
without building the band.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import raw_band, raw_band_crosses
from .special import chi2_survival

__all__ = [
    "CalibrationVerdict",
    "IsotonicityReport",
    "HosmerLemeshowResult",
    "calibration_verdict",
    "isotonicity_pvalue",
    "isotonicity_report",
    "gamma_lower_bound",
    "hosmer_lemeshow",
]

_PVALUE_TOL = 1e-4
_PVALUE_ALPHA_HI = 1.0 - 1e-6
_PVALUE_ALPHA_LO = 1e-8


@dataclass(frozen=True)
class CalibrationVerdict:
    """Outcome of testing p(x) = x against a band on [0, 1].

    miscalibrated_regions are the maximal x-intervals where the diagonal
    leaves [lower, upper]. epsilon_certificate is the largest margin by
    which it does so, max over x of max(lower(x)-x, x-upper(x), 0): a
    certified lower confidence bound on the worst-case miscalibration
    sup |p(x)-x|, and 0 exactly when the diagonal stays inside.
    """

    classical_reject: bool
    miscalibrated_regions: list
    epsilon_certificate: float


@dataclass(frozen=True)
class IsotonicityReport:
    """Isotonicity test summary at a fixed working level alpha."""

    p_value: float
    gamma_hat: float
    crossing_regions: list
    alpha: float


class HosmerLemeshowResult(NamedTuple):
    statistic: float
    p_value: float | None


def _pieces(band, lo, hi):
    """Decompose [lo, hi] into alternating point/open pieces with levels.

    Returns arrays (a, b, a_incl, b_incl, lower, upper), one entry per
    piece in left-to-right order; point pieces have a == b. Assumes
    lo <= knots[0] and knots[-1] <= hi.
    """
    knots = band.knots
    n = knots.shape[0]
    # gap 0, knot 0, gap 1, ..., knot n-1, gap n: gap 0 is [lo, knots[0])
    # at lower level 0, gap n is (knots[-1], hi] at upper level 1, and the
    # gap after knot i carries (lower[i], upper[i+1])
    a = np.repeat(np.concatenate(([lo], knots)), 2)[1:]
    b = np.repeat(np.concatenate((knots, [hi])), 2)[:-1]
    lower = np.repeat(np.concatenate(([0.0], band.lower_levels)), 2)[1:]
    upper = np.repeat(np.concatenate((band.upper_levels, [1.0])), 2)[:-1]
    a_incl = np.zeros(2 * n + 1, dtype=bool)
    a_incl[1::2] = True
    b_incl = a_incl.copy()
    a_incl[0] = True
    b_incl[-1] = True
    keep = np.ones(2 * n + 1, dtype=bool)
    keep[0] = lo < knots[0]
    keep[-1] = knots[-1] < hi
    return a[keep], b[keep], a_incl[keep], b_incl[keep], lower[keep], upper[keep]


def _merge(lo, hi, lo_incl, hi_incl):
    """Merge interval parts, given as arrays, into a list of (lo, hi) tuples.

    Two parts join when they overlap or when they touch at a point that at
    least one of them contains; an uncovered single point keeps its
    neighbors apart. After a stable sort by (lo, not lo_incl), a part
    opens a new region when it starts right of the running maximum end,
    or at it when neither that end nor the part's start is included. A
    part that opens a region ends strictly right of every earlier part
    (only included points are degenerate), so the running maximum over
    all earlier parts is the current region's end, and its inclusion is
    whether any part ending exactly there includes its end.
    """
    if lo.shape[0] == 0:
        return []
    order = np.lexsort((~lo_incl, lo))
    lo, hi, lo_incl, hi_incl = lo[order], hi[order], lo_incl[order], hi_incl[order]
    end = np.maximum.accumulate(hi)
    idx = np.arange(hi.shape[0])
    # index of the latest part that ends at the running maximum, included;
    # it counts for the run of equal maxima it belongs to
    run_start = np.maximum.accumulate(
        np.where(np.concatenate(([True], end[1:] != end[:-1])), idx, 0)
    )
    last_incl = np.maximum.accumulate(np.where((hi == end) & hi_incl, idx, -1))
    end_incl = last_incl >= run_start
    opens = np.empty(hi.shape[0], dtype=bool)
    opens[0] = True
    opens[1:] = (lo[1:] > end[:-1]) | (
        (lo[1:] == end[:-1]) & ~end_incl[:-1] & ~lo_incl[1:]
    )
    first = np.flatnonzero(opens)
    return list(zip(lo[first].tolist(), np.maximum.reduceat(hi, first).tolist()))


def calibration_verdict(band):
    """Test whether the band excludes the diagonal anywhere on [0, 1].

    The band is taken with its constant extrapolation, so the verdict is
    about all of [0, 1], not just the observed covariate range. Raises if
    the band's knots leave the unit interval.
    """
    knots = band.knots
    if knots[0] < 0.0 or knots[-1] > 1.0:
        raise ValueError(
            "band domain exceeds [0, 1]; the diagonal verdict is undefined "
            "for general covariates"
        )
    a, b, ai, bi, low, up = _pieces(band, 0.0, 1.0)
    point = a == b
    # each piece gives up to two parts, in this order: the diagonal at a
    # point outside [low, up], or below the lower level on [a, min(b, low));
    # then the diagonal above the upper level on (max(a, up), b]
    first = np.where(point, (a < low) | (a > up), low > a)
    keep = np.stack((first, ~point & (up < b)), axis=1)
    lo = np.stack((a, np.maximum(a, up)), axis=1)[keep]
    hi = np.stack((np.where(point, a, np.minimum(b, low)), b), axis=1)[keep]
    lo_incl = np.stack((ai, ai & (a > up)), axis=1)[keep]
    hi_incl = np.stack((point | (bi & (b < low)), bi), axis=1)[keep]
    regions = _merge(lo, hi, lo_incl, hi_incl)

    x = knots
    eps_arr = np.maximum(band.lower_levels - x, x - band.upper_levels)
    eps = float(max(0.0, eps_arr.max()))
    return CalibrationVerdict(
        classical_reject=bool(regions),
        miscalibrated_regions=regions,
        epsilon_certificate=eps,
    )


def _band_crosses(band):
    # Knots carry (L_i, U_i); the open piece after knot i carries
    # (L_i, U_{i+1}). Upper levels are nondecreasing, so the piece check
    # cannot fire without the knot check, but it is the documented
    # complete criterion and costs one comparison.
    low = band.lower_levels
    up = band.upper_levels
    if bool((low > up).any()):
        return True
    return bool((low[:-1] > up[1:]).any())


def _crossing_regions(band):
    # _band_crosses tests exactly the pieces scanned below, so a band that
    # never crosses skips building the piece arrays
    if not _band_crosses(band):
        return []
    a, b, ai, bi, low, up = _pieces(band, band.knots[0], band.knots[-1])
    cross = low > up
    return _merge(a[cross], b[cross], ai[cross], bi[cross])


def _gamma_from_band(band):
    low = band.lower_levels
    up = band.upper_levels
    best = float((low - up).max())
    if low.shape[0] > 1:
        best = max(best, float((low[:-1] - up[1:]).max()))
    return 0.5 * max(0.0, best)


def isotonicity_pvalue(data, family):
    """Smallest alpha at which the raw band crosses itself.

    Crossing is monotone in alpha (larger alpha shrinks every pair bound
    toward the empirical rate), so bisection in alpha to 1e-4 locates the
    infimum. Each probe asks raw_band_crosses, which decides most levels
    from closed-form brackets and bounds exactly only the pairs that can
    set a crossing level, instead of building the band. Returns 1.0 when
    even alpha just below one produces no crossing, and 0.0 when the band
    already crosses at 1e-8.
    """
    hi = _PVALUE_ALPHA_HI
    if not raw_band_crosses(data, family, hi):
        return 1.0
    lo = _PVALUE_ALPHA_LO
    if raw_band_crosses(data, family, lo):
        return 0.0
    while hi - lo > _PVALUE_TOL:
        mid = 0.5 * (lo + hi)
        if raw_band_crosses(data, family, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def gamma_lower_bound(data, family, alpha):
    """Lower (1-alpha)-confidence bound on the non-isotonicity measure.

    Half the largest amount by which the raw band's lower bound exceeds
    its upper bound, zero when they never cross.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    return _gamma_from_band(raw_band(data, family, alpha))


def isotonicity_report(data, family, band, alpha):
    """Bundle p-value, gamma bound, and crossing regions at one level.

    band is raw_band(data, family, alpha), which the caller has already
    built for its own use; the report reads gamma and the crossing regions
    from it instead of building it again.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    return IsotonicityReport(
        p_value=isotonicity_pvalue(data, family),
        gamma_hat=_gamma_from_band(band),
        crossing_regions=_crossing_regions(band),
        alpha=alpha,
    )


def hosmer_lemeshow(data, g=10):
    """Classical binned chi-square goodness-of-fit test.

    Predictions are split into g equal-count bins (deciles of risk for
    g=10); a tie run straddling a cut is kept whole in the lower bin.
    The statistic sums (O-E)^2 / (E (1 - E/n_g)) over bins and is
    referred to chi-square with (#bins - 2) degrees of freedom. Two bins
    leave none, and p_value is then None.
    """
    n = data.n
    if g < 2:
        raise ValueError(f"need at least 2 bins, got g={g}")
    if n < g:
        raise ValueError(f"need at least g={g} observations, got n={n}")
    x = data.x
    y = data.y
    edges = [0]
    for t in range(1, g):
        cut = (n * t) // g
        while 0 < cut < n and x[cut] == x[cut - 1]:
            cut += 1
        edges.append(cut)
    edges.append(n)
    edges = sorted(set(edges))
    bins = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    if len(bins) < 2:
        raise ValueError("tie structure leaves fewer than 2 nonempty bins")
    if len(bins) < g:
        warnings.warn(
            f"tie grouping reduced {g} requested bins to {len(bins)}",
            stacklevel=2,
        )
    stat = 0.0
    for idx, (s, e) in enumerate(bins):
        n_g = e - s
        obs = float(y[s:e].sum())
        exp = float(x[s:e].sum())
        if exp == 0.0 or exp == float(n_g):
            raise ValueError(
                f"bin {idx + 1} of {len(bins)} has degenerate expected count "
                f"E={exp} for size {n_g}; the chi-square variance vanishes"
            )
        stat += (obs - exp) ** 2 / (exp * (1.0 - exp / n_g))
    df = len(bins) - 2
    return HosmerLemeshowResult(
        statistic=stat, p_value=chi2_survival(stat, df) if df else None
    )
