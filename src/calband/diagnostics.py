"""Calibration and isotonicity diagnostics derived from a band.

The verdict machinery does exact interval arithmetic on the band's step
pieces, so reported regions are not grid approximations. The isotonicity
test inverts band construction over alpha; its p-value is the smallest
level at which the lower bound overtakes the upper somewhere.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import raw_band
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
    p_value: float


def _segments(band, lo, hi):
    """Decompose [lo, hi] into alternating point/open pieces with levels.

    Yields (a, b, a_incl, b_incl, lower, upper); point pieces have a == b.
    Assumes lo <= knots[0] and knots[-1] <= hi.
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


def _merge_intervals(parts):
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
    parts = []
    for a, b, ai, bi, low, up in _segments(band, 0.0, 1.0):
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
    regions = _merge_intervals(parts)

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
    # never crosses skips building the segment list (about 2N tuples)
    if not _band_crosses(band):
        return []
    parts = []
    for a, b, ai, bi, low, up in _segments(band, float(band.knots[0]), float(band.knots[-1])):
        if low > up:
            parts.append((a, b, ai, bi))
    return _merge_intervals(parts)


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
    toward the empirical rate), so bisection to 1e-4 with about 14 band
    rebuilds locates the infimum. Returns 1.0 when even alpha just below
    one produces no crossing.
    """
    hi = _PVALUE_ALPHA_HI
    if not _band_crosses(raw_band(data, family, hi)):
        return 1.0
    lo = _PVALUE_ALPHA_LO
    if _band_crosses(raw_band(data, family, lo)):
        return 0.0
    while hi - lo > _PVALUE_TOL:
        mid = 0.5 * (lo + hi)
        if _band_crosses(raw_band(data, family, mid)):
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
    referred to chi-square with (#bins - 2) degrees of freedom.
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
    return HosmerLemeshowResult(
        statistic=stat, p_value=chi2_survival(stat, len(bins) - 2)
    )
