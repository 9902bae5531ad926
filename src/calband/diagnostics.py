"""Calibration and isotonicity diagnostics derived from a band.

The verdict machinery does exact interval arithmetic on the band's step
pieces, so reported regions are not grid approximations. The pieces are
built for a fixed number of knots at a time: each chunk's parts are
merged into regions that keep their end inclusion, and those regions are
joined across chunks, so no temporary grows with the number of knots.
The isotonicity test inverts band construction over alpha; its p-value is
the smallest level at which the lower bound overtakes the upper somewhere,
found by bisection on the crossing decision of bands._crosses, which
never builds the band. The raw band the caller built at its own alpha
answers the probes on its side of that alpha. The other probes carry a
crossing witness, two pair sides whose bounds cross, from one to the
next, starting with the band's own; most probes above a small p-value
are answered by its two exact bounds alone, and the closed-form bracket
levels rule out most of the rest.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# raw_band stays importable here: perfbench/traced.py wraps it in this namespace
from .bands import _crosses, raw_band  # noqa: F401
from .special import chi2_survival

__all__ = [
    "CalibrationVerdict",
    "IsotonicityReport",
    "HosmerLemeshowResult",
    "calibration_verdict",
    "isotonicity_pvalue",
    "isotonicity_report",
    "hosmer_lemeshow",
]

# knots per chunk of the verdict's and the crossing regions' pieces
_KNOT_CHUNK = 1 << 14
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


def _knot_chunks(n):
    """Slices of at most _KNOT_CHUNK consecutive knots, left to right."""
    return (slice(i, min(i + _KNOT_CHUNK, n)) for i in range(0, n, _KNOT_CHUNK))


def _knot_max(band, margin):
    """max over the knots of margin(knots, lower, upper), chunk by chunk."""
    return max(
        float(margin(band.knots[s], band.lower_levels[s], band.upper_levels[s]).max())
        for s in _knot_chunks(band.knots.shape[0])
    )


def _pieces(band, lo, hi):
    """Decompose [lo, hi] into alternating point/open pieces with levels.

    Yields arrays (a, b, a_incl, b_incl, lower, upper) for each chunk of
    knots, one entry per piece in left-to-right order; point pieces have
    a == b. A chunk holds each of its knots and the open piece before it,
    the last chunk also the piece after the last knot. Assumes
    lo <= knots[0] and knots[-1] <= hi.
    """
    knots = band.knots
    n = knots.shape[0]
    for s in _knot_chunks(n):
        i0, i1 = s.start, s.stop
        last = i1 == n
        # gap i0, knot i0, gap i0+1, ..., knot i1-1, gap i1: gap 0 is
        # [lo, knots[0]) at lower level 0, gap n is (knots[-1], hi] at upper
        # level 1, and the gap after knot i carries (lower[i], upper[i+1]);
        # gap i1 belongs to the next chunk unless this is the last
        left = knots[i0 - 1] if i0 else lo
        low_left = band.lower_levels[i0 - 1] if i0 else 0.0
        a = np.repeat(np.concatenate(([left], knots[s])), 2)[1:]
        b = np.repeat(np.concatenate((knots[s], [hi])), 2)[:-1]
        lower = np.repeat(np.concatenate(([low_left], band.lower_levels[s])), 2)[1:]
        upper = np.repeat(np.concatenate((band.upper_levels[s], [1.0])), 2)[:-1]
        count = 2 * (i1 - i0) + 1
        a_incl = np.zeros(count, dtype=bool)
        a_incl[1::2] = True
        b_incl = a_incl.copy()
        a_incl[0] = i0 == 0
        b_incl[-1] = True
        keep = np.ones(count, dtype=bool)
        keep[0] = i0 > 0 or lo < knots[0]
        keep[-1] = last and knots[-1] < hi
        yield a[keep], b[keep], a_incl[keep], b_incl[keep], lower[keep], upper[keep]


def _merge(lo, hi, lo_incl, hi_incl):
    """Merge interval parts, given as arrays, into regions with their ends.

    Two parts join when they overlap or when they touch at a point that at
    least one of them contains; an uncovered single point keeps its
    neighbors apart. After a stable sort by (lo, not lo_incl), a part
    opens a new region when it starts right of the running maximum end,
    or at it when neither that end nor the part's start is included. A
    part that opens a region ends strictly right of every earlier part
    (only included points are degenerate), so the running maximum over
    all earlier parts is the current region's end, and its inclusion is
    whether any part ending exactly there includes its end. Regions are
    returned as arrays (lo, hi, lo_incl, hi_incl) and are parts
    themselves: merging the regions of two sets of parts merges the sets.
    """
    if lo.shape[0] == 0:
        return lo, hi, lo_incl, hi_incl
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
    closes = np.append(first[1:] - 1, hi.shape[0] - 1)
    return lo[first], end[closes], lo_incl[first], end_incl[closes]


def _regions(chunk_parts):
    """Merge the parts of each chunk, then join the chunks' regions.

    chunk_parts yields (lo, hi, lo_incl, hi_incl) arrays, one set per
    chunk of knots. Returns the regions as a list of (lo, hi) floats.
    """
    merged = [_merge(*parts) for parts in chunk_parts]
    if not merged:
        return []
    lo, hi = _merge(*(np.concatenate(arrays) for arrays in zip(*merged)))[:2]
    return list(zip(lo.tolist(), hi.tolist()))


def _verdict_parts(band):
    """Per chunk of knots, where the diagonal leaves the band on [0, 1]."""
    for a, b, ai, bi, low, up in _pieces(band, 0.0, 1.0):
        point = a == b
        # each piece gives up to two parts, in this order: the diagonal at a
        # point outside [low, up], or below the lower level on
        # [a, min(b, low)); then the diagonal above the upper level on
        # (max(a, up), b]
        first = np.where(point, (a < low) | (a > up), low > a)
        keep = np.stack((first, ~point & (up < b)), axis=1)
        yield (
            np.stack((a, np.maximum(a, up)), axis=1)[keep],
            np.stack((np.where(point, a, np.minimum(b, low)), b), axis=1)[keep],
            np.stack((ai, ai & (a > up)), axis=1)[keep],
            np.stack((point | (bi & (b < low)), bi), axis=1)[keep],
        )


def calibration_verdict(band, regions_band=None):
    """Test whether the band excludes the diagonal anywhere on [0, 1].

    The band is taken with its constant extrapolation, so the verdict is
    about all of [0, 1], not just the observed covariate range. Raises if
    the band's knots leave the unit interval.

    regions_band, if given, is a band on the same knots that is nowhere
    narrower, such as the band with its levels rounded outward for
    printing; the regions are then read from it, so they end at its
    knots and levels and lie inside the band's own. classical_reject and
    epsilon_certificate are always the band's.
    """
    knots = band.knots
    if knots[0] < 0.0 or knots[-1] > 1.0:
        raise ValueError(
            "band domain exceeds [0, 1]; the diagonal verdict is undefined "
            "for general covariates"
        )
    # the diagonal leaves the band on a piece only if it does so at a knot
    eps = _knot_max(band, lambda x, low, up: np.maximum(low - x, x - up))
    if eps <= 0.0:
        regions = []
    else:
        regions = _regions(_verdict_parts(band if regions_band is None else regions_band))
    return CalibrationVerdict(
        classical_reject=eps > 0.0,
        miscalibrated_regions=regions,
        epsilon_certificate=max(0.0, eps),
    )


def _crossing_gap(band):
    """Largest amount by which the lower level exceeds the upper at a knot.

    The band crosses itself exactly when this is positive, and gamma_hat
    is half of it then. Knots suffice: the open piece after knot i carries
    (L_i, U_{i+1}), and upper levels never decrease, so no piece overlaps
    by more than the knot before it.
    """
    return _knot_max(band, lambda x, low, up: low - up)


def _crossing_parts(band):
    """Per chunk of knots, the pieces where the lower level exceeds the upper."""
    for a, b, ai, bi, low, up in _pieces(band, band.knots[0], band.knots[-1]):
        cross = low > up
        yield a[cross], b[cross], ai[cross], bi[cross]


def _crossing_regions(band):
    # a band that never crosses skips building the pieces
    if _crossing_gap(band) <= 0.0:
        return []
    return _regions(_crossing_parts(band))


def isotonicity_pvalue(data, family, band=None):
    """Smallest alpha at which the raw band crosses itself.

    Crossing is monotone in alpha (larger alpha shrinks every pair bound
    toward the empirical rate), so bisection in alpha to 1e-4 locates the
    infimum. No probe builds the band. Each carries the witness the last
    crossing left (bands._crosses): two pair sides whose bounds, computed
    at the probe's alpha, prove a crossing when the lower one exceeds the
    upper one. Only when the witness fails does the probe decide in full:
    closed-form inner brackets rule a crossing out, and exact bounds on
    the pairs that can set a crossing level decide the rest.

    band, if given, is raw_band(data, family, alpha) at some alpha, which
    the caller has built already; it answers the probes on its side of
    alpha. If it crosses, every probe at or above its alpha crosses, and
    the first probe below starts from its witness; if not, no probe at or
    below its alpha crosses. The probe at 1e-8 comes last, and only if no
    midpoint answered False: one that did puts it below the crossing.
    These answers use the monotonicity the bisection itself assumes. It
    holds for the computed bounds too: an exact Clopper-Pearson bound
    moves strictly monotonically with alpha, a computed one lies within
    about 1e-13 relative of it, and between two probes of the bisection,
    or a probe and the band's alpha, each bound moves by far more than
    that. So the answers, hence the p-value, are those of building the
    band at every probe. Returns 1.0 when even alpha just below one
    produces no crossing, and 0.0 when the band already crosses at 1e-8.
    """
    known = band is not None and band.alpha is not None
    witness = band.witness if known else None

    def crosses(alpha):
        nonlocal witness
        if known:
            crossed = band.witness is not None
            if (alpha >= band.alpha) if crossed else (alpha <= band.alpha):
                return crossed
        answer, witness = _crosses(data, family, alpha, witness)
        return answer

    hi = _PVALUE_ALPHA_HI
    if not crosses(hi):
        return 1.0
    lo = _PVALUE_ALPHA_LO
    while hi - lo > _PVALUE_TOL:
        mid = 0.5 * (lo + hi)
        if crosses(mid):
            hi = mid
        else:
            lo = mid
    if lo == _PVALUE_ALPHA_LO and crosses(lo):
        return 0.0
    return 0.5 * (lo + hi)


def isotonicity_report(data, family, band, alpha):
    """Bundle p-value, gamma bound, and crossing regions at one level.

    band is raw_band(data, family, alpha), which the caller has already
    built for its own use; the report reads gamma and the crossing regions
    from it instead of building it again, and the p-value starts from it.
    A band that records another alpha raises ValueError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if band.alpha is not None and band.alpha != alpha:
        raise ValueError(f"band was built at alpha={band.alpha}, not {alpha}")
    return IsotonicityReport(
        p_value=isotonicity_pvalue(data, family, band),
        gamma_hat=0.5 * max(0.0, _crossing_gap(band)),
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
    # each cut n t / g moves right to the next group boundary, so a tie
    # run straddling it stays whole in the lower bin
    bounds = data.group_bounds
    cuts = n * np.arange(g + 1) // g
    edges = np.unique(bounds[np.searchsorted(bounds, cuts)]).tolist()
    bins = list(zip(edges[:-1], edges[1:]))
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
        obs = float(data.prefix_sums[e] - data.prefix_sums[s])
        # summed over the slice, as the statistic's bits depend on the order
        exp = float(data.x[s:e].sum())
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
