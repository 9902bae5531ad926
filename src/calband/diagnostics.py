"""Calibration and isotonicity diagnostics derived from a band.

The verdict and the crossing regions are exact interval arithmetic on
the band's level arrays, so reported regions are not grid approximations.
Each knot's parts come from its levels and its neighbours, a fixed number
of knots at a time: each chunk's parts are merged into regions that keep
their end inclusion, and those are joined across chunks, so no temporary
grows with the number of knots.
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

# knots per chunk of the verdict's and the crossing regions' parts
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


def _neighbour(values, s, step, edge):
    """values[i + step] for each knot i of the chunk s, edge past either end."""
    i0, i1 = s.start + step, s.stop + step
    n = values.shape[0]
    return np.concatenate(
        ([edge] if i0 < 0 else [], values[max(i0, 0) : min(i1, n)], [edge] if i1 > n else [])
    )


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
    """Per chunk of knots, where the diagonal leaves the band on [0, 1].

    With x_{-1} = 0 and x_N = 1, the diagonal lies below the lower level
    L_i on [x_i, min(x_{i+1}, L_i)) when L_i > x_i, and above the upper
    level U_i on (max(x_{i-1}, U_i), x_i] when U_i < x_i, the levels of the
    open pieces after and before knot i. A part also holds its far end
    when the level passes it: an edge of [0, 1] is outside the band then,
    and a neighbour knot is in its own part, as the levels never decrease.
    """
    knots = band.knots
    for s in _knot_chunks(knots.shape[0]):
        x, low, up = knots[s], band.lower_levels[s], band.upper_levels[s]
        prev, nxt = _neighbour(knots, s, -1, 0.0), _neighbour(knots, s, 1, 1.0)
        closed = np.ones(x.shape[0], dtype=bool)
        keep = np.stack((low > x, up < x), axis=1)
        yield (
            np.stack((x, np.maximum(prev, up)), axis=1)[keep],
            np.stack((np.minimum(nxt, low), x), axis=1)[keep],
            np.stack((closed, up < prev), axis=1)[keep],
            np.stack((low > nxt, closed), axis=1)[keep],
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
    """Per chunk of knots, where the lower level exceeds the upper.

    The band crosses on [x_i, x_i] when L_i > U_i, and on [x_i, x_{i+1}]
    when also L_i > U_{i+1}, the upper level on the open piece after knot
    i. The levels never decrease, so an open piece crosses only if the
    knots on both sides of it do.
    """
    knots, low, up = band.knots, band.lower_levels, band.upper_levels
    for s in _knot_chunks(knots.shape[0]):
        cross = low[s] > up[s]
        after = low[s] > _neighbour(up, s, 1, np.inf)
        hi = np.where(after, _neighbour(knots, s, 1, np.inf), knots[s])[cross]
        closed = np.ones(hi.shape[0], dtype=bool)
        yield knots[s][cross], hi, closed, closed


def _crossing_regions(band):
    # a band that never crosses builds no parts
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
    edges = bounds[np.searchsorted(bounds, cuts)]
    # sorted, so drop adjacent repeats; np.unique would import numpy.ma
    edges = edges[np.r_[True, edges[1:] != edges[:-1]]].tolist()
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
