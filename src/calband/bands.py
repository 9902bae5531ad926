"""Simultaneous confidence bands for calibration curves of binary outcomes.

Four constructions share one representation (StepBand): the raw band of
Bonferroni-combined Clopper-Pearson bounds over an index-pair family, its
non-crossing repair around the isotonic fit, the rounding-restricted
variant of that family, and the wider Hoeffding-style band around
isotonic block averages.

The raw band needs, per knot, one extreme over the family's pair bounds.
The engine works at family resolution: every level it keeps is per
family row (an upper level at a row's start knot row_j) or per family
column (a lower level at a column's end knot k_values), so its
temporaries scale with the family's rows and columns, never with the
number of knots. The upper level is constant from one row knot to the
next and the lower level from one column knot to the next, so nothing
is lost; raw_band repeats the levels over the knots once, at the end.

The bracket pass (_bracket_levels) sweeps the closed-form inner ends of
each bound's bracket into per-row and per-column levels and picks per
row and per column a champion side, the likeliest to set a level;
raw_band runs it on every fourth row and column only
(_strided_champions). _Survivors owns every exact bound: it bounds a
pair only if the pair's inner end reaches its cap, and each bound it
computes tightens the caps. It bounds the champions first; raw_band's
caps start infinite, so their bounds set the first caps. The exact pass
(_exact_levels) then sweeps once more, drops the pairs whose rate z/m
alone rules out both sides, tightens the inner ends of the sides that
pass the caps to the KL roots, and hands _Survivors the sides whose
tight inner end still reaches a cap. Levels come from monotone
suffix/prefix sweeps over rows and columns, so the full family costs
O(|family|) inner ends and at most that many exact bounds instead of
O(N * |family|). The result is bit-identical to bounding every pair;
raw_band's docstring gives the argument.
_crosses shares both passes to decide whether the band crosses without
building it, comparing the levels at the row knots only: the inner
bracket levels rule a crossing out at most alphas, the champions' bounds
prove most of the rest, and the exact pass then needs only the pairs
that can set a crossing level. Each crossing it finds also names a
witness, the lower and the upper bound that cross the most; the
isotonicity p-value's next probe bounds just those two sides at its own
alpha, and needs no pass over the pairs if they cross. raw_band records
the same witness from its own bounds when the band crosses, with the
alpha it was built at, so the p-value can start from the band.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import _BRACKET_SLACK, _inner_ends, _kl_inner, cp_bounds_batch

__all__ = [
    "IndexPairFamily",
    "StepBand",
    "full_index_family",
    "rounded_index_family",
    "raw_band",
    "noncrossing_band",
    "yb_band",
    "evaluate_band",
]

_PAIR_CHUNK = 1 << 14
_CHUNK_MIN = 200_000
_YB_CHUNK = 1 << 22
#: raw_band takes champions from every _CHAMPION_STRIDE-th family row and
#: column (and the last); the caps of the rows and columns between follow
#: from the suffix-min and prefix-max of their bounds.
_CHAMPION_STRIDE = 4
#: Margin of the exact pass's rate test: for delta <= 1/2 every inner end
#: lies past the rate z/m, up to _BRACKET_SLACK (_inner_ends).
_RATE_SLACK = 4 * _BRACKET_SLACK


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

    raw_band also records the alpha it built the band at, and, when the
    band crosses, a crossing witness (_witness) from the bounds it
    computed; the isotonicity p-value starts from both. Other bands leave
    them None.
    """

    knots: np.ndarray
    lower_levels: np.ndarray
    upper_levels: np.ndarray
    alpha: float | None = None
    witness: np.ndarray | None = None


def _pair_chunks(data, family):
    """Yield (rows, cols, z, m, starts) for runs of whole family rows.

    Each chunk holds about _PAIR_CHUNK pairs (at least one row), row-major.
    rows and cols are each pair's row and column position in the family,
    indices into row_j and k_values; starts is the offset of each row.
    z and m come from per-row and per-column tables of the observation
    and outcome counts before a pair's first and after its last group.
    """
    row_b = data.group_starts[family.row_j]
    col_b = data.group_bounds[family.k_values + 1]
    row_ps = data.prefix_sums[row_b]
    col_ps = data.prefix_sums[col_b]
    first = family.row_first_k
    row_sizes = family.k_values.shape[0] - first
    cum = np.concatenate(([0], np.cumsum(row_sizes)))
    n_rows = first.shape[0]
    r0 = 0
    while r0 < n_rows:
        r1 = int(np.searchsorted(cum, cum[r0] + _PAIR_CHUNK, side="left"))
        r1 = min(max(r1, r0 + 1), n_rows)
        sizes = row_sizes[r0:r1]
        starts = cum[r0:r1] - cum[r0]
        rows = np.repeat(np.arange(r0, r1), sizes)
        cols = np.arange(cum[r1] - cum[r0]) + np.repeat(first[r0:r1] - starts, sizes)
        yield rows, cols, col_ps[cols] - row_ps[rows], col_b[cols] - row_b[rows], starts
        r0 = r1


def _suffix_min(values):
    return np.minimum.accumulate(values[::-1])[::-1]


def _lower_at_rows(family, lower):
    """Per-column lower levels read at each row's knot; -inf left of every column."""
    at = np.searchsorted(family.k_values, family.row_j, side="right")
    return np.concatenate(([-np.inf], lower))[at]


def _upper_at_cols(family, upper):
    """Per-row upper levels read at each column's knot; +inf right of every row."""
    at = np.searchsorted(family.row_j, family.k_values, side="left")
    return np.concatenate((upper, [np.inf]))[at]


class _Survivors:
    """One side's pairs that can still set a level, bounded exactly.

    index is a pair's row (upper side) or column (lower side) position.
    out holds the least upper (greatest lower) bound computed so far per
    index; cap is the per-index cap (floor) a pair's inner bracket end
    must pass, tightened after every solve by the suffix-min over rows
    (prefix-max over columns) of out. champions are _bracket_levels'
    (zm, inner) for this side; the constructor bounds the champions whose
    inner end passes the cap, which a NaN inner end never does. flush
    solves in two rounds: first, per index, the pair whose KL inner end
    is most extreme; then only the pairs whose inner end still passes the
    cap those bounds tightened. Pairs are batched across chunks, so
    cp_bounds_batch calls stay few, and a batch is flushed early at
    _CHUNK_MIN pairs, which bounds the memory it holds. zm holds the
    (z, m) of the pair whose bound is in out, per index.
    """

    def __init__(self, delta, upper, cap, champions):
        self.delta = delta
        self.upper = upper
        self.cap = cap
        (z, m), inner = champions
        self.out = np.full(cap.shape[0], np.inf if upper else -np.inf)
        self.zm = np.zeros((2, cap.shape[0]), dtype=np.int64)
        self.pieces = []
        self.size = 0
        at = np.flatnonzero(self.passes(inner, slice(None)))
        self._solve(z[at], m[at], at)

    def passes(self, inner, index):
        """Whether inner ends can still reach the level at their index."""
        if self.upper:
            return inner <= self.cap[index]
        return inner >= self.cap[index]

    def add(self, z, m, index, inner):
        # a side with the (z, m) held at its index would bound out[index]
        # to what it holds; real pairs have m >= 1, so (0, 0) matches none
        held = (z == self.zm[0, index]) & (m == self.zm[1, index])
        keep = self.passes(inner, index) & ~held
        self.pieces.append((z[keep], m[keep], index[keep], inner[keep]))
        self.size += self.pieces[-1][0].shape[0]
        if self.size >= _CHUNK_MIN:
            self.flush()

    def flush(self):
        if not self.size:
            return
        z, m, index, inner = (np.concatenate(p) for p in zip(*self.pieces))
        self.pieces, self.size = [], 0
        order = np.lexsort((inner if self.upper else -inner, index))
        first = order[np.unique(index[order], return_index=True)[1]]
        self._solve(z[first], m[first], index[first])
        rest = self.passes(inner, index)
        rest[first] = False
        self._solve(z[rest], m[rest], index[rest])

    def _solve(self, z, m, index):
        if not z.shape[0]:
            return
        # a bound depends on (z, m, delta) alone: each distinct count is
        # bounded once and its bound scattered back to its pairs
        key, inverse = np.unique((m << 32) | z, return_inverse=True)
        lo, up = cp_bounds_batch(
            key & 0xFFFFFFFF,
            key >> 32,
            self.delta,
            lower_where=not self.upper,
            upper_where=self.upper,
        )
        if self.upper:
            bound = up[inverse]
            np.minimum.at(self.out, index, bound)
            self.cap = np.minimum(self.cap, _suffix_min(self.out))
        else:
            bound = lo[inverse]
            np.maximum.at(self.out, index, bound)
            self.cap = np.maximum(self.cap, np.maximum.accumulate(self.out))
        hit = np.flatnonzero(bound == self.out[index])
        self.zm[:, index[hit]] = z[hit], m[hit]


def _delta(data, family, alpha):
    """Per-pair level alpha / correction, after checking the arguments."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if family.n_groups != data.n_groups:
        raise ValueError("index family was built from different data")
    return alpha / family.correction


def _bracket_levels(data, family, delta):
    """Inner bracket levels (U_lo per row, L_hi per column) and the champions.

    U_lo[r] is the suffix-min over rows r' >= r of the upper brackets' low
    ends, L_hi[c] the prefix-max over columns c' <= c of the lower
    brackets' high ends; so U_lo[r] <= upper at row r's knot and
    lower <= L_hi[c] at column c's knot. A row (column) with no pair at
    or after (before) it gets +inf (-inf).

    The champions are one (zm, inner) per side: per row the upper side
    with the smallest upper_lo, per column the lower side with the largest
    lower_hi, the likeliest to set a level. zm holds their (z, m), of
    shape (2, rows) and (2, columns), and inner that closed-form inner end.
    """
    n_rows = family.row_j.shape[0]
    n_cols = family.k_values.shape[0]
    rowmin = np.full(n_rows, np.inf)
    colmax = np.full(n_cols, -np.inf)
    row_zm = np.empty((2, n_rows), dtype=np.int64)
    col_zm = np.empty((2, n_cols), dtype=np.int64)
    for rows, cols, z, m, starts in _pair_chunks(data, family):
        lower_hi, upper_lo = _inner_ends(z, m, delta)
        rowmin[rows[starts]] = np.minimum.reduceat(upper_lo, starts)
        np.maximum.at(colmax, cols, lower_hi)
        # one hit per row and per column; a column's running max is only
        # hit in the chunks that raise or tie it
        for zm, index, hit in (
            (row_zm, rows, np.flatnonzero(upper_lo == rowmin[rows])),
            (col_zm, cols, np.flatnonzero(lower_hi == colmax[cols])),
        ):
            at, i = np.unique(index[hit], return_index=True)
            zm[:, at] = z[hit[i]], m[hit[i]]
    U_lo = _suffix_min(rowmin)
    L_hi = np.maximum.accumulate(colmax)
    return U_lo, L_hi, ((row_zm, rowmin), (col_zm, colmax))


def _strided_champions(data, family, delta):
    """_bracket_levels' champions of every _CHAMPION_STRIDE-th row and column.

    The bracket pass runs on the sub-family of rows 0, S, 2S, ..., last
    and columns 0, S, 2S, ..., last (S the stride), about 1/S^2 of the
    pairs; a row's pairs are a suffix of the columns and a column's a
    prefix of the rows, so every row and column keeps a pair there. Each
    champion is scattered back to its row or column; every other row and
    column gets a NaN inner end, which passes no cap.
    """
    sizes = (family.row_j.shape[0], family.k_values.shape[0])
    # 0, S, 2S, ... and the last; only the final multiple can pass size - 1
    rows, cols = (
        np.minimum(np.arange(0, size + _CHAMPION_STRIDE - 1, _CHAMPION_STRIDE), size - 1)
        for size in sizes
    )
    sub = IndexPairFamily(
        n_groups=family.n_groups,
        correction=family.correction,
        row_j=family.row_j[rows],
        k_values=family.k_values[cols],
        row_first_k=np.searchsorted(cols, family.row_first_k[rows]),
    )
    champions = []
    for at, size, (zm, inner) in zip((rows, cols), sizes, _bracket_levels(data, sub, delta)[2]):
        all_zm = np.zeros((2, size), dtype=np.int64)
        all_zm[:, at] = zm
        all_inner = np.full(size, np.nan)
        all_inner[at] = inner
        champions.append((all_zm, all_inner))
    return champions


def _levels(sides):
    """(upper per row, lower per column) levels of the sides' bounds so far.

    upper is the suffix-min over rows of the upper side's out, the level
    at each row's knot; lower the prefix-max over columns of the lower
    side's, the level at each column's knot. +inf or -inf where none.
    """
    uppers, lowers = sides
    return _suffix_min(uppers.out), np.maximum.accumulate(lowers.out)


def _exact_levels(data, family, delta, sides):
    """Exact (upper, lower) levels over the pairs that pass the sides' caps.

    sides are the upper and lower _Survivors, built with the champions. A
    pair's side is bounded exactly only if its inner bracket end passes
    the side's cap at the pair's row (upper) or column (lower). One sweep,
    one chunk of pairs at a time, for each side in turn: the closed-form
    inner end (_inner_ends) is tested first, then the KL inner end
    (_kl_inner) of the sides that pass, and the survivors bound the sides
    that pass both, tightening their caps from the bounds they compute.
    The levels are _levels of all those bounds.

    For delta <= 1/2 a rate test comes before _inner_ends: upper_lo >=
    z/m - _BRACKET_SLACK and lower_hi <= z/m + _BRACKET_SLACK, so a pair
    whose rate z/m lies more than _RATE_SLACK above the upper cap at its
    row and below the lower cap at its column passes neither side.
    """
    uppers, lowers = sides
    for rows, cols, z, m, _ in _pair_chunks(data, family):
        if delta <= 0.5:
            q = z / m
            at = np.flatnonzero(
                (q <= uppers.cap[rows] + _RATE_SLACK) | (q >= lowers.cap[cols] - _RATE_SLACK)
            )
            rows, cols, z, m = rows[at], cols[at], z[at], m[at]
        lower_hi, upper_lo = _inner_ends(z, m, delta)
        for side, index, inner in zip(sides, (rows, cols), (upper_lo, lower_hi)):
            at = np.flatnonzero(side.passes(inner, index))
            z_at, m_at = z[at], m[at]
            tight = _kl_inner(z_at, m_at, delta, inner[at], side.upper)
            side.add(z_at, m_at, index[at], tight)
    for side in sides:
        side.flush()
    return _levels(sides)


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

    The bracket pass (_bracket_levels) picks one champion side per row and
    per column from the closed-form inner ends of the pairs' brackets
    (_inner_ends), on every _CHAMPION_STRIDE-th row and column
    (_strided_champions); the other rows and columns have no champion.
    A computed bound of any pair caps (floors) the computed
    level at every knot the pair covers, so with X_u the suffix-min over
    rows of the computed upper bounds and X_l the prefix-max over columns
    of the computed lower bounds, X_u[r] caps upper at row r's knot and
    X_l[c] floors lower at column c's knot; before any bound X_u is +inf
    and X_l is -inf. One test decides every exact bound, the champions'
    included: a pair's upper side is bounded only if the low end of its
    bracket is <= X_u at its row, its lower side only if the high end of
    its bracket is >= X_l at its column.
    _Survivors bounds the champions first, which all pass the infinite
    caps, and the exact pass (_exact_levels) then the other pairs that
    pass, with their KL-refined ends; each bound tightens X_u and X_l as
    it comes in. Which pairs are bounded first changes only how fast the
    caps tighten: a computed bound of any real pair is a valid cap, so
    the argument below does not depend on the champions, their stride or
    the rate test, which drops only pairs that fail the test anyway.
    The band is the same as bounding every pair: the pair
    attaining upper(x_i) has row r with row_j[r] >= i and a bound <=
    upper(x_{row_j[r]}) <= X_u[r], so its bracket passes the test
    (likewise for the lower side), because cp_bounds_batch keeps every
    bound inside its refined bracket, which lies inside its closed-form
    one.

    The levels stay per row and per column until the end: upper is
    constant on the knots from one row's start to the next, lower on the
    knots from one column's end to the next, and each is repeated over its
    run of knots once.
    """
    delta = _delta(data, family, alpha)
    row_champs, col_champs = _strided_champions(data, family, delta)
    sides = (
        _Survivors(delta, True, np.full_like(row_champs[1], np.inf), row_champs),
        _Survivors(delta, False, np.full_like(col_champs[1], -np.inf), col_champs),
    )
    upper, lower = _exact_levels(data, family, delta, sides)
    gap = _lower_at_rows(family, lower) - upper
    witness = _witness(family, sides, gap) if (gap > 0.0).any() else None
    n = data.n_groups
    upper = np.where(np.isfinite(upper), upper, 1.0)
    lower = np.where(np.isfinite(lower), lower, 0.0)
    return StepBand(
        knots=data.distinct_x,
        lower_levels=np.repeat(
            np.concatenate(([0.0], lower)),
            np.diff(family.k_values, prepend=0, append=n),
        ),
        upper_levels=np.repeat(
            np.concatenate((upper, [1.0])),
            np.diff(family.row_j, prepend=-1, append=n - 1),
        ),
        alpha=alpha,
        witness=witness,
    )


def _crosses(data, family, alpha, witness=None):
    """Whether raw_band(data, family, alpha) crosses, and a witness to carry.

    A witness is the (z, m) of two pair sides, lower then upper, with the
    lower side's column at or left of the upper side's row. If the lower
    side's computed bound exceeds the upper side's, the band crosses at
    every knot between them, at any alpha of the same family; checking
    that takes one cp_bounds_batch call of two pairs (_witness_crosses).
    A given witness is checked first and answers True when it holds.

    Otherwise the full decision runs. Upper levels are nondecreasing, so a
    crossing on the open piece after a knot implies one at the knot; knots
    suffice. The upper level is constant from one row's knot to the next
    and the lower level never decreases, so the row knots suffice: every
    comparison below is made at them. The bracket levels rule a crossing
    out when L_hi <= U_lo at every row knot. Failing that, a pair's upper
    side is bounded exactly only if the low end of its bracket is <=
    min(X_u, L_hi) at its row, and its lower side only if the high end of
    its bracket is >= max(X_l, U_lo) at its column, with X_u and X_l as
    in raw_band; the champions pass this test first, as every other pair
    does, and X_l > X_u at a row knot from their bounds alone proves a
    crossing before the exact pass. If the band crosses at x_i, the pair b
    attaining upper(x_i) passes: its bound is upper(x_i) <= upper at its
    row's knot <= X_u there, and it lies below lower(x_i) <= lower at that
    knot <= L_hi there; the pair attaining lower(x_i) passes in the
    mirror image, so the passing pairs' levels cross at x_i too. The
    levels of a subset of pairs are never tighter than the band's, so they
    cross only where the band crosses.

    Returns (crosses, witness). A crossing returns a new witness
    (_witness); no crossing returns the given witness, which may still
    hold at a larger alpha. The answer never depends on the witness: one
    that holds proves what the full decision would find.
    """
    delta = _delta(data, family, alpha)
    if witness is not None and _witness_crosses(witness, delta):
        return True, witness
    U_lo, L_hi, champions = _bracket_levels(data, family, delta)
    L_rows = _lower_at_rows(family, L_hi)
    if (L_rows <= U_lo).all():
        return False, witness
    sides = (
        _Survivors(delta, True, L_rows, champions[0]),
        _Survivors(delta, False, _upper_at_cols(family, U_lo), champions[1]),
    )
    upper, lower = _levels(sides)
    gap = _lower_at_rows(family, lower) - upper
    if not (gap > 0.0).any():
        upper, lower = _exact_levels(data, family, delta, sides)
        gap = _lower_at_rows(family, lower) - upper
        if not (gap > 0.0).any():
            return False, witness
    return True, _witness(family, sides, gap)


def _witness(family, sides, gap):
    """The (z, m) of the lower and upper bound that cross the most.

    gap is lower minus upper level at each row's knot, positive somewhere.
    At the row knot where it is largest, the upper level is the least
    bound the upper side holds over that row and the rows after it, the
    lower level the greatest the lower side holds over the columns at or
    left of it; the sides keep the (z, m) of each. Nothing new is bounded:
    the witness is checked at the next probe.
    """
    uppers, lowers = sides
    r = np.argmax(gap)
    cols = np.searchsorted(family.k_values, family.row_j[r], side="right")
    col = np.argmax(lowers.out[:cols])
    row = r + np.argmin(uppers.out[r:])
    return np.stack((lowers.zm[:, col], uppers.zm[:, row]), axis=1)


def _witness_crosses(witness, delta):
    """Whether the witness's lower side's bound exceeds its upper side's."""
    z, m = witness
    lower, upper = cp_bounds_batch(
        z, m, delta, lower_where=[True, False], upper_where=[False, True]
    )
    return bool(lower[0] > upper[1])


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
    return StepBand(knots=data.distinct_x, lower_levels=lower, upper_levels=upper)


def evaluate_band(band, x, extrapolate):
    """Evaluate (lower, upper) at x, honoring the continuity conventions.

    At a knot both levels are the knot's own; strictly between knots the
    lower bound carries over from the left knot and the upper bound from
    the right. With extrapolate=False, x outside [first knot, last knot]
    raises; with True, the step functions continue per the sentinel rules
    (lower 0 left / end level right, upper start level left / 1 right).
    A non-finite x raises in both modes. Accepts a scalar or an array and
    returns matching shapes.
    """
    knots = band.knots
    xarr = np.asarray(x, dtype=np.float64)
    scalar = xarr.ndim == 0
    xq = np.atleast_1d(xarr)
    if not np.isfinite(xq).all():
        raise ValueError("x must be finite")
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
