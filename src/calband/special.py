"""Clopper-Pearson bounds for binomial proportions, and the chi-square tail.

cp_bounds_batch is the one Clopper-Pearson route. It evaluates both
bounds over integer arrays through scipy's compiled incomplete-beta
inverse; the scalar cp_lower and cp_upper call it for one side, so the
two APIs agree bit for bit.

cp_brackets puts each bound inside a closed-form bracket (Hoeffding on
one side, the binary method-of-types bound on the other), the fallback
of cp_bounds_batch's guard. _kl_brackets tightens both ends to the roots
they relax: the Chernoff bound outside, Ash's lower bound on the
binomial coefficient inside, a few vectorized Newton and false-position
steps each, every end checked by one KL evaluation. Band construction
reads only the inner ends, closed-form (_inner_ends) in both of its
passes and KL (_kl_inner) in the exact one, and tests them against caps
made of exact bounds, which on a sweep replication (n = 8192, K = 1000)
leaves betaincinv about 1.5% of the pair sides. cp_bounds_batch guards
the inverse with the tightened brackets: a bound that comes back outside
its bracket, NaN included, is solved again by bisection on the
incomplete beta function, so every returned bound lies inside its
bracket.

chi2_survival, the tail the Hosmer-Lemeshow baseline is referred to, is
written against the math module only, so the p-values calband prints do
not depend on the scipy build.
"""

import math

import numpy as np

__all__ = [
    "cp_upper",
    "cp_lower",
    "cp_bounds_batch",
    "cp_brackets",
    "reg_inc_gamma_upper",
    "chi2_survival",
    "DELTA_FLOOR",
]

#: Smallest admissible tail probability. A Bonferroni correction alpha/(N^2+N)
#: only gets here for astronomically large N; signal instead of returning
#: degenerate bounds.
DELTA_FLOOR = 1e-300

_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAXITER = 500

#: Absolute widening of every cp_brackets end. The closed forms round at
#: about 1e-16 and betaincinv is good to about 1e-14 relative on values in
#: [0, 1], so the widened brackets contain the computed bounds, not only
#: the exact ones.
_BRACKET_SLACK = 1e-9

#: Newton steps per KL end in _kl_brackets, and the relative margin by
#: which they aim past their levels, so that a converged step still
#: passes its check.
_KL_STEPS = 2
_KL_AIM = 1e-10


# --------------------------------------------------------------------------
# Regularized incomplete gamma (upper), for the chi-square survival function.

def _gamma_p_series(s, x):
    term = 1.0 / s
    total = term
    k = s
    for _ in range(_CF_MAXITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _CF_EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ArithmeticError(f"gamma series failed to converge for s={s}, x={x}")


def _gamma_q_cf(s, x):
    b = x + 1.0 - s
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAXITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = b + an / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ArithmeticError(f"gamma continued fraction failed for s={s}, x={x}")


def reg_inc_gamma_upper(s, x):
    """Upper regularized incomplete gamma Q(s, x) = Gamma(s,x)/Gamma(s)."""
    if s <= 0.0:
        raise ValueError(f"shape s={s} must be positive")
    if x < 0.0:
        raise ValueError(f"x={x} must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_cf(s, x)


def chi2_survival(stat, df):
    """Chi-square upper tail probability with df >= 1 degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom df={df} must be at least 1")
    if stat < 0.0:
        raise ValueError(f"statistic {stat} must be nonnegative")
    return reg_inc_gamma_upper(0.5 * df, 0.5 * stat)


# --------------------------------------------------------------------------
# Batch Clopper-Pearson evaluation, the hot path of band construction.

def cp_brackets(z, m, delta):
    """Closed-form brackets around cp_lower and cp_upper, elementwise.

    Returns float64 arrays (lower_lo, lower_hi, upper_lo, upper_hi) with
    lower_lo <= cp_lower(z, m, delta) <= lower_hi and
    upper_lo <= cp_upper(z, m, delta) <= upper_hi. With q = z/m:

    - upper_hi = min(1, q + sqrt(log(1/delta)/(2m))), Hoeffding's bound.
    - upper_lo and lower_hi are the inner ends of _inner_ends.
    - lower_lo mirrors upper_hi through cp_lower(z, m) = 1 - cp_upper(m-z, m).

    Every end is widened by _BRACKET_SLACK = 1e-9, so the brackets also
    hold the rounded values cp_bounds_batch returns.
    """
    mf = np.asarray(m, dtype=np.float64)
    q = np.asarray(z, dtype=np.float64) / mf
    h = np.sqrt(-math.log(delta) / (2.0 * mf))
    upper_hi = np.minimum(q + h, 1.0) + _BRACKET_SLACK
    lower_lo = np.maximum(q - h, 0.0) - _BRACKET_SLACK
    lower_hi, upper_lo = _inner_ends(z, m, delta)
    return lower_lo, lower_hi, upper_lo, upper_hi


def _inner_ends(z, m, delta):
    """The inner ends (lower_hi, upper_lo) of cp_brackets, elementwise.

    With q = z/m, upper_lo is the larger root p of m(p-q)^2 = c p(1-p)
    with c = log(1/delta) - log(m+1). At that p, P(Bin(m,p) = z) >=
    exp(-m KL(q||p))/(m+1) >= exp(-c)/(m+1) = delta, by the binary
    method-of-types bound and KL(q||p) <= (p-q)^2/(p(1-p)); so the
    binomial CDF at z still reaches delta there. When c <= 0 the root is
    q itself, which the median of Bin(m, q) justifies for delta <= 1/2;
    above 1/2 the end is 0. lower_hi mirrors it through cp_lower(z, m) =
    1 - cp_upper(m-z, m): it is the smaller root, 1 above 1/2. Both ends
    are widened by _BRACKET_SLACK.
    """
    zf = np.asarray(z, dtype=np.float64)
    mf = np.asarray(m, dtype=np.float64)
    if delta > 0.5:
        ones = np.ones_like(zf)
        return ones + _BRACKET_SLACK, -_BRACKET_SLACK * ones
    q = zf / mf
    c = np.maximum(-math.log(delta) - np.log1p(mf), 0.0)
    root = np.sqrt(c * (c + 4.0 * zf * (mf - zf) / mf))
    s = 2.0 * zf + c + root
    upper_lo = s / (2.0 * (mf + c)) - _BRACKET_SLACK
    # the smaller root 2z^2 / (m s), written without cancellation; the
    # floor on s only matters at z = 0, where the root is 0
    lower_hi = q * (2.0 * zf / np.maximum(s, 1.0)) + _BRACKET_SLACK
    return lower_hi, upper_lo


def _kl(q, p):
    """Binary KL divergence KL(q || p), elementwise, for 0 < q < 1."""
    return q * np.log(q / p) + (1.0 - q) * np.log((1.0 - q) / (1.0 - p))


def _kl_newton(q, p, kl, level):
    """One Newton step on KL(q || .) = level from p > q; stays above the root."""
    return p - (kl - level) * p * (1.0 - p) / (p - q)


def _kl_start(q, h, level):
    """A point above the root of KL(q || p) = level, p > q, in closed form.

    The smaller of Hoeffding's end (KL >= 2(p-q)^2) and the root of
    -H(q) - (1-q) log(1-p) = level (KL drops -q log p >= 0 from that).
    """
    return np.minimum(q + np.sqrt(0.5 * level), -np.expm1(-(level + h) / (1.0 - q)))


def _kl_terms(z, m, delta, upper):
    """One side's terms for its KL ends, in the upper side's terms.

    Returns (zf, mf, q, t, h, mid, exact): zu = z (m - z for the lower
    side) and m as floats, q = zu/m, the per-trial level t = log(1/delta)/m,
    the entropy h(q), where the KL steps apply (0 < zu < m), and the end
    elsewhere: the exact bound 1 - delta^(1/m) at zu = 0, NaN at zu = m.
    """
    zu = z if upper else m - z
    mf = m.astype(np.float64)
    zf = zu.astype(np.float64)
    q = zf / mf
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(q * np.log(q) + (1.0 - q) * np.log1p(-q))
    exact = np.where(zu == 0, -np.expm1(math.log(delta) / mf), np.nan)
    return zf, mf, q, -math.log(delta) / mf, h, (zu > 0) & (zu < m), exact


def _kl_brackets(z, m, delta, lo, hi, upper):
    """Tighten one side's cp_brackets ends (lo, hi) to the KL roots.

    With q = z/m and t = log(1/delta), cp_upper(z, m, delta) lies between
    two roots p > q of m KL(q || p) = level:

    - outer end, level t: Chernoff gives P(Bin(m, p) <= z) <=
      exp(-m KL(q || p)) for p > q, so beyond the root the CDF is < delta.
      From _kl_start, Newton steps on the convex, increasing KL stay above
      the root; they aim at t (1 + _KL_AIM) so a converged step passes.
    - inner end, level c: _kl_inner.

    At z = 0 both ends are the exact bound 1 - delta^(1/m). Each end is
    checked by one KL evaluation; one that fails, or is NaN, falls back to
    the cp_brackets end, as do all ends at z = m. upper=False refines the
    lower side through cp_lower(z, m) = 1 - cp_upper(m - z, m). Ends are
    widened by _BRACKET_SLACK and returned as (lo, hi), each inside the
    given one.
    """
    _, _, q, t, h, mid, exact = _kl_terms(z, m, delta, upper)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        level = t * (1.0 + _KL_AIM)
        p = _kl_start(q, h, level)
        for _ in range(_KL_STEPS):
            p = _kl_newton(q, p, _kl(q, p), level)
        out = np.where(mid & (p > q) & (_kl(q, p) >= t), p, exact)
    if upper:
        return _kl_inner(z, m, delta, lo, True), np.fmin(hi, out + _BRACKET_SLACK)
    return np.fmax(lo, (1.0 - out) - _BRACKET_SLACK), _kl_inner(z, m, delta, hi, False)


def _kl_inner(z, m, delta, inner, upper):
    """Tighten one side's cp_brackets inner end to its KL root.

    inner is upper_lo (upper=True) or lower_hi (upper=False). In the upper
    side's terms the level is c = t - log(8 z (1 - q)) / 2 for 0 < z < m:
    Ash's bound C(m, z) >= exp(m H(q)) / sqrt(8 z (1 - q)) gives
    P(Bin(m, p) = z) >= exp(-m KL(q || p) - t + c), which reaches delta
    wherever m KL <= c. Each step is a Newton step on an outer point and a
    false-position chord from the last inner point (q or the cp_brackets
    end at first); a chord of a convex function lands inside the root. The
    end is checked by one KL evaluation and falls back as in _kl_brackets;
    it is widened by _BRACKET_SLACK and returned inside the given one.
    """
    zf, mf, q, t, h, mid, exact = _kl_terms(z, m, delta, upper)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = t - 0.5 * np.log(8.0 * zf * (1.0 - q)) / mf
        level = c * (1.0 - _KL_AIM)
        a = np.maximum(q, inner if upper else 1.0 - inner)
        ka = _kl(q, a)
        b = _kl_start(q, h, level)
        kb = _kl(q, b)
        for _ in range(_KL_STEPS):
            b = _kl_newton(q, b, kb, level)
            kb = _kl(q, b)
            den = kb - ka
            # the two points meet when both have converged (0/0)
            a = np.where(den > 0.0, a - (ka - level) * (b - a) / den, a)
            ka = _kl(q, a)
        inn = np.where(mid & (ka <= c), a, exact)
    if upper:
        return np.fmax(inner, inn - _BRACKET_SLACK)
    return np.fmin(inner, (1.0 - inn) + _BRACKET_SLACK)


def _bisect_betainc(a, b, p, lo, hi):
    """Largest x found in [lo, hi] with betainc(a, b, x) < p, elementwise.

    Bisects down to adjacent floats. Returning the low end rounds the root
    down, which is outward for both sides of cp_bounds_batch. A betainc of
    0 is scipy underflowing (the tail is positive inside the bracket), so
    it does not count as below p: the bisection then stops at the outer
    end instead of the inner one.
    """
    from scipy import special as _sps

    lo = np.clip(lo, 0.0, 1.0)
    hi = np.clip(hi, 0.0, 1.0)
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return lo
        v = _sps.betainc(a, b, mid)
        below = (v < p) & (v > 0.0)
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)


def cp_bounds_batch(z, m, delta, lower_where=True, upper_where=True):
    """Vectorized (cp_lower, cp_upper) over integer arrays z and m.

    The lower bound is qbeta(delta, z, m-z+1), 0 at z = 0; the upper bound
    is 1 - qbeta(delta, m-z, z+1), 1 at z = m, the lower tail of the
    swapped beta law, which keeps 1-delta out of the computation for
    extreme corrections. Both go through scipy's compiled inverse
    incomplete beta. Returns two float64 arrays.

    lower_where and upper_where select, like numpy's where=, which entries
    of each side to evaluate: a bool or a bool array broadcastable to z.
    Entries not selected are NaN.

    Every evaluated bound lies inside its _kl_brackets bracket, hence
    inside its cp_brackets bracket. betaincinv can miss its root by far
    (scipy 1.17.1 puts the beta(9105, 1000) quantile at 0.05/500500 at
    0.7495; the root is 0.8849, and it misses by 1e-3 to 2e-2 at delta
    below about 1e-150), so a value outside its bracket is solved again by
    bisection on betainc within the bracket and rounded outward.
    """
    # Imported here, not at module top: it is most of calband's import
    # time, and `calband --version` or a usage error never needs it.
    from scipy import special as _sps

    z = np.asarray(z, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    if z.shape != m.shape:
        raise ValueError(f"shape mismatch: z{z.shape} vs m{m.shape}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"tail probability delta={delta} outside (0, 1)")
    if delta < DELTA_FLOOR:
        raise ValueError(
            f"delta={delta} underflows the supported range (>= {DELTA_FLOOR})"
        )
    if z.size and (m.min() < 1 or z.min() < 0 or (z > m).any()):
        raise ValueError("need 0 <= z <= m and m >= 1 elementwise")

    lower = np.full(z.shape, np.nan)
    upper = np.full(z.shape, np.nan)
    sel_lo = np.broadcast_to(lower_where, z.shape)
    sel_up = np.broadcast_to(upper_where, z.shape)
    lower_lo, lower_hi, upper_lo, upper_hi = cp_brackets(z, m, delta)
    zf = z.astype(np.float64)
    mf = m.astype(np.float64)

    if sel_up.any():
        zs, ms = zf[sel_up], mf[sel_up]
        lo, hi = _kl_brackets(
            z[sel_up], m[sel_up], delta, upper_lo[sel_up], upper_hi[sel_up], True
        )
        top = zs == ms
        # Dummy shape 1.0 where z == m keeps betaincinv in-domain; overwritten.
        a, b = np.where(top, 1.0, ms - zs), zs + 1.0
        up = 1.0 - _sps.betaincinv(a, b, delta)
        bad = ~top & ~((up >= lo) & (up <= hi))
        if bad.any():
            w = _bisect_betainc(a[bad], b[bad], delta, 1.0 - hi[bad], 1.0 - lo[bad])
            up[bad] = np.clip(
                np.nextafter(1.0 - w, 2.0), lo[bad], np.minimum(hi[bad], 1.0)
            )
        up[top] = 1.0
        upper[sel_up] = up

    if sel_lo.any():
        zs, ms = zf[sel_lo], mf[sel_lo]
        lo, hi = _kl_brackets(
            z[sel_lo], m[sel_lo], delta, lower_lo[sel_lo], lower_hi[sel_lo], False
        )
        zero = zs == 0.0
        a, b = np.where(zero, 1.0, zs), ms - zs + 1.0
        low = _sps.betaincinv(a, b, delta)
        bad = ~zero & ~((low >= lo) & (low <= hi))
        if bad.any():
            w = _bisect_betainc(a[bad], b[bad], delta, lo[bad], hi[bad])
            low[bad] = np.clip(w, lo[bad], hi[bad])
        low[zero] = 0.0
        lower[sel_lo] = low

    return lower, upper


def cp_upper(z, m, delta):
    """Exact upper confidence bound for a binomial proportion.

    The largest xi whose CDF at z still reaches delta; equals the beta
    quantile qbeta(1-delta, z+1, m-z) for z < m and 1 at z = m. This is
    cp_bounds_batch on one count, upper side only.
    """
    return float(cp_bounds_batch([z], [m], delta, lower_where=False)[1][0])


def cp_lower(z, m, delta):
    """Exact lower confidence bound, qbeta(delta, z, m+1-z), 0 at z = 0."""
    return float(cp_bounds_batch([z], [m], delta, upper_where=False)[0][0])
