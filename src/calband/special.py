"""Exact binomial and beta special functions plus Clopper-Pearson bounds.

Scalar routines are written against the math module only and hold their
stated absolute tolerances on the ranges the bands need (a, b up to a few
thousand). The batch evaluator at the bottom is the performance path for
band construction and is backed by scipy's compiled incomplete-beta
inverse; a test pins it to the scalar route.

cp_brackets puts each batch bound inside a closed-form bracket
(Hoeffding on one side, the binary method-of-types bound on the other),
which lets band construction skip the pairs that cannot set a band level.
cp_bounds_batch guards the inverse with the same brackets: a bound that
comes back outside its bracket, NaN included, is solved again by
bisection on the incomplete beta function, so every returned bound lies
inside its bracket.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

__all__ = [
    "BinomialCount",
    "reg_inc_beta",
    "beta_quantile",
    "binom_cdf",
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

_BISECT_TOL = 1e-12

#: Trial count above which binom_cdf switches from direct summation to the
#: incomplete-beta identity.
_CDF_SUM_LIMIT = 50

THREADS_ENV = "CALBAND_THREADS"
_CHUNK_MIN = 200_000

#: Absolute widening of every cp_brackets end. The closed forms round at
#: about 1e-16 and betaincinv is good to about 1e-14 relative on values in
#: [0, 1], so the widened brackets contain the computed bounds, not only
#: the exact ones.
_BRACKET_SLACK = 1e-9


@dataclass(frozen=True)
class BinomialCount:
    """Successes z out of m trials, as produced by data slices."""

    z: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one trial, got m={self.m}")
        if not 0 <= self.z <= self.m:
            raise ValueError(f"count z={self.z} outside [0, {self.m}]")


def _betacf(a, b, x):
    # Continued fraction for the incomplete beta function, modified Lentz
    # recurrence. Converges fast for x < (a+1)/(a+b+2); callers swap first.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge for "
        f"a={a}, b={b}, x={x}"
    )


def _inc_beta_direct(a, b, x):
    # exp(lgamma cancellation) * x^a * (1-x)^b * cf / a
    lpre = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    return math.exp(lpre) * _betacf(a, b, x) / a


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with the symmetry swap
    I_x(a,b) = 1 - I_{1-x}(b,a), absolute error below 1e-13.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _inc_beta_direct(b, a, 1.0 - x)
    return _inc_beta_direct(a, b, x)


def beta_quantile(p, a, b):
    """Inverse of reg_inc_beta in x, by bracketed bisection to 1e-12.

    Bisection rather than Newton: the CDF is monotone, so the bracket can
    never escape and no derivative safeguards are needed.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    lo = 0.0
    hi = 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if reg_inc_beta(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_cdf(z, m, xi):
    """P(Binomial(m, xi) <= z).

    Direct summation for m <= 50 keeps small cases exact; larger m routes
    through the identity pbin(z, m, xi) = I_{1-xi}(m-z, z+1) to avoid
    cancellation across many terms.
    """
    if m < 1:
        raise ValueError(f"need at least one trial, got m={m}")
    if z < -1 or z > m:
        raise ValueError(f"count z={z} outside [-1, {m}]")
    if xi < 0.0 or xi > 1.0:
        raise ValueError(f"success probability xi={xi} outside [0, 1]")
    if z == -1:
        return 0.0
    if z == m:
        return 1.0
    if xi == 0.0:
        return 1.0
    if xi == 1.0:
        return 0.0
    if m <= _CDF_SUM_LIMIT:
        q = 1.0 - xi
        total = 0.0
        for i in range(z + 1):
            total += math.comb(m, i) * xi**i * q ** (m - i)
        return min(total, 1.0)
    return reg_inc_beta(m - z, z + 1, 1.0 - xi)


def _check_count_args(z, m, delta):
    if m < 1:
        raise ValueError(f"need at least one trial, got m={m}")
    if not 0 <= z <= m:
        raise ValueError(f"count z={z} outside [0, {m}]")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"tail probability delta={delta} outside (0, 1)")
    if delta < DELTA_FLOOR:
        raise ValueError(
            f"delta={delta} underflows the supported range (>= {DELTA_FLOOR}); "
            "the Bonferroni correction is too aggressive for float64"
        )


def cp_upper(z, m, delta):
    """Exact upper confidence bound for a binomial proportion.

    The largest xi whose CDF at z still reaches delta; equals the beta
    quantile qbeta(1-delta, z+1, m-z) for z < m and 1 at z = m. Evaluated
    through the lower tail of the swapped beta law, which is the same root
    but keeps 1-delta representable for extreme corrections.
    """
    _check_count_args(z, m, delta)
    if z == m:
        return 1.0
    return 1.0 - beta_quantile(delta, m - z, z + 1)


def cp_lower(z, m, delta):
    """Exact lower confidence bound, qbeta(delta, z, m+1-z), 0 at z = 0."""
    _check_count_args(z, m, delta)
    if z == 0:
        return 0.0
    return beta_quantile(delta, z, m - z + 1)


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
    """Chi-square upper tail probability with df degrees of freedom.

    df = 0 is the point mass at zero (survival is 1 at the origin and 0
    anywhere above it).
    """
    if df < 0:
        raise ValueError(f"degrees of freedom df={df} must be nonnegative")
    if stat < 0.0:
        raise ValueError(f"statistic {stat} must be nonnegative")
    if df == 0:
        return 1.0 if stat == 0.0 else 0.0
    return reg_inc_gamma_upper(0.5 * df, 0.5 * stat)


# --------------------------------------------------------------------------
# Batch Clopper-Pearson evaluation, the hot path of band construction.

def thread_count():
    """Worker threads for batch evaluation, from the environment override."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        t = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV}={raw!r} is not an integer") from exc
    if t < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1, got {t}")
    return t


def _chunked_betaincinv(a, b, p):
    # betaincinv(a, b, p), optionally split across threads. Each worker
    # writes a disjoint slice of the preallocated result, so the answer is
    # independent of scheduling.
    t = thread_count()
    size = a.shape[0]
    if t == 1 or size < _CHUNK_MIN:
        return _sps.betaincinv(a, b, p)
    out = np.empty(size, dtype=np.float64)
    bounds = np.linspace(0, size, t + 1, dtype=np.int64)

    def work(i):
        lo, hi = bounds[i], bounds[i + 1]
        out[lo:hi] = _sps.betaincinv(a[lo:hi], b[lo:hi], p)

    with ThreadPoolExecutor(max_workers=t) as pool:
        list(pool.map(work, range(t)))
    return out


def cp_brackets(z, m, delta):
    """Closed-form brackets around cp_lower and cp_upper, elementwise.

    Returns float64 arrays (lower_lo, lower_hi, upper_lo, upper_hi) with
    lower_lo <= cp_lower(z, m, delta) <= lower_hi and
    upper_lo <= cp_upper(z, m, delta) <= upper_hi. With q = z/m:

    - upper_hi = min(1, q + sqrt(log(1/delta)/(2m))), Hoeffding's bound.
    - upper_lo is the larger root p of m(p-q)^2 = c p(1-p) with
      c = log(1/delta) - log(m+1). At that p, P(Bin(m,p) = z) >=
      exp(-m KL(q||p))/(m+1) >= exp(-c)/(m+1) = delta, by the binary
      method-of-types bound and KL(q||p) <= (p-q)^2/(p(1-p)); so the
      binomial CDF at z still reaches delta there.
      When c <= 0 the root is q itself, which the median of Bin(m, q)
      justifies for delta <= 1/2; above 1/2 the end is 0.
    - lower_lo and lower_hi mirror these through
      cp_lower(z, m) = 1 - cp_upper(m-z, m); lower_hi is the smaller root.

    Every end is widened by _BRACKET_SLACK = 1e-9, so the brackets also
    hold the rounded values cp_bounds_batch returns.
    """
    zf = np.asarray(z, dtype=np.float64)
    mf = np.asarray(m, dtype=np.float64)
    log_inv = -math.log(delta)
    q = zf / mf
    h = np.sqrt(log_inv / (2.0 * mf))
    upper_hi = np.minimum(q + h, 1.0) + _BRACKET_SLACK
    lower_lo = np.maximum(q - h, 0.0) - _BRACKET_SLACK
    if delta > 0.5:
        ones = np.ones_like(q)
        return lower_lo, ones + _BRACKET_SLACK, -_BRACKET_SLACK * ones, upper_hi
    c = np.maximum(log_inv - np.log1p(mf), 0.0)
    root = np.sqrt(c * (c + 4.0 * zf * (mf - zf) / mf))
    s = 2.0 * zf + c + root
    upper_lo = s / (2.0 * (mf + c)) - _BRACKET_SLACK
    # the smaller root 2z^2 / (m s), written without cancellation; the
    # floor on s only matters at z = 0, where the root is 0
    lower_hi = q * (2.0 * zf / np.maximum(s, 1.0)) + _BRACKET_SLACK
    return lower_lo, lower_hi, upper_lo, upper_hi


def _bisect_betainc(a, b, p, lo, hi):
    """Largest x found in [lo, hi] with betainc(a, b, x) < p, elementwise.

    Bisects down to adjacent floats. Returning the low end rounds the root
    down, which is outward for both sides of cp_bounds_batch.
    """
    lo = np.clip(lo, 0.0, 1.0)
    hi = np.clip(hi, 0.0, 1.0)
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return lo
        below = _sps.betainc(a, b, mid) < p
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)


def cp_bounds_batch(z, m, delta, lower_where=True, upper_where=True):
    """Vectorized (cp_lower, cp_upper) over integer arrays z and m.

    Same dual-tail formulas as the scalar functions, evaluated through
    scipy's compiled inverse incomplete beta. Returns two float64 arrays.

    lower_where and upper_where select, like numpy's where=, which entries
    of each side to evaluate: a bool or a bool array broadcastable to z.
    Entries not selected are NaN.

    Every evaluated bound lies inside its cp_brackets bracket. betaincinv
    can miss its root by far (scipy 1.17.1 puts the beta(9105, 1000)
    quantile at 0.05/500500 at 0.7495; the root is 0.8849), so a value
    outside its bracket is solved again by bisection on betainc within
    the bracket and rounded outward.
    """
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
        lo, hi = upper_lo[sel_up], upper_hi[sel_up]
        top = zs == ms
        # Dummy shape 1.0 where z == m keeps betaincinv in-domain; overwritten.
        a, b = np.where(top, 1.0, ms - zs), zs + 1.0
        up = 1.0 - _chunked_betaincinv(a, b, delta)
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
        lo, hi = lower_lo[sel_lo], lower_hi[sel_lo]
        zero = zs == 0.0
        a, b = np.where(zero, 1.0, zs), ms - zs + 1.0
        low = _chunked_betaincinv(a, b, delta)
        bad = ~zero & ~((low >= lo) & (low <= hi))
        if bad.any():
            w = _bisect_betainc(a[bad], b[bad], delta, lo[bad], hi[bad])
            low[bad] = np.clip(w, lo[bad], hi[bad])
        low[zero] = 0.0
        lower[sel_lo] = low

    return lower, upper
