"""Clopper-Pearson bounds for binomial proportions, and the chi-square tail.

cp_bounds_batch is the one Clopper-Pearson route, in numpy alone. It
evaluates both bounds over integer arrays; the scalar cp_lower and
cp_upper call it for one side, so the two APIs agree bit for bit. An
upper bound is 1 minus the lower bound of m - z, rounded up.

A lower bound is the root x of P(Bin(m, x) >= z) = I_x(z, m - z + 1) =
delta. _Tail evaluates the logarithm of that tail: the binomial pmf at z
in Loader's saddle-point form (_stirlerr, _bd0), which has no
cancellation, times a continued fraction (_betacf) below the mean, and
one minus the mirrored tail above it. _beta_root finds the root in log x
by steps to the roots of the tail's Taylor polynomials, each checked by
an evaluation; the root it returns lies on the left by its own forward
check, so both bounds are outward. Two evaluations per root suffice
almost always. Each entry's formula is chosen by its own values, never by
a count over its batch, so a bound has the same bits whatever else its
batch holds.

Closed forms bound each root on both sides. The inner ends (_inner_ends)
are Ash's lower bound on the binomial coefficient, with KL(q || p)
bounded by two quadratics in p - q, exact at z = 0 and z = m; _kl_inner
tightens them to the root of Ash's bound with KL itself. Band
construction reads only the inner ends, closed-form in both of its
passes and KL in the exact one, and tests them against caps made of
exact bounds, which on a sweep replication (n = 8192, K = 1000) leaves
the exact solve about 1.5-1.7% of the pair sides. The solver's outer end
is Hoeffding's, which _kl_outer tightens to the Chernoff root. The KL
steps are a few vectorized Newton and false-position steps, every end
checked by one KL evaluation. _beta_root starts from the outer end, on
the root's left, and keeps every step inside it and the closed-form
inner end, which is only its guard on the right.

chi2_survival, the tail the Hosmer-Lemeshow baseline is referred to, is
written against the math module only.
"""

import math

import numpy as np

__all__ = [
    "cp_upper",
    "cp_lower",
    "cp_bounds_batch",
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
#: _betacf makes its coefficients for up to _CF_ROWS iterations at a time,
#: fewer for large batches, so that a block holds about _CF_BLOCK values;
#: most fractions converge within 6 to 25 iterations.
_CF_ROWS = 16
_CF_BLOCK = 4096

#: log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15 (0 at n = 0), from
#: 50-digit arithmetic; _stirlerr sums the Stirling series above 15.
_STIRLERR = np.array([
    0.0, 0.08106146679532725822, 0.041340695955409294094,
    0.027677925684998339149, 0.020790672103765093112,
    0.016644691189821192163, 0.013876128823070747999,
    0.011896709945891770095, 0.010411265261972096497,
    0.0092554621827127329177, 0.0083305634333628712565,
    0.007573675487951840795, 0.0069428401072095298657,
    0.0064089941880042070684, 0.0059513701127588477356,
    0.005554733551962801371,
])
_LN_2PI = math.log(2.0 * math.pi)
#: 1/17, 1/15, ..., 1/3: _bd0's series in v^2, in Horner order.
_BD0_SERIES = tuple(1.0 / (2 * j + 1) for j in range(8, 0, -1))

#: _beta_root's tolerance on a root: _ROOT_TOL relative (8 ulps at 1), at
#: least 3 ulps, plus _WIN times the evaluation's error bound over the
#: slope. Each step aims _AIM of the tolerance left of the root, so the
#: next evaluation lands on the left and inside it. _ROOT_STEPS caps the
#: evaluations per root; two suffice almost always.
_ROOT_TOL = 2.0**-49
_AIM = 0.4
_WIN = 6.0
_ROOT_STEPS = 64

#: Absolute widening of every end around a bound: Hoeffding's, _inner_ends'
#: and the KL ends. The closed forms round at about 1e-16 and the roots
#: _beta_root returns lie within about 1e-13 relative of the exact ones, so
#: the widened ends hold the computed bounds, not only the exact ones.
_BRACKET_SLACK = 1e-9

#: Newton steps per KL end in _kl_outer and _kl_inner, and the relative
#: margin by which they aim past their levels, so that a converged step
#: still passes its check.
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

def _inner_ends(z, m, delta):
    """The inner ends (lower_hi, upper_lo) around the bounds, elementwise.

    cp_lower(z, m, delta) <= lower_hi and upper_lo <= cp_upper(z, m,
    delta), for 1-d integer arrays z and m of one shape.

    With q = z/m and 0 < z < m, Ash's bound C(m, z) >= exp(m H(q)) /
    sqrt(8 z (1-q)) gives P(Bin(m,p) = z) >= exp(-m KL(q||p) - c) delta
    with c = log(1/delta) - log(8 z (m-z)/m) / 2, so the binomial CDF at z
    still reaches delta wherever m KL(q||p) <= c. Two bounds on
    KL(q||p) = int_q^p (s-q)/(s(1-s)) ds give such points p > q:
    (p-q)^2/(p(1-p)), whose level set is the larger root of
    m(p-q)^2 = c p(1-p), and (p-q)^2/(2 min(q(1-q), p(1-p))), whose
    level set ends at the smaller of q + sqrt(2c q(1-q)/m) and the larger
    root of m(p-q)^2 = 2c p(1-p). upper_lo is the larger of the two ends.
    At z = 0 it is the exact bound 1 - delta^(1/m); at z = m the roots are
    1, the exact bound. When c <= 0 the end is q itself, which the median
    of Bin(m, q) justifies for delta <= 1/2; above 1/2 it is 0. lower_hi
    mirrors it through cp_lower(z, m) = 1 - cp_upper(m-z, m): the smaller
    roots, 0 at z = 0, the exact delta^(1/m) at z = m, 1 above 1/2. Both
    ends are widened by _BRACKET_SLACK.

    Since sqrt(8 z (m-z)/m) <= m + 1, c is at least the level
    log(1/delta) - log(m+1) of the binary method-of-types bound, so the
    ends are never looser than that bound's chi-square root.
    """
    zf, mf = z.astype(np.float64), m.astype(np.float64)
    if delta > 0.5:
        ones = np.ones_like(zf)
        return ones + _BRACKET_SLACK, -_BRACKET_SLACK * ones
    # in place where it can be: the chunks are large, and fresh
    # temporaries cost more than the arithmetic
    q = zf / mf
    w4 = 1.0 - q
    w4 *= zf
    w4 *= 4.0  # 4 m q (1-q)
    # c, with a floor that keeps it finite at z = 0 and z = m, whose ends
    # are set below
    c = np.maximum(w4, 0.5)
    np.log(c, out=c)
    c *= -0.5
    c += -math.log(delta) - 0.5 * math.log(2.0)
    np.maximum(c, 0.0, out=c)
    z2 = zf + zf
    qz2 = q * z2
    roots = []
    for k in (c, c + c):
        # both roots of m(p-q)^2 = k p(1-p): the larger s / (2(m+k)), the
        # smaller 2 z^2 / (m s) without cancellation (s > 0: c > 0 at z = 0)
        s = k + w4
        s *= k
        np.sqrt(s, out=s)
        s += z2
        s += k
        larger = mf + k
        larger += larger
        np.divide(s, larger, out=larger)
        roots += [np.divide(qz2, s, out=s), larger]
    lo1, up1, lo2, up2 = roots
    h = c * w4
    h *= 0.5
    np.sqrt(h, out=h)
    h /= mf  # sqrt(2c q(1-q)/m)
    upper_lo = np.add(q, h, out=z2)
    np.minimum(upper_lo, up2, out=upper_lo)
    np.maximum(upper_lo, up1, out=upper_lo)
    upper_lo -= _BRACKET_SLACK
    lower_hi = np.subtract(q, h, out=h)
    np.maximum(lower_hi, lo2, out=lower_hi)
    np.minimum(lower_hi, lo1, out=lower_hi)
    lower_hi += _BRACKET_SLACK
    at = np.flatnonzero(zf == 0.0)
    upper_lo[at] = -np.expm1(math.log(delta) / mf[at]) - _BRACKET_SLACK
    at = np.flatnonzero(zf == mf)
    lower_hi[at] = np.exp(math.log(delta) / mf[at]) + _BRACKET_SLACK
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


def _kl_outer(z, m, delta, outer):
    """Tighten outer, Hoeffding's end below cp_lower, to its Chernoff root.

    The steps work on the mirror, cp_lower(z, m) = 1 - cp_upper(w, m) with
    w = m - z. With q = w/m and t = log(1/delta), Chernoff gives
    P(Bin(m, p) <= w) <= exp(-m KL(q || p)) for p > q, so beyond the root
    p > q of m KL(q || p) = t the CDF is < delta, p is above
    cp_upper(w, m, delta) and 1 - p below cp_lower(z, m, delta). From
    _kl_start, Newton steps on the convex, increasing KL stay above the
    root; they aim at t (1 + _KL_AIM) so a converged step passes. At w = 0
    the end is the exact bound delta^(1/m). The end is checked by one KL
    evaluation; one that fails, or is NaN, falls back to outer, as does
    the end at z = 0. It is widened by _BRACKET_SLACK and returned inside
    outer.
    """
    _, _, q, t, h, mid, exact = _kl_terms(z, m, delta, False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        level = t * (1.0 + _KL_AIM)
        p = _kl_start(q, h, level)
        for _ in range(_KL_STEPS):
            p = _kl_newton(q, p, _kl(q, p), level)
        out = np.where(mid & (p > q) & (_kl(q, p) >= t), p, exact)
    return np.fmax(outer, (1.0 - out) - _BRACKET_SLACK)


def _kl_inner(z, m, delta, inner, upper):
    """Tighten one side's closed-form inner end (_inner_ends) to its KL root.

    inner is upper_lo (upper=True) or lower_hi (upper=False). In the upper
    side's terms the level is c = t - log(8 z (1 - q)) / 2 for 0 < z < m:
    Ash's bound C(m, z) >= exp(m H(q)) / sqrt(8 z (1 - q)) gives
    P(Bin(m, p) = z) >= exp(-m KL(q || p) - t + c), which reaches delta
    wherever m KL <= c. Each step is a Newton step on an outer point and a
    false-position chord from the last inner point (q or the closed-form
    end at first); a chord of a convex function lands inside the root. The
    end is checked by one KL evaluation; one that fails, or is NaN, falls
    back to inner, as does the end at z = m. It is widened by
    _BRACKET_SLACK and returned inside inner.
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


# --------------------------------------------------------------------------
# The binomial tail I_x(a, m - a + 1) = P(Bin(m, x) >= a) in log space, and
# its inverse.

def _stirlerr(n):
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), elementwise, for integer n >= 0.

    Loader's table up to 15 (0 at n = 0), the Stirling series above.
    """
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    return np.where(n <= 15.0, _STIRLERR[np.minimum(n, 15.0).astype(np.intp)], series)


def _bd0(x, mu):
    """x log(x/mu) + mu - x without cancellation, elementwise (Loader).

    Near x = mu, with v = (x - mu)/(x + mu), it is (x - mu) v + 2 x (v^3/3 +
    v^5/5 + ...), summed to v^17; elsewhere x log1p((x - mu)/mu) - (x - mu).
    """
    d = x - mu
    v = d / (x + mu)
    v2 = v * v
    p = _BD0_SERIES[0]
    for c in _BD0_SERIES[1:]:
        p = p * v2 + c
    near = d * v + 2.0 * x * v * v2 * p
    return np.where(np.abs(v) < 0.1, near, x * np.log1p(d / mu) - d)


def _betacf(a, b, x):
    """The continued fraction of I_x(a, b), elementwise (modified Lentz).

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times it; it converges fast for
    x below (a+1)/(a+b+2). Each entry's value is the one at its own
    convergence, whatever else its batch holds, so a bound never depends
    on the pairs bounded with it. NaN, after _CF_MAXITER iterations, where
    it does not converge. The coefficients are made a block of iterations
    at a time, each by the same elementwise expression whatever the block.
    """
    n = x.shape[0]
    out = np.full(n, np.nan)
    idx = np.arange(n)
    live = np.ones(n, dtype=bool)
    n_live = n
    apb = a + b
    c = np.ones(n)
    d = 1.0 / (1.0 - apb * x / (a + 1.0))
    h = d
    k = 1
    while n_live and k <= _CF_MAXITER:
        # rows are iterations k .. k + width - 1, columns the entries
        width = min(max(_CF_BLOCK // idx.shape[0], 1), _CF_ROWS, _CF_MAXITER + 1 - k)
        kk = np.arange(k, k + width, dtype=np.float64)[:, None]
        ak2 = a + 2.0 * kk
        sq = ak2 * ak2
        even = (kk * x) * (b - kk) / (sq - ak2)
        odd = x * (a + kk) * (apb + kk) / (sq + ak2)
        for j in range(width):
            e = even[j]
            d = 1.0 / (1.0 + e * d)
            c = 1.0 + e / c
            h = h * (d * c)
            e = odd[j]
            d = 1.0 / (1.0 - e * d)
            c = 1.0 - e / c
            step = d * c
            h = h * step
            conv = live & (np.abs(step - 1.0) < _CF_EPS)
            if np.count_nonzero(conv):
                out[idx[conv]] = h[conv]
                live &= ~conv
                n_live -= int(np.count_nonzero(conv))
                if not n_live:
                    return out
                if n_live < idx.shape[0] // 2:
                    idx, a, b, x, c, d, h, apb = (
                        v[live] for v in (idx, a, b, x, c, d, h, apb)
                    )
                    even, odd = even[:, live], odd[:, live]
                    live = live[live]
        k += width
    return out


def _head_sum(a, m, x):
    """P(Bin(m, x) <= a - 1) / P(Bin(m, x) = a - 1), elementwise.

    Sums the pmf downward from a - 1, each term the last times
    k (1 - x) / ((m - k + 1) x); for x above the mean the terms fall, and
    each entry stops at its own convergence or after a terms.
    """
    n = x.shape[0]
    out = np.empty(n)
    idx = np.arange(n)
    odds = (1.0 - x) / x
    term = np.ones(n)
    total = np.ones(n)
    j = 0
    while idx.shape[0]:
        j += 1
        term = term * ((a - j) * odds / (m - a + j + 1.0))
        total = total + term
        conv = ~(term > _CF_EPS * total)
        if np.count_nonzero(conv):
            out[idx[conv]] = total[conv]
            keep = ~conv
            idx, a, m, odds, term, total = (v[keep] for v in (idx, a, m, odds, term, total))
    return out


class _Tail:
    """log P(Bin(m, x) >= a) = log I_x(a, r + 1), r = m - a, over arrays.

    The binomial pmf at a is Loader's saddle-point form: the Stirling
    remainders of m, a and r, fixed per entry, less two _bd0 terms. It
    has no cancellation, where lgamma(m+1) - lgamma(a+1) - lgamma(r+1)
    would lose 2e-10 at m = 2e5. The tail is that pmf times (1 - x) times
    _betacf below (a+1)/(m+3), and above it one minus the mirrored tail
    J = P(Bin(m, x) <= a - 1), by _betacf on the mirrored law or, where
    b > a, by _head_sum. Its arithmetic meets 0/0, log(0) and overflow in
    branches it then discards; _beta_root, which calls it, ignores the
    warnings.
    """

    def __init__(self, a, m):
        self.a, self.m, self.r = a, m, m - a
        self.b = self.r + 1.0
        lf = _LN_2PI + np.log(a) + np.log1p(-a / m)
        # at r = 0 the pmf is x^m, and the constant is not used
        self.const = np.where(
            self.r > 0.0, _stirlerr(m) - _stirlerr(a) - _stirlerr(self.r) - 0.5 * lf, 0.0
        )
        self.switch = (a + 1.0) / (m + 3.0)

    def log_pmf(self, x):
        """log P(Bin(m, x) = a)."""
        a, m, r = self.a, self.m, self.r
        lp = self.const - _bd0(a, m * x) - _bd0(r, m * (1.0 - x))
        return np.where(r == 0.0, m * np.log(x), lp)

    def log_c(self):
        """log C(m, a): log_pmf at x = a/m less its powers of x and 1 - x."""
        a, m, r = self.a, self.m, self.r
        log_c = self.const - a * np.log(a / m) - r * np.log(r / m)
        return np.where(r > 0.0, log_c, 0.0)

    def eval(self, x):
        """(log I_x, its slope in u = log x, a bound on the error of log I).

        The slope is a pmf(a) / I. The error bound is an ulp of the sum of
        the magnitudes of the terms that make up log I, or of the mirrored
        tail J's logarithm, scaled by J / (1 - J), above the switch. Each
        entry takes its own branch, so its value depends on it alone.
        """
        a, b = self.a, self.b
        lp = self.log_pmf(x)
        lq = np.log1p(-x)
        flip = x > self.switch
        # the mirrored fraction, in 1 - x, cancels by about
        # b / (m x - a + 1): with b > a, J is summed from its largest term
        head = flip & (b > a)
        cf = ~head
        h = np.empty(x.shape[0])
        h[head] = _head_sum(a[head], self.m[head], x[head]) / x[head]
        h[cf] = _betacf(
            np.where(flip, b, a)[cf], np.where(flip, a, b)[cf], np.where(flip, 1.0 - x, x)[cf]
        )
        h = np.log(h)
        log_i = lp + lq + h
        err = (2.0 * np.abs(self.const) - lp - lq + np.abs(h)) * 2.0**-52
        log_i = np.where(flip, np.log1p(-np.exp(log_i + np.log(a / b))), log_i)
        # log1p(-J) takes J's relative error times J / (1 - J)
        err = np.where(flip, err * np.expm1(-log_i), err)
        return log_i, a * np.exp(lp - log_i), err

    def step(self, f, s, x, order):
        """Root in u of the Taylor polynomial of log I - log delta at x.

        f is log I - log delta at x and s its first derivative. With
        g = log(x * density) = a u + r log(1 - x) + const, s = exp(g - log I),
        so s' = s (g' - s) and every higher derivative follows from s and
        those of g. order 2 is the quadratic's root; order 5 refines it by
        one Newton step on the quintic.
        """
        omx = 1.0 - x
        nrq = -self.r * (x / omx)
        g1 = self.a + nrq
        l2 = s * (g1 - s)
        step = -2.0 * f / (s + np.sqrt(np.maximum(s * s - 2.0 * l2 * f, 0.0)))
        if order == 2:
            return step
        g2 = nrq / omx
        g3 = g2 * (1.0 + x) / omx
        g4 = nrq * (1.0 + x * (4.0 + x)) / omx**3
        l3 = l2 * (g1 - s) + s * (g2 - l2)
        l4 = l3 * (g1 - s) + 2.0 * l2 * (g2 - l2) + s * (g3 - l3)
        l5 = l4 * (g1 - s) + 3.0 * l3 * (g2 - l2) + 3.0 * l2 * (g3 - l3) + s * (g4 - l4)
        p = f + step * (s + step * (l2 / 2 + step * (l3 / 6 + step * (l4 / 24 + step * l5 / 120))))
        dp = s + step * (l2 + step * (l3 / 2 + step * (l4 / 6 + step * l5 / 24)))
        return step - p / dp


def _beta_root(a, m, delta, lo, hi):
    """Largest x found with I_x(a, m - a + 1) <= delta, for 1 <= a <= m.

    lo and hi bracket the root: lo on its left, hi on its right. The
    search starts at the larger of lo and the union bound's root (I <=
    C(m, a) x^a), which one step on a closed-form approximation of
    I / pmf(a) brings to within about 1e-5 of the root. Each later step
    evaluates log I (_Tail.eval) and moves to the root of
    its quintic Taylor polynomial in log x, or Newton's where that leaves
    (lo, hi), or the midpoint. A point whose log I plus its error bound
    is <= log delta becomes lo, any other hi. The steps aim a little left
    of the root, so the second evaluation lands on that side within the
    tolerance almost always. The returned x is the last lo: on the
    root's left by its own evaluation, or lo as given.
    """
    a = a.astype(np.float64)
    m = m.astype(np.float64)
    log_delta = math.log(delta)
    lo = np.clip(lo, 0.0, 1.0)
    hi = np.clip(hi, 0.0, 1.0)
    out = lo.copy()
    idx = np.arange(a.shape[0])
    with np.errstate(all="ignore"):
        tail = _Tail(a, m)
        x = np.minimum(np.maximum(lo, np.exp((log_delta - tail.log_c()) / a)), hi)
        # one step on log pmf(a) + log(I / pmf(a)), the latter from the
        # tail's ratios t_{a+i} ~ t e^(-i kappa): 1/(1-t) - kappa t^2/(1-t)^3
        r = tail.r
        t = r * x / ((a + 1.0) * (1.0 - x))
        w = t / (1.0 - t)
        ls = np.log1p(-np.minimum((1.0 / r + 1.0 / (a + 1.0)) * w * w, 0.5)) - np.log1p(-t)
        f = tail.log_pmf(x) + ls - log_delta
        x_new = x * np.exp(tail.step(f, a * np.exp(-ls), x, 2))
        x = np.where((t < 1.0) & (x_new > lo) & (x_new < hi), x_new, x)
        for _ in range(_ROOT_STEPS):
            log_i, s, err = tail.eval(x)
            # a point counts as left only with its error bound added
            f = log_i - log_delta + err
            left = f <= 0.0
            lo = np.where(left, x, lo)
            hi = np.where(f > 0.0, x, hi)
            # relative to x, or near 1 to 1 - x (an upper bound is 1 minus
            # a root), but at least 3 ulps of x; widened by the error of f
            rel = _ROOT_TOL * np.minimum(1.0, (1.0 - x) / x)
            tol = np.fmin(np.maximum(rel, 3.0 * np.spacing(x) / x) + _WIN * err / s, 2.0**-20)
            done = left & (-f <= s * tol)
            # aim a little left of the root: the Taylor root, else Newton's,
            # which log-concavity of I in log x keeps left of its aim, else
            # the bracket's midpoint
            f = f + _AIM * s * tol
            x_new = x + x * np.expm1(tail.step(f, s, x, 5))
            out_lo, out_hi = lo * (1.0 - 4.0 * tol), hi * (1.0 + 4.0 * tol)
            stray = ~((x_new > out_lo) & (x_new < out_hi))
            if np.count_nonzero(stray):
                newton = x + x * np.expm1(-f / s)
                newton = np.where((newton > out_lo) & (newton < out_hi), newton, 0.5 * (lo + hi))
                x_new = np.where(stray, newton, x_new)
            x_new = np.clip(x_new, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0))
            done |= ~(hi > lo * (1.0 + tol))
            out[idx] = lo
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                break
            if n_done:
                keep = ~done
                idx, lo, hi, x_new = idx[keep], lo[keep], hi[keep], x_new[keep]
                tail = _Tail(tail.a[keep], tail.m[keep])
            x = x_new
    return out


def _lower_bounds(z, m, delta):
    """cp_lower over integer arrays, by _beta_root from the _kl_outer end.

    _kl_outer tightens Hoeffding's end max(q - sqrt(log(1/delta)/(2m)), 0),
    q = z/m. The closed-form inner end bounds the search on the other
    side; the solver only needs it as a guard, so it is not tightened.
    """
    mf = m.astype(np.float64)
    hoeffding = np.maximum(z / mf - np.sqrt(-math.log(delta) / (2.0 * mf)), 0.0) - _BRACKET_SLACK
    lo = _kl_outer(z, m, delta, hoeffding)
    lower_hi = _inner_ends(z, m, delta)[0]
    out = np.zeros(z.shape)
    mid = z > 0
    if mid.any():
        out[mid] = _beta_root(z[mid], m[mid], delta, lo[mid], lower_hi[mid])
    return out


def cp_bounds_batch(z, m, delta, lower_where=True, upper_where=True):
    """Vectorized (cp_lower, cp_upper) over integer arrays z and m.

    The lower bound is the root x of I_x(z, m-z+1) = delta, 0 at z = 0;
    the upper bound is 1 - w for the root w of I_w(m-z, z+1) = delta, 1 at
    z = m: the lower tail of the swapped beta law, which keeps 1-delta
    out of the computation for extreme corrections. Returns two float64
    arrays.

    lower_where and upper_where select, like numpy's where=, which entries
    of each side to evaluate: a bool or a bool array broadcastable to z.
    Entries not selected are NaN.

    An upper bound is 1 - cp_lower(m - z, m) rounded up, and both sides
    go through one _beta_root call, each from its _kl_outer end.
    Every root it returns is on the root's left by its own forward
    evaluation of the tail, so both bounds are outward. Each bound
    depends on its own (z, m, delta) only, not on the other entries of
    its batch. Counts that are not finite integers raise ValueError.
    """
    z, m = np.asarray(z), np.asarray(m)
    for counts in (z, m):
        # integer dtypes, the band engine's, need no check
        if counts.dtype.kind not in "iu":
            f = counts.astype(np.float64)
            if not (np.isfinite(f) & (f == np.trunc(f))).all():
                raise ValueError(f"counts z and m must be finite integers, got {counts}")
    z, m = z.astype(np.int64, copy=False), m.astype(np.int64, copy=False)
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
    # both sides in one solve: cp_upper(z, m) is 1 - cp_lower(m - z, m)
    n_lo = int(np.count_nonzero(sel_lo))
    roots = _lower_bounds(
        np.concatenate((z[sel_lo], m[sel_up] - z[sel_up])),
        np.concatenate((m[sel_lo], m[sel_up])),
        delta,
    )
    lower[sel_lo] = roots[:n_lo]
    w = roots[n_lo:]
    u = 1.0 - w
    # 1 - u is exact, so this compares u with 1 - w exactly
    upper[sel_up] = np.where(1.0 - u > w, np.nextafter(u, 2.0), u)
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
