"""Checks for the beta/binomial special functions and confidence bounds."""

import decimal
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sps
from scipy import stats

import calband.bands as bands_module
import calband.special as special_module
from _reference import (
    binom_cdf_direct,
    chi2_inner_ends,
    cp_lower_by_inversion,
    cp_upper_by_inversion,
    hoeffding_lower_ends,
)
from calband.special import (
    DELTA_FLOOR,
    _inner_ends,
    _kl_inner,
    _kl_outer,
    chi2_survival,
    cp_bounds_batch,
    cp_lower,
    cp_upper,
    reg_inc_gamma_upper,
)


def test_reg_inc_beta_uniform_is_identity():
    # I_x(1, 1) = x, so the one-trial bounds are delta and 1 - delta
    for delta in np.linspace(0.0, 1.0, 21)[1:-1]:
        assert abs(cp_lower(1, 1, delta) - delta) <= 1e-13
        assert abs(cp_upper(0, 1, delta) - (1.0 - delta)) <= 1e-13


def test_reg_inc_beta_boundaries():
    # I_0 = 0 and I_1 = 1: no successes pin the lower bound at 0 and no
    # failures the upper bound at 1, exactly, down to the delta floor
    m = np.arange(1, 300)
    for delta in (0.9, 0.05, 1e-12, 1e-150, DELTA_FLOOR):
        lo, _ = cp_bounds_batch(np.zeros_like(m), m, delta)
        _, up = cp_bounds_batch(m, m, delta)
        assert (lo == 0.0).all() and (up == 1.0).all()


def test_reg_inc_beta_closed_form_cubic():
    # I_x(3,2) = x^3 (4 - 3x); at x = 1/2 that is 5/16
    assert abs(cp_lower(3, 4, 0.3125) - 0.5) <= 1e-13
    for delta in (1e-9, 1e-3, 0.05, 0.5, 0.9):
        x = cp_lower(3, 4, delta)
        assert abs(x**3 * (4.0 - 3.0 * x) - delta) <= 1e-13 * max(delta, 1e-3)


def test_reg_inc_beta_quadrature_oracle():
    # the beta(z, m-z+1) mass below cp_lower, by adaptive quadrature, is delta
    rng = np.random.default_rng(91)
    for _ in range(25):
        m = int(rng.integers(1, 30))
        z = int(rng.integers(1, m + 1))
        delta = float(rng.uniform(0.01, 0.5))
        a, b = z, m - z + 1
        x = cp_lower(z, m, delta)
        dens, err = integrate.quad(
            lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, x,
            epsabs=1e-14, limit=200,
        )
        mass = dens / math.exp(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        )
        assert abs(mass - delta) <= 1e-11


def test_reg_inc_beta_matches_scipy_grid():
    # the forward incomplete beta at each lower bound gives back delta; an
    # upper bound is 1 minus a lower bound (test_cp_duality_bit_exact), and
    # the subtraction rounds away the digits this check would need
    m = np.concatenate([np.full(k, k) for k in range(1, 81)])
    z = np.concatenate([np.arange(1, k + 1) for k in range(1, 81)])
    for delta in (0.3, 0.05, 1e-6, 1e-30):
        lo, _ = cp_bounds_batch(z, m, delta, upper_where=False)
        got = sps.betainc(z, m - z + 1, lo)
        np.testing.assert_allclose(got, delta, rtol=1e-9)


def test_reg_inc_beta_symmetry_and_monotonicity():
    # the bounds move monotonically with delta; the mirror symmetry
    # I_x(a,b) = 1 - I_{1-x}(b,a) is test_cp_duality_bit_exact
    deltas = np.linspace(0.0, 1.0, 41)[1:-1]
    for z, m in ((0, 9), (2, 9), (7, 9), (9, 9), (40, 151)):
        lo = [cp_lower(z, m, d) for d in deltas]
        up = [cp_upper(z, m, d) for d in deltas]
        assert all(a <= b for a, b in zip(lo, lo[1:]))
        assert all(a >= b for a, b in zip(up, up[1:]))


def test_reg_inc_beta_domain_errors():
    # counts outside 0 <= z <= m, m >= 1 have no beta law to invert
    for z, m in (([1, -1], [3, 3]), ([1, 0], [3, 0]), ([2, 4], [3, 3])):
        with pytest.raises(ValueError, match="0 <= z <= m"):
            cp_bounds_batch(np.array(z), np.array(m), 0.05)


def test_beta_quantile_uniform_median():
    assert abs(cp_lower(1, 1, 0.5) - 0.5) <= 1e-12
    assert abs(cp_upper(0, 1, 0.5) - 0.5) <= 1e-12


def test_beta_quantile_boundaries():
    # at z = m the lower bound solves x^m = delta, at z = 0 the upper bound
    # solves (1-x)^m = delta
    for delta in (0.9, 0.05, 1e-12, 1e-150, DELTA_FLOOR):
        for m in (1, 2, 5, 40, 1000):
            root = delta ** (1.0 / m)
            want = pytest.approx(root, rel=1e-12, abs=0)
            assert cp_lower(m, m, delta) == want
            want = pytest.approx(1.0 - root, rel=1e-12, abs=0)
            assert cp_upper(0, m, delta) == want


def test_beta_quantile_forward_roundtrip():
    # the direct-sum binomial CDF at each bound gives back delta, with no
    # scipy in the check
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        z = int(rng.integers(0, m + 1))
        delta = float(rng.uniform(1e-6, 0.5))
        if z < m:
            cdf = binom_cdf_direct(z, m, cp_upper(z, m, delta))
            assert abs(cdf - delta) <= 1e-10
        if z > 0:
            tail = 1.0 - binom_cdf_direct(z - 1, m, cp_lower(z, m, delta))
            assert abs(tail - delta) <= 1e-10


def _scipy_agrees(z, m, delta):
    """scipy's roots of I_x(z, m - z + 1) = delta, and where scipy confirms them.

    scipy's own betainc at its root must give back delta to 1e-13;
    elsewhere betaincinv misses (it is 1.9e-12 too high at (36, 40, 1e-300)
    by an exact binomial sum) and says nothing.
    """
    a = z.astype(np.float64)
    b = (m - z + 1).astype(np.float64)
    with np.errstate(all="ignore"):
        root = sps.betaincinv(a, b, delta)
        ok = (z > 0) & (np.abs(sps.betainc(a, b, root) / delta - 1.0) < 1e-13)
    return root, ok


def test_beta_quantile_matches_scipy():
    # within 1e-12 relative of scipy's betaincinv wherever scipy's own
    # forward check confirms its root, from delta > 1/2 down to the floor
    # and for lopsided counts up to m = 2e5; scipy is test-only
    rng = np.random.default_rng(29)
    ms = np.concatenate([rng.integers(1, 500, size=200), [1000, 10104, 50000, 200000]])
    z_parts, m_parts = [], []
    for m in ms.tolist():
        z = np.array([0, 1, 2, m // 3, m // 2, m - 2, m - 1, m, int(rng.integers(0, m + 1))])
        z = np.unique(z[(z >= 0) & (z <= m)])
        z_parts.append(z)
        m_parts.append(np.full(z.shape, m))
    z, m = np.concatenate(z_parts), np.concatenate(m_parts)
    checked = 0
    for delta in (0.999, 0.9, 0.6, 0.3, 0.05 / 780.0, 1e-9, 1e-30, 1e-100, 1e-200, DELTA_FLOOR):
        lo, up = cp_bounds_batch(z, m, delta)
        root, ok = _scipy_agrees(z, m, delta)
        np.testing.assert_allclose(lo[ok], root[ok], rtol=1e-12, atol=0)
        checked += int(ok.sum())
        # the upper bound is 1 - the root for m - z; compare it on the
        # scale of the smaller of the two, down to an ulp of 1
        root, ok = _scipy_agrees(m - z, m, delta)
        want = 1.0 - root[ok]
        slack = 1e-12 * np.minimum(root[ok], want) + 2.0**-52
        assert (np.abs(up[ok] - want) <= slack).all()
        checked += int(ok.sum())
    assert checked > 25000


def test_cp_bounds_batch_is_batch_independent():
    # a bound depends on its own (z, m, delta) only: the full batch, a
    # shuffled one, subsets and single entries give the same bits
    rng = np.random.default_rng(131)
    m = np.concatenate([rng.integers(1, 3000, size=300), [1, 2, 200000, 200000]])
    z = np.minimum((rng.random(m.size) * (m + 1)).astype(np.int64), m)
    z[-2:] = [1, 199999]
    side = rng.random(m.size) < 0.5
    # at moderate delta a batch mixes roots above and below the mean,
    # whose tails are evaluated two ways
    for delta in (0.9, 0.75, 0.6, 0.3, 0.05, 1e-7, 1e-40, 1e-300):
        lo, up = cp_bounds_batch(z, m, delta)
        perm = rng.permutation(m.size)
        lo_p, up_p = cp_bounds_batch(z[perm], m[perm], delta)
        np.testing.assert_array_equal(lo_p, lo[perm])
        np.testing.assert_array_equal(up_p, up[perm])
        lo_s, up_s = cp_bounds_batch(z, m, delta, lower_where=side, upper_where=~side)
        np.testing.assert_array_equal(lo_s[side], lo[side])
        np.testing.assert_array_equal(up_s[~side], up[~side])
        for part in np.array_split(perm, 7):
            lo_k, up_k = cp_bounds_batch(z[part], m[part], delta)
            np.testing.assert_array_equal(lo_k, lo[part])
            np.testing.assert_array_equal(up_k, up[part])
        for i in perm[:25].tolist():
            assert cp_lower(int(z[i]), int(m[i]), delta) == lo[i]
            assert cp_upper(int(z[i]), int(m[i]), delta) == up[i]


def _decimal_tail(z, m, p, lower):
    """P(Bin(m, p) >= z) (lower) or P(Bin(m, p) <= z) as a Decimal.

    For lopsided counts only: it sums the short side, at most 3 terms, at
    360 digits, so a tail written as 1 minus a sum keeps 40 digits down
    to 1e-300.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 360
        p = decimal.Decimal(p)
        q = 1 - p

        def pmf(k):
            # 0 ** 0 is 1 here, as in the binomial law at p = 0 or 1
            return math.comb(m, k) * (p**k if k else 1) * (q ** (m - k) if m - k else 1)

        if lower:  # P(X >= z) = 1 - P(X <= z - 1) or the sum above z
            if z <= 3:
                return 1 - sum(pmf(k) for k in range(z))
            return sum(pmf(k) for k in range(z, m + 1))
        if z >= m - 3:
            return 1 - sum(pmf(k) for k in range(z + 1, m + 1))
        return sum(pmf(k) for k in range(z + 1))


def test_cp_bounds_are_outward_by_exact_tails():
    # the tail at every bound is at most delta: in decimal arithmetic for
    # lopsided counts up to m = 2e5, by the lgamma log-sum-exp tail
    # (good to about 1e-12 here) for the rest; the bounds are also tight:
    # a little inward the tail exceeds delta
    for delta in (0.9, 0.3, 1e-7, 1e-60, 1e-300):
        d = decimal.Decimal(delta)
        for m in (2, 3, 40, 1000, 200000):
            for z in sorted({1, 2, m - 1}):
                lo, up = cp_bounds_batch(np.array([z]), np.array([m]), delta)
                assert _decimal_tail(z, m, lo[0], True) <= d
                assert _decimal_tail(z, m, lo[0] * (1.0 + 1e-12), True) > d
                if z < m:
                    assert _decimal_tail(z, m, up[0], False) <= d
                    # an upper bound is 1 minus a root, so it is known to
                    # a few ulps of 1 besides
                    inward = up[0] - 1e-12 * min(up[0], 1.0 - up[0]) - 2.0**-49
                    assert _decimal_tail(z, m, inward, False) > d
    rng = np.random.default_rng(137)
    m = rng.integers(1, 200, size=60)
    z = np.minimum((rng.random(60) * (m + 1)).astype(np.int64), m)
    for delta in (0.9, 0.05, 1e-9, 1e-100, 1e-300):
        lo, up = cp_bounds_batch(z, m, delta)
        log_d = math.log(delta)
        for zi, mi, low, upp in zip(z.tolist(), m.tolist(), lo.tolist(), up.tolist()):
            if zi > 0:
                # P(Bin(m, p) >= z) is P(Bin(m, 1 - p) <= m - z); the
                # mirror goes through log(p) exactly, not through 1 - p
                assert _log_binom_cdf(mi - zi, mi, low, mirror=True) <= log_d + 1e-12
                inward = low * (1.0 + 1e-10)
                assert _log_binom_cdf(mi - zi, mi, inward, mirror=True) > log_d
            if zi < mi:
                assert _log_binom_cdf(zi, mi, upp) <= log_d + 1e-12
                assert _log_binom_cdf(zi, mi, upp * (1.0 - 1e-10)) > log_d


def test_beta_quantile_domain_errors():
    for delta in (-0.1, 0.0, 1.0, 1.1, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            cp_bounds_batch(np.array([1, 2]), np.array([3, 3]), delta)


# binom_cdf_direct is the forward CDF the inversion oracle bisects on; the
# checks below tie it to exact values and to the incomplete-beta identity
# P(Bin(m, xi) <= z) = I_{1-xi}(m-z, z+1) that cp_bounds_batch inverts.


def test_binom_cdf_edge_cases():
    assert binom_cdf_direct(-1, 10, 0.4) == 0.0
    assert binom_cdf_direct(10, 10, 0.4) == 1.0
    assert binom_cdf_direct(3, 7, 0.0) == 1.0
    assert binom_cdf_direct(3, 7, 1.0) == 0.0


def test_binom_cdf_small_case_exact():
    # C(10,0)+C(10,1)+C(10,2)+C(10,3) = 176 out of 1024; all terms dyadic
    assert binom_cdf_direct(3, 10, 0.5) == 0.171875


def test_binom_cdf_direct_sum_oracle():
    rng = np.random.default_rng(37)
    for m in range(1, 26):
        for z in range(0, m):
            xi = float(rng.random())
            want = sps.betainc(m - z, z + 1, 1.0 - xi)
            assert abs(binom_cdf_direct(z, m, xi) - want) <= 1e-12


def test_binom_cdf_large_m_through_beta():
    rng = np.random.default_rng(41)
    for m in (60, 150, 400):
        for _ in range(10):
            z = int(rng.integers(0, m))
            xi = float(rng.uniform(0.01, 0.99))
            want = sps.betainc(m - z, z + 1, 1.0 - xi)
            assert abs(binom_cdf_direct(z, m, xi) - want) <= 1e-12


def test_binom_cdf_monotone_in_xi():
    # the inversion oracle's bisection relies on this
    vals = [binom_cdf_direct(8, 20, xi) for xi in np.linspace(0.0, 1.0, 40)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_cp_upper_examples():
    assert cp_upper(7, 7, 0.01) == 1.0
    assert abs(cp_upper(0, 1, 0.05) - 0.95) <= 1e-12
    oracle = cp_upper_by_inversion(5, 10, 0.025)
    assert abs(cp_upper(5, 10, 0.025) - oracle) <= 1e-9


def test_cp_lower_examples():
    assert cp_lower(0, 12, 0.01) == 0.0
    assert abs(cp_lower(1, 1, 0.05) - 0.05) <= 1e-12
    oracle = cp_lower_by_inversion(5, 10, 0.025)
    assert abs(cp_lower(5, 10, 0.025) - oracle) <= 1e-9


def test_cp_inversion_oracle_grid():
    # the full m <= 40 sweep lives in the acceptance tests; this is the
    # fast sanity version
    for delta in (0.05, 0.05 / 110.0):
        for m in range(1, 16):
            for z in range(0, m + 1):
                assert abs(
                    cp_upper(z, m, delta) - cp_upper_by_inversion(z, m, delta)
                ) <= 1e-9
                assert abs(
                    cp_lower(z, m, delta) - cp_lower_by_inversion(z, m, delta)
                ) <= 1e-9


def test_cp_duality_bit_exact():
    # cp_upper(m-z) is 1 minus the root cp_lower(z) returns, rounded up:
    # the smallest double at or above it
    for delta in (0.9, 0.3, 0.05, 1e-4, 1e-12):
        for m in (1, 2, 3, 7, 19, 64):
            for z in range(0, m + 1):
                w = cp_lower(z, m, delta)
                u = 1.0 - w
                want = u if 1.0 - u <= w else math.nextafter(u, 2.0)
                assert cp_upper(m - z, m, delta) == want


def test_cp_monotonicity():
    for m in (1, 4, 12, 33):
        ups = [cp_upper(z, m, 0.05) for z in range(0, m + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(ups, ups[1:]))
        los = [cp_lower(z, m, 0.05) for z in range(0, m + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(los, los[1:]))
        for z in range(0, m + 1):
            # tighter delta widens the interval
            assert cp_upper(z, m, 0.01) >= cp_upper(z, m, 0.05) - 1e-15
            assert cp_lower(z, m, 0.01) <= cp_lower(z, m, 0.05) + 1e-15
            assert cp_upper(z, m, 0.05) >= cp_lower(z, m, 0.05)


def test_cp_hoeffding_envelope_grid():
    for delta in (0.05, 0.01, 1e-6):
        for m in (1, 2, 5, 10, 40, 100):
            margin = math.sqrt(math.log(1.0 / delta) / (2.0 * m))
            for z in range(0, m + 1):
                q = z / m
                assert cp_upper(z, m, delta) <= q + margin + 1e-12
                assert cp_lower(z, m, delta) >= q - margin - 1e-12


def test_cp_brackets_contain_exact_bounds():
    # the bracket ends around each bound: Hoeffding's below cp_lower, and
    # the closed-form inner ends
    deltas = (0.9, 0.5, 0.3, 0.05, 1e-6, 1e-30, 1e-100, 1e-200, 1e-300)
    for delta in deltas:
        for m in (1, 2, 3, 5, 10, 40, 100, 1000, 10104, 200000):
            z = np.unique(np.linspace(0, m, min(m + 1, 301)).astype(np.int64))
            mm = np.full(z.shape, m)
            lower_lo = hoeffding_lower_ends(z, mm, delta)
            lower_hi, upper_lo = _inner_ends(z, mm, delta)
            lo, up = cp_bounds_batch(z, mm, delta)
            assert ((lower_lo <= lo) & (lo <= lower_hi)).all()
            assert (upper_lo <= up).all()
            # the solver starts from the Chernoff end, inside Hoeffding's
            outer = _kl_outer(z, mm, delta, lower_lo)
            assert ((lower_lo <= outer) & (outer <= lo)).all()
            if m <= 40 and delta >= 1e-6:
                # the inversion oracle is independent of scipy
                for i, zi in enumerate(z.tolist()):
                    want = cp_lower_by_inversion(zi, m, delta)
                    assert lower_lo[i] <= want <= lower_hi[i]
                    assert upper_lo[i] <= cp_upper_by_inversion(zi, m, delta)


def _log_binom_cdf(z, m, p, mirror=False):
    """log P(Bin(m, p) <= z) by log-sum-exp over lgamma log-pmfs, no scipy.

    mirror=True takes 1 - p for p, with log(1 - p) and log(p) exact.
    """
    q = p if mirror else 1.0 - p
    if q >= 1.0 or z >= m:
        return 0.0
    if q <= 0.0:
        return -math.inf
    lg = [math.lgamma(i + 1.0) for i in range(m + 1)]
    lp, lq = math.log1p(-p), math.log(p)
    if not mirror:
        lp, lq = lq, lp
    terms = [lg[m] - lg[i] - lg[m - i] + i * lp + (m - i) * lq for i in range(z + 1)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def test_kl_brackets_hold_the_exact_bounds_without_scipy():
    # each refined end is checked against the binomial tail itself, not
    # against values the guard clipped into it: P(Bin(m, p) <= z) is at
    # least delta at the upper bound's inner end; the lower side's tail
    # P(Bin(m, p) >= z) is P(Bin(m, 1 - p) <= m - z), at most delta at
    # its outer end and at least delta at its inner end
    rng = np.random.default_rng(113)
    m = np.concatenate([[1, 2, 3, 2000, 2000], rng.integers(1, 2001, size=55)])
    z = np.minimum((rng.random(m.size) * (m + 1)).astype(np.int64), m)
    z[:5] = [0, 1, 3, 1000, 1999]
    for delta in (0.3, 0.05, 1e-7, 1e-30, 1e-100, 1e-200, 1e-300):
        log_d = math.log(delta)
        lower_lo = hoeffding_lower_ends(z, m, delta)
        lower_hi, upper_lo = _inner_ends(z, m, delta)
        up_lo = _kl_inner(z, m, delta, upper_lo, True)
        lo_lo, lo_hi = _kl_outer(z, m, delta, lower_lo), _kl_inner(z, m, delta, lower_hi, False)
        assert (upper_lo <= up_lo).all()
        assert ((lower_lo <= lo_lo) & (lo_lo <= lo_hi) & (lo_hi <= lower_hi)).all()
        for i, (zi, mi) in enumerate(zip(z.tolist(), m.tolist())):
            if zi < mi:
                assert _log_binom_cdf(zi, mi, up_lo[i]) >= log_d
            if zi > 0:
                assert _log_binom_cdf(mi - zi, mi, 1.0 - lo_lo[i]) <= log_d
                assert _log_binom_cdf(mi - zi, mi, 1.0 - lo_hi[i]) >= log_d


def test_kl_brackets_are_tighter_where_bands_prune():
    # at a Bonferroni-sized delta the KL ends leave a fraction of the
    # width the chi-square inner ends leave: of the bracket below cp_lower,
    # and of the gap below cp_upper
    z = np.array([3, 50, 500, 9105, 20])
    m = np.array([40, 100, 1000, 10104, 8000])
    lower_lo = hoeffding_lower_ends(z, m, 1e-7)
    lower_hi, upper_lo = _inner_ends(z, m, 1e-7)
    up_lo = _kl_inner(z, m, 1e-7, upper_lo, True)
    lo_lo, lo_hi = _kl_outer(z, m, 1e-7, lower_lo), _kl_inner(z, m, 1e-7, lower_hi, False)
    chi2_lower_hi, chi2_upper_lo = chi2_inner_ends(z, m, 1e-7)
    up = cp_bounds_batch(z, m, 1e-7)[1]
    assert (up - up_lo < 0.5 * (up - chi2_upper_lo)).all()
    assert (lo_hi - lo_lo < 0.5 * (chi2_lower_hi - lower_lo)).all()


_INNER_DELTAS = (0.5, 0.3, 0.05, 1e-7, 1e-30, 1e-100, 1e-200, 1e-300)


def test_inner_ends_hold_the_binomial_tail_at_the_edges():
    # at z in {0, 1, m - 1, m} the binomial CDF at z still reaches delta
    # at upper_lo, and P(Bin(m, p) >= z) at lower_hi; at z = 0 and z = m
    # the ends are the exact bounds, widened by the 1e-9 slack
    for m in (1, 2, 3, 10, 100, 2000):
        z = np.unique([0, 1, m - 1, m])
        mm = np.full(z.shape, m)
        for delta in _INNER_DELTAS:
            log_d = math.log(delta)
            lower_hi, upper_lo = _inner_ends(z, mm, delta)
            lo, up = cp_bounds_batch(z, mm, delta)
            for i, zi in enumerate(z.tolist()):
                if zi < m:
                    assert _log_binom_cdf(zi, m, upper_lo[i]) >= log_d
                if zi > 0:
                    assert _log_binom_cdf(m - zi, m, lower_hi[i], mirror=True) >= log_d
            if delta <= 0.5:
                assert up[0] - 2e-9 <= upper_lo[0] <= up[0]
                assert lo[-1] <= lower_hi[-1] <= lo[-1] + 2e-9


def test_inner_ends_are_never_looser_than_the_chi2_ends():
    # Ash's level is at least the method-of-types level, so both ends are
    # at least as tight as the chi-square ones, and far tighter at the
    # edges. Up to an ulp: where both are 1 (z = m) or q (c <= 0), they
    # may round apart
    rng = np.random.default_rng(17)
    m = np.concatenate([np.arange(1, 60), rng.integers(1, 300_001, size=3000)])
    z = np.minimum((rng.random(m.size) * (m + 1)).astype(np.int64), m)
    z[:200:4], z[1:200:4] = 0, m[1:200:4]
    for delta in _INNER_DELTAS:
        lower_hi, upper_lo = _inner_ends(z, m, delta)
        chi2_lower_hi, chi2_upper_lo = chi2_inner_ends(z, m, delta)
        assert (upper_lo >= chi2_upper_lo - 1e-15).all()
        assert (lower_hi <= chi2_lower_hi + 1e-15).all()
        if delta <= 1e-7:
            assert (upper_lo > chi2_upper_lo + 1e-6).mean() > 0.5
            assert (lower_hi < chi2_lower_hi - 1e-6).mean() > 0.5


def test_inner_ends_are_elementwise():
    # each entry's inner ends are those of its own one-entry call
    z = np.array([0, 1, 7, 39, 40, 3])
    m = np.array([40, 40, 40, 40, 40, 200_000])
    for delta in (0.7, 0.05, 1e-30):
        want = np.array(_inner_ends(z, m, delta))
        each = np.hstack([_inner_ends(z[i : i + 1], m[i : i + 1], delta) for i in range(6)])
        np.testing.assert_array_equal(each, want)


def test_inner_ends_lie_past_the_rate():
    # the exact pass's rate test relies on this for delta <= 1/2: the upper
    # side's inner end is never below z/m by more than the slack, the
    # lower side's never above it, up to an ulp of rounding where c = 0
    # and the roots fall on q; the test's margin is several slacks
    rng = np.random.default_rng(83)
    m = np.concatenate(
        (rng.integers(1, 200_001, 4000), rng.integers(1, 60, 2000), [1, 2, 200_000])
    )
    z = np.minimum((rng.random(m.shape[0]) * (m + 1)).astype(np.int64), m)
    z[:300], z[300:600] = 0, m[300:600]
    q = z / m
    slack = special_module._BRACKET_SLACK + 1e-15
    assert bands_module._RATE_SLACK >= 2 * slack
    for delta in (0.5, 0.05, 1e-6, 1e-300):
        lower_hi, upper_lo = _inner_ends(z, m, delta)
        assert (upper_lo >= q - slack).all()
        assert (lower_hi <= q + slack).all()


def test_cp_bounds_batch_is_the_same_under_either_inner_guard(monkeypatch):
    # the solver reads the inner ends only as a guard on its bracket, so
    # the chi-square ends give the same bounds, bit for bit
    rng = np.random.default_rng(19)
    m = np.concatenate([np.arange(1, 40), rng.integers(1, 300_001, size=1200)])
    z = np.minimum((rng.random(m.size) * (m + 1)).astype(np.int64), m)
    z[:40:3], z[1:40:3] = 0, m[1:40:3]
    deltas = (0.3, 0.05, 1e-4, 1e-9, 1e-30, 1e-100, 1e-300)
    new = [cp_bounds_batch(z, m, delta) for delta in deltas]
    monkeypatch.setattr(special_module, "_inner_ends", chi2_inner_ends)
    for delta, (lo, up) in zip(deltas, new):
        old_lo, old_up = cp_bounds_batch(z, m, delta)
        np.testing.assert_array_equal(lo, old_lo)
        np.testing.assert_array_equal(up, old_up)


@pytest.mark.parametrize(
    "z, m, delta, exact",
    [
        # exact bounds from an 80-digit mpmath bisection on the binomial CDF
        (35, 3000, 1e-250, 0.21279308862617476),
        (12, 1000, 1e-300, 0.53002167649492175),
        (8664, 10000, 1e-150, 0.93830549621151171),
    ],
)
def test_cp_upper_far_tail_is_conservative(z, m, delta, exact):
    # betaincinv misses all three; betainc underflows to 0 near the first
    # two, and a 0 must not pull the re-solve to the inner end
    assert exact <= cp_upper(z, m, delta) <= exact + 2e-3
    assert exact <= 1.0 - cp_lower(m - z, m, delta) <= exact + 2e-3


def test_cp_brackets_are_tight_where_they_prune():
    z = np.array([0, 3, 50, 500, 9105])
    m = np.array([40, 40, 100, 1000, 10104])
    lower_lo = hoeffding_lower_ends(z, m, 1e-7)
    lower_hi, upper_lo = _inner_ends(z, m, 1e-7)
    assert (cp_bounds_batch(z, m, 1e-7)[1] - upper_lo < 0.25).all()
    assert (lower_hi - lower_lo < 0.25).all()
    # the method-of-types ends sit on the far side of the rate
    q = z / m
    assert (upper_lo >= q - 1e-9).all()
    assert (lower_hi <= q + 1e-9).all()


def test_cp_bounds_batch_corrects_silent_betaincinv_misses():
    # scipy 1.17.1 puts this quantile at 0.7495, where betainc is 0, and
    # returns NaN for the 1e-300 tails below; the bounds here are roots of
    # the binomial tail, outward by its exact value
    delta = 0.05 / 500500
    lo, up = cp_bounds_batch(np.array([9105]), np.array([10104]), delta)
    assert lo[0] == pytest.approx(0.884909307294384, rel=1e-12, abs=0)
    log_tail = _log_binom_cdf(10104 - 9105, 10104, lo[0], mirror=True)
    assert log_tail <= math.log(delta) + 1e-10
    lo, up = cp_bounds_batch(np.array([2, 3]), np.array([5, 5]), 1e-300)
    assert lo[0] == pytest.approx(math.sqrt(1e-301), rel=1e-9, abs=0)
    assert cp_lower(2, 5, 1e-300) == lo[0]
    assert lo[1] == pytest.approx((1e-300 / 10.0) ** (1.0 / 3.0), rel=1e-9, abs=0)
    assert (up == 1.0).all()


def test_far_tail_gaps_are_closed():
    # (1 - 7e-16)^(1/10) is 1 - 7e-17, within an ulp of 1: rounded up to 1
    assert cp_upper(9, 10, 7e-16) == 1.0
    assert cp_lower(0, 10, 7e-16) == 0.0
    # a 60-digit bisection on P(Bin(28, p) >= 19) = 1e-300 gives
    # 7.088658325291097e-17; the bound is at or below it, within 1e-12
    exact = 7.088658325291097e-17
    assert exact * (1.0 - 1e-12) <= cp_lower(19, 28, 1e-300) <= exact


def test_cp_validity_by_simulation():
    # every count's bounds once, read by the draws: the scalar API equals
    # the batch bit for bit (test_cp_bounds_batch_matches_scalar)
    rng = np.random.default_rng(53)
    m, delta, reps = 30, 0.1, 2000
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / reps)
    counts = np.arange(m + 1)
    lower, upper = cp_bounds_batch(counts, np.full(m + 1, m), delta)
    for q in (0.1, 0.5, 0.9):
        draws = rng.binomial(m, q, size=reps)
        hits = np.count_nonzero(q <= upper[draws])
        assert hits / reps >= 1.0 - delta - slack
        hits = np.count_nonzero(lower[draws] <= q)
        assert hits / reps >= 1.0 - delta - slack


def test_cp_domain_and_underflow_errors():
    with pytest.raises(ValueError):
        cp_upper(-1, 5, 0.05)
    with pytest.raises(ValueError):
        cp_upper(6, 5, 0.05)
    with pytest.raises(ValueError):
        cp_lower(2, 0, 0.05)
    with pytest.raises(ValueError):
        cp_upper(2, 5, 0.0)
    with pytest.raises(ValueError):
        cp_upper(2, 5, 1.0)
    assert DELTA_FLOOR == 1e-300
    with pytest.raises(ValueError):
        cp_upper(2, 5, 1e-310)
    # just above the floor still works and stays in [0, 1]
    assert 0.0 <= cp_upper(2, 5, 1e-299) <= 1.0
    # counts that are not finite integers are refused, not truncated;
    # integral floats are counts
    for z, m in ((1.5, 3), (2.9, 3.7), (2, 3.5), (math.nan, 3), (1, math.inf)):
        with pytest.raises(ValueError, match="finite integers"):
            cp_lower(z, m, 0.05)
        with pytest.raises(ValueError, match="finite integers"):
            cp_upper(z, m, 0.05)
    with pytest.raises(ValueError, match="finite integers"):
        cp_bounds_batch(np.array([1.0, 2.5]), np.array([3, 3]), 0.05)
    assert cp_lower(1.0, 3.0, 0.05) == cp_lower(1, 3, 0.05)
    assert cp_upper(np.int32(2), np.uint8(3), 0.05) == cp_upper(2, 3, 0.05)


def test_cp_bounds_batch_matches_scalar():
    # the scalar API is the batch route, bit for bit; both match the
    # scipy-independent inversion oracle to 1e-10
    rng = np.random.default_rng(59)
    m = rng.integers(1, 400, size=600)
    z = (rng.random(600) * (m + 1)).astype(np.int64)
    z = np.minimum(z, m)
    z[:10] = 0
    z[10:20] = m[10:20]
    for delta in (0.025, 0.05 / 780.0, 1e-9):
        lo, up = cp_bounds_batch(z, m, delta)
        for i in range(z.shape[0]):
            assert lo[i] == cp_lower(int(z[i]), int(m[i]), delta)
            assert up[i] == cp_upper(int(z[i]), int(m[i]), delta)
        for i in np.flatnonzero(m <= 60):
            zi, mi = int(z[i]), int(m[i])
            assert abs(lo[i] - cp_lower_by_inversion(zi, mi, delta)) <= 1e-10
            assert abs(up[i] - cp_upper_by_inversion(zi, mi, delta)) <= 1e-10
        assert (lo <= up).all()


def test_cp_bounds_batch_side_masks():
    z = np.array([0, 1, 4, 7, 7])
    m = np.array([7, 7, 7, 7, 9])
    lo, up = cp_bounds_batch(z, m, 1e-3)
    want = np.array([True, False, True, False, True])
    lo_m, up_m = cp_bounds_batch(z, m, 1e-3, lower_where=want, upper_where=~want)
    np.testing.assert_array_equal(lo_m[want], lo[want])
    np.testing.assert_array_equal(up_m[~want], up[~want])
    assert np.isnan(lo_m[~want]).all() and np.isnan(up_m[want]).all()
    lo_u, up_u = cp_bounds_batch(z, m, 1e-3, lower_where=False)
    assert np.isnan(lo_u).all()
    np.testing.assert_array_equal(up_u, up)


def test_cp_bounds_batch_validation():
    with pytest.raises(ValueError):
        cp_bounds_batch(np.array([1, 2]), np.array([3]), 0.05)
    with pytest.raises(ValueError):
        cp_bounds_batch(np.array([4]), np.array([3]), 0.05)
    with pytest.raises(ValueError):
        cp_bounds_batch(np.array([1]), np.array([3]), 0.0)
    with pytest.raises(ValueError):
        cp_bounds_batch(np.array([1]), np.array([3]), 1e-310)


def test_reg_inc_gamma_upper_vs_scipy():
    rng = np.random.default_rng(67)
    for _ in range(200):
        s = float(rng.uniform(0.2, 50.0))
        x = float(rng.uniform(0.0, 80.0))
        assert abs(reg_inc_gamma_upper(s, x) - sps.gammaincc(s, x)) <= 1e-12
    with pytest.raises(ValueError):
        reg_inc_gamma_upper(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_gamma_upper(1.0, -0.5)


def test_chi2_survival_vs_scipy():
    rng = np.random.default_rng(71)
    for _ in range(100):
        df = int(rng.integers(1, 30))
        stat = float(rng.uniform(0.0, 60.0))
        assert abs(chi2_survival(stat, df) - stats.chi2.sf(stat, df)) <= 1e-12


def test_chi2_survival_zero_df_point_mass():
    # df = 0, the point mass at zero, carries no p-value
    for df in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            chi2_survival(1.0, df)
    with pytest.raises(ValueError):
        chi2_survival(-0.5, 3)
