"""Checks for the beta/binomial special functions and confidence bounds."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sps
from scipy import stats

from _reference import (
    binom_cdf_direct,
    cp_lower_by_inversion,
    cp_upper_by_inversion,
)
from calband.special import (
    DELTA_FLOOR,
    BinomialCount,
    beta_quantile,
    binom_cdf,
    chi2_survival,
    cp_bounds_batch,
    cp_brackets,
    cp_lower,
    cp_upper,
    reg_inc_beta,
    reg_inc_gamma_upper,
)


def test_binomial_count_validation():
    bc = BinomialCount(z=2, m=3)
    assert (bc.z, bc.m) == (2, 3)
    with pytest.raises(ValueError):
        BinomialCount(z=4, m=3)
    with pytest.raises(ValueError):
        BinomialCount(z=-1, m=3)
    with pytest.raises(ValueError):
        BinomialCount(z=0, m=0)


def test_reg_inc_beta_uniform_is_identity():
    for x in np.linspace(0.0, 1.0, 21):
        assert abs(reg_inc_beta(1.0, 1.0, x) - x) <= 1e-13


def test_reg_inc_beta_boundaries():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0


def test_reg_inc_beta_closed_form_cubic():
    # I_x(3,2) = x^3 (4 - 3x); at x = 1/2 that is 5/16
    assert abs(reg_inc_beta(3.0, 2.0, 0.5) - 0.3125) <= 1e-13


def test_reg_inc_beta_quadrature_oracle():
    # the value at (3,2,0.5) against adaptive quadrature of t^2(1-t)/B(3,2)
    val, err = integrate.quad(lambda t: t * t * (1.0 - t), 0.0, 0.5, epsabs=1e-14)
    assert err < 1e-12
    assert abs(reg_inc_beta(3.0, 2.0, 0.5) - val * 12.0) <= 1e-12

    rng = np.random.default_rng(91)
    for _ in range(25):
        a = float(rng.uniform(0.4, 20.0))
        b = float(rng.uniform(0.4, 20.0))
        x = float(rng.uniform(0.02, 0.98))
        dens, err = integrate.quad(
            lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, x,
            epsabs=1e-14, limit=200,
        )
        oracle = dens / math.exp(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        )
        assert abs(reg_inc_beta(a, b, x) - oracle) <= 1e-11


def test_reg_inc_beta_matches_scipy_grid():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a = float(rng.uniform(0.1, 80.0))
        b = float(rng.uniform(0.1, 80.0))
        x = float(rng.random())
        assert abs(reg_inc_beta(a, b, x) - sps.betainc(a, b, x)) <= 1e-13


def test_reg_inc_beta_symmetry_and_monotonicity():
    xs = np.linspace(0.0, 1.0, 41)
    prev = -1.0
    for x in xs:
        v = reg_inc_beta(2.5, 7.0, float(x))
        assert v >= prev
        prev = v
        assert abs(v - (1.0 - reg_inc_beta(7.0, 2.5, float(1.0 - x)))) <= 1e-13


def test_reg_inc_beta_domain_errors():
    with pytest.raises(ValueError):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, -0.01)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, 1.01)


def test_beta_quantile_uniform_median():
    assert abs(beta_quantile(0.5, 1.0, 1.0) - 0.5) <= 1e-12


def test_beta_quantile_boundaries():
    assert beta_quantile(0.0, 5.0, 2.0) == 0.0
    assert beta_quantile(1.0, 5.0, 2.0) == 1.0


def test_beta_quantile_forward_roundtrip():
    q = beta_quantile(0.95, 6.0, 5.0)
    assert abs(reg_inc_beta(6.0, 5.0, q) - 0.95) <= 1e-10
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = float(rng.uniform(0.3, 40.0))
        b = float(rng.uniform(0.3, 40.0))
        p = float(rng.uniform(1e-6, 1.0 - 1e-6))
        q = beta_quantile(p, a, b)
        assert abs(reg_inc_beta(a, b, q) - p) <= 1e-10


def test_beta_quantile_matches_scipy():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a = float(rng.uniform(0.3, 60.0))
        b = float(rng.uniform(0.3, 60.0))
        p = float(rng.random())
        assert abs(beta_quantile(p, a, b) - sps.betaincinv(a, b, p)) <= 1e-10


def test_beta_quantile_domain_errors():
    with pytest.raises(ValueError):
        beta_quantile(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        beta_quantile(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        beta_quantile(0.5, 0.0, 1.0)


def test_binom_cdf_edge_cases():
    assert binom_cdf(-1, 10, 0.4) == 0.0
    assert binom_cdf(10, 10, 0.4) == 1.0
    assert binom_cdf(3, 7, 0.0) == 1.0
    assert binom_cdf(3, 7, 1.0) == 0.0


def test_binom_cdf_small_case_exact():
    # C(10,0)+C(10,1)+C(10,2)+C(10,3) = 176 out of 1024; all terms dyadic
    assert binom_cdf(3, 10, 0.5) == 0.171875


def test_binom_cdf_direct_sum_oracle():
    rng = np.random.default_rng(37)
    for m in range(1, 26):
        for z in range(-1, m + 1):
            xi = float(rng.random())
            assert abs(binom_cdf(z, m, xi) - binom_cdf_direct(z, m, xi)) <= 1e-12


def test_binom_cdf_large_m_through_beta():
    # above the summation cutoff the beta identity takes over; compare with
    # compensated direct summation
    rng = np.random.default_rng(41)
    for m in (60, 150, 400):
        for _ in range(10):
            z = int(rng.integers(0, m + 1))
            xi = float(rng.uniform(0.01, 0.99))
            direct = math.fsum(
                math.comb(m, i) * xi**i * (1.0 - xi) ** (m - i)
                for i in range(z + 1)
            )
            assert abs(binom_cdf(z, m, xi) - min(direct, 1.0)) <= 1e-12


def test_binom_cdf_monotone_in_xi():
    vals = [binom_cdf(8, 20, xi) for xi in np.linspace(0.0, 1.0, 40)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_binom_cdf_domain_errors():
    with pytest.raises(ValueError):
        binom_cdf(-2, 10, 0.3)
    with pytest.raises(ValueError):
        binom_cdf(11, 10, 0.3)
    with pytest.raises(ValueError):
        binom_cdf(2, 0, 0.3)
    with pytest.raises(ValueError):
        binom_cdf(2, 10, 1.3)


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
    for delta in (0.3, 0.05, 1e-4, 1e-12):
        for m in (1, 2, 3, 7, 19, 64):
            for z in range(0, m + 1):
                assert cp_lower(z, m, delta) == 1.0 - cp_upper(m - z, m, delta)


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
    deltas = (0.9, 0.5, 0.3, 0.05, 1e-6, 1e-30, 1e-100, 1e-200, 1e-300)
    for delta in deltas:
        for m in (1, 2, 3, 5, 10, 40, 100, 1000, 10104, 200000):
            z = np.unique(np.linspace(0, m, min(m + 1, 301)).astype(np.int64))
            mm = np.full(z.shape, m)
            lower_lo, lower_hi, upper_lo, upper_hi = cp_brackets(z, mm, delta)
            lo, up = cp_bounds_batch(z, mm, delta)
            assert ((lower_lo <= lo) & (lo <= lower_hi)).all()
            assert ((upper_lo <= up) & (up <= upper_hi)).all()
            # the Hoeffding ends are the envelope above
            margin = math.sqrt(math.log(1.0 / delta) / (2.0 * m))
            assert (upper_hi <= np.minimum(z / m + margin, 1.0) + 1e-9).all()
            assert (lower_lo >= np.maximum(z / m - margin, 0.0) - 1e-9).all()
            if m <= 100 and delta >= 1e-6:
                # the math-module route is independent of scipy
                for i, zi in enumerate(z.tolist()):
                    assert lower_lo[i] <= cp_lower(zi, m, delta) <= lower_hi[i]
                    assert upper_lo[i] <= cp_upper(zi, m, delta) <= upper_hi[i]


def test_cp_brackets_are_tight_where_they_prune():
    z = np.array([0, 3, 50, 500, 9105])
    m = np.array([40, 40, 100, 1000, 10104])
    lower_lo, lower_hi, upper_lo, upper_hi = cp_brackets(z, m, 1e-7)
    assert (upper_hi - upper_lo < 0.25).all()
    assert (lower_hi - lower_lo < 0.25).all()
    # the method-of-types ends sit on the far side of the rate
    q = z / m
    assert (upper_lo >= q - 1e-9).all()
    assert (lower_hi <= q + 1e-9).all()


def test_cp_bounds_batch_corrects_silent_betaincinv_misses():
    # scipy 1.17.1 returns 0.7495 for this quantile, where betainc is 0
    delta = 0.05 / 500500
    lo, up = cp_bounds_batch(np.array([9105]), np.array([10104]), delta)
    assert abs(lo[0] - 0.884909307294384) <= 1e-12
    assert sps.betainc(9105, 1000, lo[0]) <= delta
    # betaincinv returns NaN at these tails; the bisection still roots them
    lo, up = cp_bounds_batch(np.array([2, 3]), np.array([5, 5]), 1e-300)
    assert lo[0] == pytest.approx(math.sqrt(1e-301), rel=1e-9)
    assert lo[1] == pytest.approx((1e-300 / 10.0) ** (1.0 / 3.0), rel=1e-9)
    assert (up == 1.0).all()


def test_cp_validity_by_simulation():
    rng = np.random.default_rng(53)
    m, delta, reps = 30, 0.1, 2000
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / reps)
    for q in (0.1, 0.5, 0.9):
        draws = rng.binomial(m, q, size=reps)
        hits = sum(q <= cp_upper(int(z), m, delta) for z in draws)
        assert hits / reps >= 1.0 - delta - slack
        hits = sum(cp_lower(int(z), m, delta) <= q for z in draws)
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


def test_cp_bounds_batch_matches_scalar():
    rng = np.random.default_rng(59)
    m = rng.integers(1, 400, size=600)
    z = (rng.random(600) * (m + 1)).astype(np.int64)
    z = np.minimum(z, m)
    z[:10] = 0
    z[10:20] = m[10:20]
    for delta in (0.025, 0.05 / 780.0, 1e-9):
        lo, up = cp_bounds_batch(z, m, delta)
        for i in range(z.shape[0]):
            assert abs(lo[i] - cp_lower(int(z[i]), int(m[i]), delta)) <= 1e-10
            assert abs(up[i] - cp_upper(int(z[i]), int(m[i]), delta)) <= 1e-10
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


def test_cp_bounds_batch_thread_override_deterministic(monkeypatch):
    rng = np.random.default_rng(61)
    n = 250_000  # above the chunking threshold so threads actually engage
    m = rng.integers(1, 50, size=n)
    z = np.minimum((rng.random(n) * (m + 1)).astype(np.int64), m)
    monkeypatch.delenv("CALBAND_THREADS", raising=False)
    lo1, up1 = cp_bounds_batch(z, m, 0.01)
    monkeypatch.setenv("CALBAND_THREADS", "3")
    lo3, up3 = cp_bounds_batch(z, m, 0.01)
    assert (lo1 == lo3).all()
    assert (up1 == up3).all()
    monkeypatch.setenv("CALBAND_THREADS", "zero")
    with pytest.raises(ValueError):
        cp_bounds_batch(z[:10], m[:10], 0.01)


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
    assert chi2_survival(0.0, 0) == 1.0
    assert chi2_survival(2.5, 0) == 0.0
    with pytest.raises(ValueError):
        chi2_survival(1.0, -1)
    with pytest.raises(ValueError):
        chi2_survival(-0.5, 3)
