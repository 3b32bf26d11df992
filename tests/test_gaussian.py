import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import roughir as ri
from roughir.errors import DomainError, InterpolationError, RangeError, SizeError
from roughir.gaussian import RHO2_AT_0, RHO2_AT_1, _pchip

from .oracles import epsi_gauss_quad, p_increment_cov_quadratic_form, sigma_p_lag_sum


class TestLam:
    def test_endpoints_exact(self):
        assert ri.lam(-1.0) == 0.0
        assert ri.lam(1.0) == 1.0

    def test_uncorrelated_value(self):
        assert ri.lam(0.0) == pytest.approx(0.5 + math.log(2) / math.pi, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            ri.lam(1.2)

    def test_strictly_increasing_on_dense_grid(self):
        r = np.linspace(-1, 1, 10_001)
        v = np.array([ri.lam(x) for x in r])
        assert np.all(np.diff(v) > 0)

    @pytest.mark.parametrize("r", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_gaussian_quadrature_oracle(self, r):
        assert abs(ri.lam(r) - epsi_gauss_quad(r)) <= 1e-6

    def test_lam0(self):
        assert ri.lam0(0.0) == pytest.approx(0.5, abs=1e-15)
        assert ri.lam0(1.0) == pytest.approx(1.0, abs=1e-15)
        assert ri.lam0(-1.0) == pytest.approx(0.0, abs=1e-15)


class TestRho:
    def test_first_order_values(self):
        assert ri.rho_p(1, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert ri.rho_p(1, 1 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_second_order_values(self):
        assert ri.rho_p(2, 0.5) == pytest.approx(-0.5, abs=1e-15)
        # the closed form has a removable 0/0 at H=1; its actual limit is
        # (18 log3 - 32 log2)/(16 log2), not 0
        assert ri.rho_p(2, 1 - 1e-6) == pytest.approx(RHO2_AT_1, abs=2e-6)
        assert ri.rho_p(2, 1e-12) == pytest.approx(RHO2_AT_0, abs=1e-9)

    def test_monotone(self):
        h = np.linspace(1e-6, 1 - 1e-6, 5001)
        for p in (1, 2):
            v = np.array([ri.rho_p(p, x) for x in h])
            assert np.all(np.diff(v) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ri.rho_p(1, 1.0)
        with pytest.raises(DomainError):
            ri.rho_p(3, 0.5)


@pytest.mark.parametrize("H", [[0.3], np.array([0.3])], ids=["list", "array"])
@pytest.mark.parametrize("call", [
    lambda H: ri.Lambda_p(2, H),
    lambda H: ri.rho_p(1, H),
    lambda H: ri.s2_sq(H, 0.1),
    lambda H: ri.FbmSampler(64, H),
], ids=["Lambda_p", "rho_p", "s2_sq", "FbmSampler"])
def test_non_scalar_hurst_domain_error(call, H):
    with pytest.raises(DomainError, match="scalar"):
        call(H)


@pytest.mark.parametrize("r", [[0.3], np.array([0.3])], ids=["list", "array"])
@pytest.mark.parametrize("call", [ri.lam, ri.lam0], ids=["lam", "lam0"])
def test_non_scalar_correlation_domain_error(call, r):
    with pytest.raises(DomainError, match="scalar"):
        call(r)


class TestLambdaP:
    def test_anchors(self):
        assert ri.Lambda_p(1, 0.5) == pytest.approx(0.7206, abs=5e-4)
        assert ri.Lambda_p(2, 0.5) == pytest.approx(0.5881, abs=5e-4)

    def test_near_linear_fit(self):
        h = np.round(np.arange(0.05, 0.951, 0.05), 10)
        v = np.array([ri.Lambda_p(2, x) for x in h])
        slope, intercept = np.polyfit(h, v, 1)
        assert slope == pytest.approx(0.1468, abs=0.005)
        assert intercept == pytest.approx(0.5174, abs=0.005)


class TestInvertLambda2:
    def test_round_trip(self):
        for h in np.linspace(0.02, 0.98, 25):
            v = ri.Lambda_p(2, h)
            h_back = ri.invert_Lambda2(v)
            assert h_back == pytest.approx(h, abs=1e-8)
            assert ri.Lambda_p(2, h_back) == pytest.approx(v, abs=1e-9)

    def test_paper_anchor_inversion(self):
        assert ri.invert_Lambda2(0.5881) == pytest.approx(0.5, abs=1e-3)

    def test_out_of_range(self):
        with pytest.raises(RangeError) as exc:
            ri.invert_Lambda2(0.99)
        assert exc.value.high == pytest.approx(0.6698, abs=1e-3)
        with pytest.raises(RangeError):
            ri.invert_Lambda2(0.4)


class TestIncrementCov:
    def test_brownian_independence(self):
        assert ri.fbm_increment_cov(1, 0.5, 1) == pytest.approx(0.0, abs=1e-15)

    def test_unit_variance(self):
        for h in (0.2, 0.5, 0.8):
            assert ri.fbm_increment_cov(1, h, 0) == pytest.approx(1.0, abs=1e-15)

    def test_second_order_variance(self):
        for h in (0.3, 0.5, 0.7):
            assert ri.fbm_increment_cov(2, h, 0) == pytest.approx(4 - 4**h, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_quadratic_form_oracle(self, p):
        # expand the increment covariance directly from the raw fBm covariance
        for h in (0.25, 0.5, 0.75):
            for j in range(0, 6):
                want = p_increment_cov_quadratic_form(p, h, j)
                assert ri.fbm_increment_cov(p, h, j) == pytest.approx(want, abs=1e-10)
            # an array of lags gives the scalar values elementwise
            lags = np.arange(-5, 6)
            want = [p_increment_cov_quadratic_form(p, h, abs(j)) for j in lags]
            got = ri.fbm_increment_cov(p, h, lags)
            assert got.shape == lags.shape
            assert got == pytest.approx(want, abs=1e-10)

    def test_rho_consistency(self):
        # rho_p equals lag-1 covariance over variance
        for h in (0.3, 0.6, 0.9):
            for p in (1, 2):
                want = ri.fbm_increment_cov(p, h, 1) / ri.fbm_increment_cov(p, h, 0)
                assert ri.rho_p(p, h) == pytest.approx(want, rel=1e-12)

    def test_simulated_second_increments_match(self):
        # empirical covariances of simulated second increments reproduce the
        # closed form (grid spacing 1/n scales them by n^-2H)
        n, H, reps = 512, 0.7, 400
        sampler = ri.FbmSampler(n, H)
        d2 = np.empty((reps, n - 1))
        for i in range(reps):
            d2[i] = np.diff(sampler.sample_path(ri.derive_rng(88, i)).values, 2)
        scale = float(n) ** (-2 * H)
        for j in range(4):
            emp_per_path = np.array([np.mean(d2[i, : n - 1 - j] * d2[i, j:])
                                     for i in range(reps)])
            se = emp_per_path.std(ddof=1) / math.sqrt(reps)
            want = ri.fbm_increment_cov(2, H, j) * scale
            assert abs(emp_per_path.mean() - want) <= 3 * se


class TestS2Sq:
    def test_zero_variance(self):
        assert ri.s2_sq(0.5, 0.0) == 0.0

    def test_prefactor_is_inverse_slope_squared(self):
        # the closed-form prefactor equals 1/Lambda_2'(H)^2
        for h in (0.3, 0.5, 0.7):
            eps = 1e-6
            fd = (ri.Lambda_p(2, h + eps) - ri.Lambda_p(2, h - eps)) / (2 * eps)
            assert ri.s2_sq(h, 1.0) == pytest.approx(1.0 / fd**2, rel=1e-4)

    def test_continuous_no_poles(self):
        h = np.linspace(0.1, 0.9, 81)
        v = np.array([ri.s2_sq(x, 1.0) for x in h])
        assert np.isfinite(v).all()
        assert np.abs(np.diff(v)).max() < 5.0  # smooth variation, no blow-up

    def test_domain(self):
        with pytest.raises(DomainError):
            ri.s2_sq(0.5, -1.0)


class TestSigmaPMc:
    def test_p1_high_h_excluded(self):
        with pytest.raises(DomainError, match="3/4"):
            ri.sigma_p_mc(1, 0.8, reps=200, path_len=256, seed=1)

    def test_too_few_reps(self):
        with pytest.raises(SizeError):
            ri.sigma_p_mc(2, 0.5, reps=50, path_len=256, seed=1)

    def test_seed_self_consistency(self):
        v1, e1 = ri.sigma_p_mc(2, 0.5, reps=400, path_len=1024, seed=101)
        v2, e2 = ri.sigma_p_mc(2, 0.5, reps=400, path_len=1024, seed=202)
        assert abs(v1 - v2) <= 3 * math.hypot(e1, e2)
        assert v1 > 0 and v2 > 0

    def test_deterministic(self):
        a = ri.sigma_p_mc(2, 0.5, reps=150, path_len=512, seed=7)
        b = ri.sigma_p_mc(2, 0.5, reps=150, path_len=512, seed=7)
        assert a == b

    def test_lag_sum_oracle_agrees(self):
        # independent route: truncated lag sum of psi-term autocovariances
        v_mc, e_mc = ri.sigma_p_mc(2, 0.5, reps=400, path_len=2048, seed=55)
        v_lag, e_lag = sigma_p_lag_sum(2, 0.5, reps=400, path_len=2048, seed=56, J=50)
        assert abs(v_mc - v_lag) <= 3 * math.hypot(e_mc, e_lag)


class TestVarianceTable:
    def test_entries_nonnegative(self, variance_table):
        assert np.nanmin(variance_table.sigma1) >= 0
        assert variance_table.sigma2.min() >= 0

    def test_stderr_recorded(self, variance_table):
        assert np.nanmin(variance_table.sigma1_stderr) > 0
        assert variance_table.sigma2_stderr.min() > 0

    def test_interpolation_inside(self, variance_table):
        v = variance_table.sigma(2, 0.52)
        lo, hi = variance_table.entry(2, 0.5)[0], variance_table.entry(2, 0.55)[0]
        assert min(lo, hi) - 1e-9 <= v <= max(lo, hi) + 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    def test_cached_interpolant_matches_fresh_build(self, variance_table, p):
        vals = variance_table.sigma1 if p == 1 else variance_table.sigma2
        known = ~np.isnan(vals)
        grid = variance_table.h_grid[known]
        fresh = PchipInterpolator(grid, vals[known], extrapolate=False)
        h = np.random.default_rng(11).uniform(grid[0], grid[-1], 50)
        assert [variance_table.sigma(p, x) for x in h] == [float(fresh(x)) for x in h]

    def test_extrapolation_forbidden(self, variance_table):
        with pytest.raises(InterpolationError):
            variance_table.sigma(2, 0.99)
        with pytest.raises(InterpolationError):
            variance_table.sigma(1, 0.9)  # p=1 grid stops below 3/4

    @pytest.mark.parametrize("grid, sigma1", [([0.8, 0.9], [np.nan, np.nan]),
                                              ([0.7, 0.8], [0.3, np.nan])])
    def test_missing_curve_is_interpolation_error(self, grid, sigma1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = ri.VarianceTable(np.array(grid), np.array(sigma1), np.array(sigma1),
                                     np.array([0.2, 0.3]), np.array([0.01, 0.01]),
                                     reps=100, path_len=256, seed=0)
        with pytest.raises(InterpolationError):
            table.sigma(1, grid[0])
        assert table.sigma(2, grid[-1]) == 0.3


# PCHIP data: flat runs, sign changes, repeats and -0.0 come from the small set
_knot_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                        st.floats(-1e3, 1e3))


@settings(deadline=None)
@given(x0=st.floats(-10, 10),
       gaps=st.lists(st.floats(1e-3, 10), min_size=1, max_size=24),
       values=st.lists(_knot_value, min_size=25, max_size=25),
       negative_zero_at=st.integers(0, 24),
       inside=st.lists(st.floats(0, 1), max_size=20))
def test_pchip_is_scipy_pchip(x0, gaps, values, negative_zero_at, inside):
    x = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    y = np.array(values[:x.size])
    y[negative_zero_at % x.size] = -0.0
    points = [float(v) for v in x] + [x[0] + u * (x[-1] - x[0]) for u in inside]
    points = [min(v, x[-1]) for v in points]
    with np.errstate(over="ignore"):  # scipy warns when a tiny slope overflows 1/m
        scipy_pchip = PchipInterpolator(x, y, extrapolate=False)
    ours = _pchip(x, y)
    assert [ours(v).hex() for v in points] == [float(scipy_pchip(v)).hex() for v in points]


class TestEstimateH:
    def test_recovers_known_exponent(self, variance_table):
        n, h, reps = 2**13, 0.7, 500
        sampler = ri.FbmSampler(n, h)
        hits = 0
        for i in range(reps):
            path = sampler.sample_path(ri.derive_rng(313, i))
            est = ri.estimate_H(path, variance_table)
            hits += abs(est.h_hat - h) <= 3 * est.stderr
        assert hits / reps >= 0.99

    def test_linear_path_out_of_range(self, variance_table):
        path = ri.SampledPath(np.linspace(0.0, 1.0, 101))
        with pytest.raises(RangeError):
            ri.estimate_H(path, variance_table)

    def test_interval_invariants(self, variance_table):
        path = ri.sim_fbm(2048, 0.5, seed=99)
        est = ri.estimate_H(path, variance_table, conf=0.9)
        assert est.ci_low <= est.h_hat <= est.ci_high
        assert est.stderr > 0
        assert ri.Lambda_p(2, est.h_hat) == pytest.approx(est.statistic.value, abs=1e-9)

    def test_too_short(self, variance_table):
        with pytest.raises(SizeError):
            ri.estimate_H(ri.SampledPath(np.arange(10.0) ** 1.5), variance_table)


@pytest.mark.parametrize("conf", [0.9, 0.95])
@pytest.mark.parametrize("method", ["hurst", "alpha"])
def test_interval_is_standard_library_normal(request, method, conf):
    """Both estimators give point -/+ z * stderr with z from NormalDist, bit
    for bit.  A quantile a few ulp off shows in the last bit of some bounds,
    so the check runs over enough paths to see that."""
    z = NormalDist().inv_cdf(0.5 + conf / 2)
    table = request.getfixturevalue("variance_table" if method == "hurst" else "stable_table")
    for seed in range(40):
        if method == "hurst":
            est = ri.estimate_H(ri.sim_fbm(1024, 0.5, seed=seed), table, conf=conf)
            point = est.h_hat
        else:
            est = ri.estimate_alpha(ri.sim_levy_stable(1024, 1.2, seed=seed), table, conf=conf)
            point = est.alpha_hat
        half = z * est.stderr
        assert abs((est.ci_high - point) - half) <= math.ulp(est.ci_high)
        assert (est.ci_low, est.ci_high) == (point - half, point + half)
