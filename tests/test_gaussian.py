import math
import warnings
from statistics import NormalDist, variance

import numpy as np
import pytest

import roughir as ri
from roughir.errors import DomainError, InterpolationError, RangeError, SizeError
from roughir.experiments import exp_clt_fbm
from roughir.gaussian import LAMBDA2_HIGH, LAMBDA2_LOW, RHO2_AT_0, RHO2_AT_1
from roughir.rng import derive_rng, derive_seed

from .oracles import (epsi_gauss_quad, invert_Lambda2_bisection, p_increment_cov_quadratic_form,
                      sigma_p_lag_sum)


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

    def test_same_bits_as_the_plain_bisection(self):
        # uniform draws; Lambda_2 at dyadic H and both its float neighbours;
        # values 1e-3 to 1e-15 from each end; and the range above
        # Lambda_2(0.99), where the bisection runs from (0, 1) alone
        low, high = LAMBDA2_LOW, LAMBDA2_HIGH
        rng = np.random.default_rng(27)
        at_dyadic = [ri.Lambda_p(2, j / 1024) for j in range(1, 1024)]
        top = ri.Lambda_p(2, 0.99)
        vs = (rng.uniform(low, high, 6000).tolist()
              + [w for x in at_dyadic for w in (math.nextafter(x, 0), x, math.nextafter(x, 1))]
              + [x for e in range(3, 16) for x in (low + 10.0**-e, high - 10.0**-e)]
              + rng.uniform(top, high, 800).tolist() + (high - rng.uniform(0, 1e-9, 200)).tolist())
        assert len(vs) > 10_000
        got = [ri.invert_Lambda2(v).hex() for v in vs]
        assert got == [invert_Lambda2_bisection(v).hex() for v in vs]

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

    @pytest.mark.parametrize("p, value, stderr", [
        (1, "0x1.1a11d333bf5abp-3", "0x1.05011acc35025p-6"),
        (2, "0x1.1795d252bae84p-3", "0x1.2da7ef268b22cp-6"),
    ])
    def test_bits_pinned(self, p, value, stderr):
        # each order keeps drawing its own stream (seed, "stat_mc", p, i)
        v, e = ri.sigma_p_mc(p, 0.5, reps=100, path_len=128, seed=9)
        assert (v.hex(), e.hex()) == (value, stderr)


class TestSharedPaths:
    """build_variance_table draws one set of paths per H and reads both orders off it."""

    GRID = (0.4, 0.7, 0.8)  # straddles 3/4: Sigma_1 at the first two H only
    REPS, N, SEED = 100, 128, 41

    @pytest.fixture(scope="class")
    def table(self):
        return ri.build_variance_table(reps=self.REPS, path_len=self.N, seed=self.SEED,
                                       h_grid=self.GRID)

    def test_sigma2_is_sigma_p_mc_to_the_bit(self, table):
        for i, H in enumerate(self.GRID):
            cell = ri.sigma_p_mc(2, H, self.REPS, self.N, derive_seed(self.SEED, 2, i))
            assert (table.sigma2[i], table.sigma2_stderr[i]) == cell

    def test_sigma1_reads_the_sigma2_paths(self, table):
        for i, H in enumerate(self.GRID):
            if H >= 0.75:
                assert np.isnan(table.sigma1[i]) and np.isnan(table.sigma1_stderr[i])
                continue
            sampler, seed = ri.FbmSampler(self.N, H), derive_seed(self.SEED, 2, i)
            x = [ri.r_pn(sampler.sample_path(derive_rng(seed, "stat_mc", 2, r)), 1).value
                 for r in range(self.REPS)]
            # the variance and its stderr in exact-rational and fsum arithmetic
            v, mean = variance(x), math.fsum(x) / self.REPS
            m4 = math.fsum((a - mean) ** 4 for a in x) / self.REPS
            se = math.sqrt((m4 - (self.REPS - 3) / (self.REPS - 1) * v * v) / self.REPS)
            assert table.sigma1[i] == pytest.approx(self.N * v, rel=1e-12)
            assert table.sigma1_stderr[i] == pytest.approx(self.N * se, rel=1e-9)

    def test_one_path_set_per_h(self, monkeypatch):
        draws = []
        sample_path = ri.FbmSampler.sample_path
        monkeypatch.setattr(ri.FbmSampler, "sample_path",
                            lambda self, rng: draws.append(1) or sample_path(self, rng))
        ri.build_variance_table(reps=self.REPS, path_len=self.N, seed=self.SEED,
                                h_grid=self.GRID)
        assert len(draws) == self.REPS * len(self.GRID)


def test_derive_seed_is_the_seed_sequence_word():
    assert derive_seed(77, 2, 1) == int(np.random.SeedSequence([77, 2, 1]).generate_state(1)[0])
    with pytest.raises(DomainError, match="nonnegative"):
        derive_seed(-1, 2, 1)
    with pytest.raises(DomainError, match="nonnegative"):
        ri.build_variance_table(reps=100, path_len=64, seed=-1, h_grid=[0.4, 0.6])


class TestVarianceTable:
    def test_p1_entry_above_three_quarters_is_domain_error(self):
        table = ri.VarianceTable(np.array([0.5, 0.8]), np.array([0.3, np.nan]),
                                 np.array([0.01, np.nan]), np.array([0.2, 0.3]),
                                 np.array([0.01, 0.01]), reps=100, path_len=256, seed=0)
        with pytest.raises(DomainError, match="3/4"):
            exp_clt_fbm(table, h_values=(0.8,), p=1, n=64, reps=2)

    def test_caller_arrays_stay_writeable(self):
        grid, s = np.array([0.4, 0.6]), np.array([0.1, 0.2])
        t = ri.VarianceTable(grid, s, s, s, s, reps=1, path_len=2, seed=0)
        grid[0], s[0] = 0.45, 0.3
        assert t.h_grid[0] == 0.4 and t.sigma2[0] == 0.1
        assert not t.sigma2.flags.writeable

    def test_entries_nonnegative(self, variance_table):
        assert np.nanmin(variance_table.sigma1) >= 0
        assert variance_table.sigma2.min() >= 0

    def test_stderr_recorded(self, variance_table):
        assert np.nanmin(variance_table.sigma1_stderr) > 0
        assert variance_table.sigma2_stderr.min() > 0

    def test_interpolation_inside(self, variance_table):
        v = variance_table.sigma(2, 0.52)
        i = variance_table.h_grid.searchsorted(0.52)  # the knots 0.5 and 0.55 bracket it
        lo, hi = variance_table.sigma2[i - 1], variance_table.sigma2[i]
        assert min(lo, hi) - 1e-9 <= v <= max(lo, hi) + 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    def test_interpolant_is_exact_at_every_knot(self, variance_table, p):
        # clt-fbm grades n*var against sigma(p, H), so at a grid H it reads the stored entry
        vals = variance_table.sigma1 if p == 1 else variance_table.sigma2
        known = ~np.isnan(vals)
        assert known.sum() >= 2
        grid = variance_table.h_grid[known]
        assert [variance_table.sigma(p, h) for h in grid] == vals[known].tolist()

    @pytest.mark.parametrize("p", [1, 2])
    def test_cached_interpolant_matches_fresh_build(self, variance_table, p):
        vals = variance_table.sigma1 if p == 1 else variance_table.sigma2
        known = ~np.isnan(vals)
        grid = variance_table.h_grid[known]
        h = np.random.default_rng(11).uniform(grid[0], grid[-1], 50)
        assert [variance_table.sigma(p, x) for x in h] == \
            [float(np.interp(x, grid, vals[known])) for x in h]

    def test_extrapolation_forbidden(self, variance_table):
        with pytest.raises(InterpolationError, match="outside the tabulated grid") as exc:
            variance_table.sigma(2, 0.99)
        assert (exc.value.low, exc.value.high) == (0.05, 0.95)
        with pytest.raises(InterpolationError, match="outside the tabulated grid"):
            variance_table.sigma(1, 0.01)

    @pytest.mark.parametrize("p, H", [(1, 0.75), (1, 0.9), (3, 0.5)])
    def test_sigma_p_rule_is_sigma_p_mc_rule(self, variance_table, p, H):
        # Sigma_1 diverges for H >= 3/4: the table says so as sigma_p_mc does
        with pytest.raises(DomainError) as table_exc:
            variance_table.sigma(p, H)
        with pytest.raises(DomainError) as mc_exc:
            ri.sigma_p_mc(p, H)
        assert str(table_exc.value) == str(mc_exc.value)

    def test_out_of_grid_estimate_is_range_error_with_grid_ends(self, variance_table):
        # fBm at H=0.97 and n=8192 inverts to h_hat = 0.9765, past the grid's 0.95
        with pytest.raises(RangeError, match="outside the tabulated grid") as exc:
            ri.estimate_H(ri.sim_fbm(8192, 0.97, seed=0), variance_table)
        assert isinstance(exc.value, InterpolationError)
        assert (exc.value.low, exc.value.high) == (0.05, 0.95)

    @pytest.mark.parametrize("grid", [[0.6, 0.4], [0.4, 0.4, 0.6], [[0.4, 0.6]], [0.5]],
                             ids=["decreasing", "repeated", "2-D", "one-point"])
    def test_unusable_grid_rejected_before_any_draw(self, grid, monkeypatch):
        draws = []
        sample_path = ri.FbmSampler.sample_path
        monkeypatch.setattr(ri.FbmSampler, "sample_path",
                            lambda self, rng: draws.append(1) or sample_path(self, rng))
        with pytest.raises(DomainError, match="strictly increasing"):
            ri.build_variance_table(reps=100, path_len=64, seed=1, h_grid=grid)
        assert draws == []

    def test_one_point_table_refused(self):
        with pytest.raises(DomainError, match="at least 2"):
            ri.VarianceTable(np.array([0.5]), np.array([0.3]), np.array([0.01]),
                             np.array([0.2]), np.array([0.01]), reps=100, path_len=256, seed=0)

    @pytest.mark.parametrize("grid, sigma1, error", [
        ([0.8, 0.9], [np.nan, np.nan], DomainError),  # Sigma_1 diverges at both H
        ([0.7, 0.8], [0.3, np.nan], InterpolationError),  # one H below 3/4: too few to interpolate
    ], ids=["no-p1-entry", "one-p1-entry"])
    def test_missing_p1_curve_refused(self, grid, sigma1, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = ri.VarianceTable(np.array(grid), np.array(sigma1), np.array(sigma1),
                                     np.array([0.2, 0.3]), np.array([0.01, 0.01]),
                                     reps=100, path_len=256, seed=0)
        with pytest.raises(error):
            table.sigma(1, grid[0])
        assert table.sigma(2, grid[-1]) == 0.3


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
