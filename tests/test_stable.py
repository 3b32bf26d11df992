import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.stats import cauchy, kstest

import roughir as ri
from roughir.errors import DomainError, RangeError, SizeError


class TestSampler:
    def test_alpha_two_is_gaussian_variance_two(self):
        rng = np.random.default_rng(1)
        z = ri.sample_sym_stable(2.0, rng, size=10**6)
        assert z.var() == pytest.approx(2.0, rel=0.01)

    def test_alpha_one_is_cauchy(self):
        rng = np.random.default_rng(2)
        z = ri.sample_sym_stable(1.0, rng, size=10**6)
        assert kstest(z, cauchy.cdf).statistic < 0.005

    def test_empirical_characteristic_function(self):
        rng = np.random.default_rng(3)
        alpha, m = 1.5, 10**6
        z = ri.sample_sym_stable(alpha, rng, size=m)
        for theta in (0.5, 1.0, 2.0):
            c = np.cos(theta * z)
            se = c.std() / math.sqrt(m)
            assert abs(c.mean() - math.exp(-theta**alpha)) <= 3 * se

    def test_scale_correctness(self):
        # c*Z has characteristic function e^(-|c theta|^alpha)
        rng = np.random.default_rng(4)
        alpha, c_mult, m = 1.2, 1.7, 10**6
        z = c_mult * ri.sample_sym_stable(alpha, rng, size=m)
        for theta in (0.4, 1.1):
            c = np.cos(theta * z)
            se = c.std() / math.sqrt(m)
            assert abs(c.mean() - math.exp(-abs(c_mult * theta) ** alpha)) <= 3 * se

    def test_domain(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DomainError):
            ri.sample_sym_stable(2.5, rng)
        with pytest.raises(DomainError):
            ri.sample_sym_stable(0.0, rng)

    def test_scalar_draw(self):
        assert isinstance(ri.sample_sym_stable(1.5, np.random.default_rng(6)), float)

    @pytest.mark.parametrize("call", [
        lambda: ri.sample_sym_stable(np.array([1.2]), np.random.default_rng(7)),
        lambda: ri.sample_sym_stable([1.2], np.random.default_rng(7), size=4),
        lambda: ri.sim_levy_stable(64, [1.2], seed=1),
    ], ids=["sample-array", "sample-list", "sim_levy_stable-list"])
    def test_non_scalar_alpha_domain_error(self, call):
        with pytest.raises(DomainError, match="scalar"):
            call()


class TestLambdaTilde:
    def test_gaussian_anchor(self):
        t = ri.build_stable_table(reps=200_000, seed=11, alpha_grid=[1.9, 2.0])
        est, se = t.lam_raw[-1], t.lam_stderr[-1]
        assert abs(est - ri.lam(0.0)) <= 3 * se  # 0.7206... ~ "0.72"

    def test_bounds(self):
        t = ri.build_stable_table(reps=20_000, seed=12, alpha_grid=[0.3, 0.9, 1.7])
        assert np.all((0.5 <= t.lam_raw) & (t.lam_raw <= 1.0))

    def test_decreasing_in_alpha(self):
        t = ri.build_stable_table(reps=100_000, seed=13, alpha_grid=[0.5, 1.5])
        (lo, hi), (se_lo, se_hi) = t.lam_raw, t.lam_stderr
        assert lo - hi > 3 * math.hypot(se_lo, se_hi)

    def test_min_reps(self):
        for reps in (0, 39, 100, 9_999):
            with pytest.raises(SizeError):
                ri.build_stable_table(reps=reps, seed=1)


class TestSigmaTildeSq:
    def test_nonnegative_within_noise(self):
        # the table clips a negative estimate to 0; est > 0 shows that no
        # clip fired, so est is the raw Monte Carlo value
        t = ri.build_stable_table(reps=50_000, seed=21, alpha_grid=[0.6, 1.4, 2.0])
        for est, se in zip(t.sigma_sq, t.sigma_sq_stderr):
            assert est >= -3 * se
            assert est > 0.0

    def test_matches_path_variance_at_alpha_two(self):
        # CLT route: n*var(r_tilde) over Brownian paths
        n, reps = 2**12, 500
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = ri.r_tilde_2n(ri.sim_brownian(n, seed=3000 + i)).value
        nvar = n * vals.var(ddof=1)
        nvar_se = n * vals.var(ddof=1) * math.sqrt(2.0 / (reps - 1))
        t = ri.build_stable_table(reps=400_000, seed=22, alpha_grid=[1.95, 2.0])
        est, se = t.sigma_sq[-1], t.sigma_sq_stderr[-1]
        assert abs(nvar - est) <= 3 * math.hypot(nvar_se, se)

    def test_seed_self_consistency(self):
        a = ri.build_stable_table(reps=100_000, seed=31, alpha_grid=[1.2, 1.3])
        b = ri.build_stable_table(reps=100_000, seed=32, alpha_grid=[1.2, 1.3])
        assert abs(a.sigma_sq[0] - b.sigma_sq[0]) <= 3 * math.hypot(a.sigma_sq_stderr[0],
                                                                  b.sigma_sq_stderr[0])


class TestGrid:
    @pytest.mark.parametrize("grid", [[1.0], [2.0, 1.0], [0.5, 1.0, 1.0, 2.0], [[1.0, 2.0]]])
    def test_unusable_grid_rejected(self, grid):
        with pytest.raises(DomainError, match="strictly increasing"):
            ri.build_stable_table(reps=10_000, seed=1, alpha_grid=grid)


class TestTable:
    def test_lambda_bounds(self, stable_table):
        assert stable_table.lam.min() >= 0.5
        assert stable_table.lam.max() <= 1.0

    def test_monotone_after_smoothing(self, stable_table):
        assert np.all(np.diff(stable_table.lam) <= 0)

    def test_gaussian_anchor_entry(self, stable_table):
        i = int(np.argmin(np.abs(stable_table.alpha_grid - 2.0)))
        assert abs(stable_table.lam[i] - ri.lam(0.0)) <= 3 * stable_table.lam_stderr[i]

    def test_round_trip_at_grid_point(self, stable_table):
        i = int(np.argmin(np.abs(stable_table.alpha_grid - 1.0)))
        a = ri.invert_lambda_tilde(float(stable_table.lam[i]), stable_table)
        assert a == pytest.approx(1.0, abs=0.025)  # within half a grid step

    def test_out_of_range_low(self, stable_table):
        with pytest.raises(RangeError) as exc:
            ri.invert_lambda_tilde(0.49, stable_table)
        assert exc.value.low == pytest.approx(float(stable_table.lam[-1]), abs=1e-12)

    def test_cached_inverse_matches_fresh_build(self, stable_table):
        lam, grid = stable_table.lam, stable_table.alpha_grid
        keep = np.concatenate([lam[:-1] > lam[1:], [True]])
        fresh = PchipInterpolator(lam[keep][::-1], grid[keep][::-1], extrapolate=False)
        v = np.random.default_rng(12).uniform(lam[-1], lam[0], 50)
        assert [ri.invert_lambda_tilde(x, stable_table) for x in v] == \
            [float(fresh(x)) for x in v]

    def test_anchor_inverts_near_two(self, stable_table):
        # 0.72 sits at (or numerically just past) the alpha=2 end of the curve
        try:
            a = ri.invert_lambda_tilde(0.72, stable_table)
        except RangeError as exc:
            a = 2.0 if abs(0.72 - exc.low) < abs(0.72 - exc.high) else 0.0
        assert a == pytest.approx(2.0, abs=0.1)


class TestEstimateAlpha:
    def test_recovers_index(self, stable_table):
        n, alpha, reps = 2**12, 1.2, 100
        hats = np.empty(reps)
        for i in range(reps):
            path = ri.sim_levy_stable(n, alpha, seed=4000 + i)
            hats[i] = ri.estimate_alpha(path, stable_table).alpha_hat
        se = hats.std(ddof=1) / math.sqrt(reps)
        dl = stable_table.interp("dlam", alpha)
        joint = math.hypot(se, stable_table.interp("lam_stderr", alpha) / abs(dl))
        assert abs(hats.mean() - alpha) <= 3 * joint

    def test_brownian_clamps_at_two(self, stable_table):
        hats = []
        flags = []
        for i in range(40):
            est = ri.estimate_alpha(ri.sim_brownian(2**12, seed=5000 + i), stable_table)
            hats.append(est.alpha_hat)
            flags.append(est.clamped)
        assert np.mean(hats) > 1.9
        assert max(hats) <= 2.0  # boundary behavior: clamped at 2

    def test_scale_invariance_exact(self, stable_table):
        path = ri.sim_levy_stable(2**10, 1.5, seed=61)
        est1 = ri.estimate_alpha(path, stable_table)
        est2 = ri.estimate_alpha(ri.SampledPath(4.0 * path.values), stable_table)
        assert est1.alpha_hat == est2.alpha_hat

    def test_zero_crossing_variant_near_half(self, stable_table):
        # the sign-indicator statistic ignores alpha entirely
        for alpha in (0.8, 1.8):
            vals = np.empty(60)
            for i in range(60):
                path = ri.sim_levy_stable(2**12, alpha, seed=7000 + i)
                vals[i] = ri.r0_tilde_2n(path).value
            se = vals.std(ddof=1) / math.sqrt(60)
            assert abs(vals.mean() - 0.5) <= 3 * se

    def test_interval_invariants(self, stable_table):
        est = ri.estimate_alpha(ri.sim_levy_stable(2**11, 1.0, seed=71), stable_table)
        assert est.ci_low <= est.alpha_hat <= est.ci_high
        if not est.clamped:
            lam_at = stable_table.interp("lam", est.alpha_hat)
            assert lam_at == pytest.approx(est.statistic.value, abs=0.002)
