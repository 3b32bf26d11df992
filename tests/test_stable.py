import math

import numpy as np
import pytest
from scipy.stats import cauchy, kstest

import roughir as ri
from roughir.errors import DomainError, RangeError, SizeError
from roughir.rng import derive_rng
from roughir.stable import _pava_decreasing, _psi_moments, sym_stable_from_uniform_exp


def cms(alpha, u, w):
    """The Chambers-Mallows-Stuck transform as one expression: the
    reference for the bits of the library's in-place kernel."""
    if alpha == 1.0:
        return np.tan(u)
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


def uniform_exp(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-math.pi / 2, math.pi / 2, shape), rng.exponential(1.0, shape)


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


class TestCmsKernel:
    @pytest.mark.parametrize("alpha", [0.05, 0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("shape", [(5000,), (2000, 3)], ids=["1d", "m-by-3"])
    def test_bits_of_the_one_expression_form(self, alpha, shape):
        u, w = uniform_exp(shape, 21)
        assert np.array_equal(sym_stable_from_uniform_exp(alpha, u, w), cms(alpha, u, w))

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_read_only_inputs_left_unchanged(self, alpha):
        u, w = uniform_exp((1000, 3), 22)
        u0, w0 = u.copy(), w.copy()
        u.flags.writeable = w.flags.writeable = False
        z = sym_stable_from_uniform_exp(alpha, u, w)
        assert np.array_equal(z, cms(alpha, u0, w0))
        assert np.array_equal(u, u0) and np.array_equal(w, w0)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0])
    def test_broadcast_pair(self, alpha):
        u, w = uniform_exp((1000, 3), 23)
        u = u[:, :1]
        z = sym_stable_from_uniform_exp(alpha, u, w)
        assert z.shape == (1000, 3)
        assert np.array_equal(z, np.broadcast_to(cms(alpha, u, w), z.shape))

    def test_table_matches_a_loop_over_the_expression(self):
        grid, reps, seed = [0.3, 1.0, 1.7, 2.0], 20_000, 24
        t = ri.build_stable_table(reps=reps, seed=seed, alpha_grid=grid)
        rng = derive_rng(seed, "stable_table")
        u = rng.uniform(-math.pi / 2, math.pi / 2, (reps, 3))
        w = rng.exponential(1.0, (reps, 3))
        lam, lam_se, sig, sig_se = np.array([_psi_moments(cms(a, u, w)) for a in grid]).T
        assert np.array_equal(t.lam_raw, lam)
        assert np.array_equal(t.lam_stderr, lam_se)
        assert np.array_equal(t.sigma_sq, np.maximum(sig, 0.0))
        assert np.array_equal(t.sigma_sq_stderr, sig_se)


class TestTable:
    def test_build_bits_pinned(self):
        # the builder's doubles at one seed: smoothing and sigma_tilde^2 keep their bits
        t = ri.build_stable_table(reps=10_000, seed=1, alpha_grid=[0.5, 1.0, 1.5, 2.0])
        want = {
            "lam": ["0x1.b5051645ff06cp-1", "0x1.8ef1115c52a41p-1",
                        "0x1.7ab178a4ea0bcp-1", "0x1.6e8e390cdcfffp-1"],
            "lam_raw": ["0x1.b5051645ff06cp-1", "0x1.8ef1115c52a41p-1",
                        "0x1.7ab178a4ea0bcp-1", "0x1.6e8e390cdcfffp-1"],
            "lam_stderr": ["0x1.4f0ce6f165eaep-9", "0x1.8c1254daf5116p-9",
                        "0x1.ac9fe7964d866p-9", "0x1.c25433fef74a6p-9"],
            "sigma_sq": ["0x1.201e33337152ep-3", "0x1.9d9b2716bf89fp-3",
                        "0x1.e144599d1062ap-3", "0x1.09a1982f8b55ep-2"],
            "sigma_sq_stderr": ["0x1.0a5d58da08594p-8", "0x1.b629cefe310bep-9",
                        "0x1.eece8bf5a2a46p-9", "0x1.1596777856258p-8"],
            "dlam": ["-0x1.30a0274d63158p-3", "-0x1.d29ced08a7d80p-4",
                        "-0x1.0316c27bad210p-4", "-0x1.8467f301a17a0p-5"],
        }
        assert {name: [float(x).hex() for x in getattr(t, name)] for name in want} == want

    def test_smoothing_pools_adjacent_violators(self):
        assert _pava_decreasing([1.0, 3.0, 2.0, 0.0, 0.5]).tolist() == [2.0, 2.0, 2.0, 0.25, 0.25]

    def test_caller_arrays_stay_writeable(self):
        grid, lam, s = np.array([1.0, 2.0]), np.array([0.8, 0.7]), np.array([0.1, 0.1])
        t = ri.LambdaTildeTable(grid, lam, s, s, s, reps=1, seed=0)
        grid[0], lam[0], s[0] = 0.5, 0.9, 0.2
        assert t.alpha_grid[0] == 1.0 and t.lam[0] == 0.8 and t.sigma_sq[0] == 0.1
        assert not t.lam.flags.writeable and not t.dlam.flags.writeable

    def test_slope_derived_from_the_curve(self):
        grid, lam = np.array([0.5, 1.0, 2.0]), np.array([0.9, 0.8, 0.7])
        s = np.full(3, 0.01)
        t = ri.LambdaTildeTable(grid, lam, s, s, s, reps=1, seed=0)
        assert np.array_equal(t.dlam, np.gradient(lam, grid))

    @pytest.mark.parametrize("lam, alpha", [([0.8, 0.8, 0.8], 1.0), ([0.8, 0.7, 0.7], 2.0),
                                            ([0.8, 0.8, 0.7], 1.0)],
                             ids=["flat", "flat-at-the-end", "flat-at-the-start"])
    def test_curve_without_negative_slope_refused(self, lam, alpha):
        # a slope of 0 has no inverse, and estimate_alpha divides by the slope
        grid, s = np.array([1.0, 1.5, 2.0]), np.full(3, 0.01)
        with pytest.raises(DomainError, match=f"slope is not below 0 at alpha={alpha:g}"):
            ri.LambdaTildeTable(grid, np.array(lam), s, s, s, reps=1, seed=0)

    def test_flat_interior_step_keeps_an_inverse(self):
        # flat between two falling steps: both neighbours' slopes stay below 0
        grid, s = np.array([0.5, 1.0, 1.5, 2.0]), np.full(4, 0.01)
        t = ri.LambdaTildeTable(grid, np.array([0.9, 0.8, 0.8, 0.7]), s, s, s, reps=1, seed=0)
        assert (t.dlam < 0).all()
        assert ri.invert_lambda_tilde(0.8, t) == 1.5
        assert 1.5 < ri.invert_lambda_tilde(0.75, t) < 2.0

    def test_rising_curve_refused(self):
        # a rise outweighed by its neighbours' falls keeps every slope below 0,
        # but lam = 0.71 would then have two alphas
        grid, s = np.array([0.5, 1.0, 1.5, 2.0]), np.full(4, 0.01)
        with pytest.raises(DomainError, match="rises at alpha=1.5"):
            ri.LambdaTildeTable(grid, np.array([0.95, 0.7, 0.72, 0.55]), s, s, s,
                                reps=1, seed=0)

    def test_negative_sigma_sq_refused(self):
        grid, lam, s = [0.5, 1.0, 1.5, 2.0], [0.9, 0.8, 0.7, 0.6], np.full(4, 0.01)
        with pytest.raises(DomainError, match="nonnegative"):
            ri.LambdaTildeTable(grid, lam, s, np.full(4, -0.1), s, reps=1, seed=0)

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
        v = np.random.default_rng(12).uniform(lam[-1], lam[0], 50)
        assert [ri.invert_lambda_tilde(x, stable_table) for x in v] == \
            [float(np.interp(x, lam[keep][::-1], grid[keep][::-1])) for x in v]

    def test_inverse_is_exact_at_every_kept_knot(self, stable_table):
        # the first knot too: lam[0] inverts to the grid's first alpha, not an ulp below it
        lam, grid = stable_table.lam, stable_table.alpha_grid
        keep = np.concatenate([lam[:-1] > lam[1:], [True]])
        assert keep[0] and keep.sum() >= 2
        assert [ri.invert_lambda_tilde(x, stable_table) for x in lam[keep]] == \
            grid[keep].tolist()

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

    def test_monotone_path_inverts_to_the_first_alpha(self):
        # r_tilde = 1 is the curve's first value: no clamp, and the slope is read at 0.5
        s = np.full(4, 0.01)
        table = ri.LambdaTildeTable([0.5, 1.0, 1.5, 2.0], [1.0, 0.7, 0.65, 0.6], s, s, s,
                                    reps=1, seed=0)
        est = ri.estimate_alpha(ri.SampledPath(np.arange(257.0)), table)
        assert est.statistic.value == 1.0
        assert (est.alpha_hat, est.clamped) == (0.5, False)
        assert est.stderr > 0

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
