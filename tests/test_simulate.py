import math
import warnings

import numpy as np
import pytest

import roughir as ri
from roughir.errors import (DomainError, FactorizationError, ResolutionError,
                            SimulationError, SizeError)
from roughir.simulate import DIFFUSION_PRESETS, SIM_KINDS, mbm_covariance

from .oracles import fbm_cov, spectral_variogram


class TestFbm:
    def test_starts_at_zero_and_deterministic(self):
        a = ri.sim_fbm(512, 0.7, seed=1)
        b = ri.sim_fbm(512, 0.7, seed=1)
        assert a.values[0] == 0.0
        assert np.array_equal(a.values, b.values)
        c = ri.sim_fbm(512, 0.7, seed=2)
        assert not np.array_equal(a.values, c.values)

    def test_brownian_increment_independence(self):
        n = 2**14
        inc = np.diff(ri.sim_fbm(n, 0.5, seed=3).values)
        r1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(r1) < 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_variogram_scaling(self, H):
        n, reps = 512, 200
        sampler = ri.FbmSampler(n, H)
        sq = np.empty((reps, n))
        for i in range(reps):
            sq[i] = np.diff(sampler.sample_path(ri.derive_rng(40, i)).values) ** 2
        est = sq.mean()
        se = sq.mean(axis=1).std(ddof=1) / math.sqrt(reps)
        assert abs(est - n ** (-2 * H)) <= 3 * se

    @pytest.mark.parametrize("H", [0.3, 0.6])
    def test_lag_one_increment_correlation(self, H):
        n, reps = 1024, 200
        sampler = ri.FbmSampler(n, H)
        num = den = 0.0
        for i in range(reps):
            inc = np.diff(sampler.sample_path(ri.derive_rng(41, i)).values)
            num += np.dot(inc[:-1], inc[1:])
            den += np.dot(inc, inc)
        assert num / den == pytest.approx(2 ** (2 * H - 1) - 1, abs=0.01)

    def test_sample_covariance_frobenius(self):
        n, reps, H = 32, 2000, 0.6
        sampler = ri.FbmSampler(n, H)
        draws = np.empty((reps, n))
        for i in range(reps):
            draws[i] = sampler.sample_path(ri.derive_rng(42, i)).values[1:]
        emp = draws.T @ draws / reps
        t = np.arange(1, n + 1) / n
        want = np.array([[fbm_cov(H, s, u) for u in t] for s in t])
        rel = np.linalg.norm(emp - want) / np.linalg.norm(want)
        assert rel <= 4.0 / math.sqrt(reps)

    def test_domain(self):
        with pytest.raises(DomainError):
            ri.sim_fbm(64, 1.0, seed=1)
        with pytest.raises(DomainError):
            ri.sim_fbm(64, 0.0, seed=1)

    def test_negative_embedding_eigenvalues_raise(self):
        # the circulant embedding first goes indefinite here; there is no
        # dense fallback (it would need hundreds of GiB at this n)
        with pytest.raises(FactorizationError):
            ri.FbmSampler(2**18, 0.995)


class TestMbm:
    def test_constant_exponent_matches_fbm_covariance(self):
        n, H = 64, 0.35
        C = mbm_covariance(n, np.full(n, H))
        t = np.arange(1, n + 1) / n
        want = np.array([[fbm_cov(H, s, u) for u in t] for s in t])
        assert np.abs(C - want).max() < 1e-8

    def test_deterministic(self):
        h = lambda t: 0.4 + 0.3 * t
        a = ri.sim_mbm(128, h, seed=5)
        b = ri.sim_mbm(128, h, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_variance_follows_exponent(self):
        # Var X_t = t^(2 H(t)) under the adopted normalization
        n, reps = 64, 4000
        sampler = ri.MbmSampler(n, lambda t: 0.3 + 0.4 * t)
        draws = sampler.sample_paths(ri.derive_rng(50), reps)
        t = np.arange(1, n + 1) / n
        want = t ** (2 * (0.3 + 0.4 * t))
        got = draws[:, 1:].var(axis=0)
        assert np.abs(got / want - 1.0).max() < 6.0 / math.sqrt(reps) * 3

    def test_exponent_domain_checked(self):
        with pytest.raises(DomainError):
            ri.sim_mbm(32, lambda t: 1.2 - t, seed=1)

    def test_size_cap(self):
        with pytest.raises(SizeError):
            ri.MbmSampler(2**14, lambda t: 0.5)

    @pytest.mark.parametrize("H, h_func", [
        (0.45, lambda t: 0.45),
        ([[0.0, 0.25], [0.5, 0.6], [1.0, 0.35]],
         lambda t: float(np.interp(t, [0.0, 0.5, 1.0], [0.25, 0.6, 0.35]))),
        (0.3 + 0.4 * np.arange(1, 129) / 128, lambda t: 0.3 + 0.4 * t),
    ])
    def test_exponent_forms_match_callable(self, H, h_func):
        # a constant, knot rows and per-grid values give the callable's path
        a = ri.sim_mbm(128, H, seed=5)
        b = ri.sim_mbm(128, h_func, seed=5)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("H", [[0.3, 0.7], [], [[0.0, 0.3, 0.5]]])
    def test_malformed_exponent_rejected(self, H):
        with pytest.raises(DomainError):
            ri.MbmSampler(64, H)


class TestMultiscale:
    def test_single_band_matches_fbm_variogram(self):
        # sigma^2 = 1/(2 q1(H)) normalizes the one-band density to an exact
        # fBm variogram t^(2H); check the quadrature oracle and the sample
        H = 0.5
        sigma = math.sqrt(1.0 / (2.0 * math.pi))  # q1(1/2) = pi
        f = lambda xi: sigma**2 / np.abs(xi) ** (2 * H + 1)
        for lag in (0.01, 0.05, 0.2):
            v = spectral_variogram(f, lag)
            assert v == pytest.approx(lag ** (2 * H), rel=5e-3)

        n, reps = 256, 1500
        lags = np.arange(1, n // 10 + 1)
        acc = np.zeros(lags.size)
        for i in range(reps):
            p = ri.sim_multiscale_fbm(n, [], [sigma], [H], seed=6000 + i,
                                      freq_points=2**16)
            v = p.values
            for j, k in enumerate(lags):
                acc[j] += np.mean((v[k:] - v[:-k]) ** 2)
        emp = acc / reps
        want = (lags / n) ** (2 * H)
        mean_rel_dev = np.abs(emp / want - 1.0).mean()
        assert mean_rel_dev < 0.02

    def test_sigma_scaling_leaves_statistic_unchanged(self):
        a = ri.sim_multiscale_fbm(256, [10.0], [1.0, 1.0], [0.7, 0.4], seed=61)
        b = ri.sim_multiscale_fbm(256, [10.0], [2.0, 2.0], [0.7, 0.4], seed=61)
        assert ri.r_pn(b, 2) == ri.r_pn(a, 2)

    def test_high_frequency_band_governs_estimate(self, variance_table):
        # low-frequency band H0=0.8, high-frequency band H1=0.4: the
        # estimator must see the high-frequency exponent
        path = ri.sim_multiscale_fbm(2**14, [64.0], [1.0, 1.0], [0.8, 0.4], seed=62)
        est = ri.estimate_H(path, variance_table)
        assert abs(est.h_hat - 0.4) <= 3 * est.stderr

    def test_band_validation(self):
        with pytest.raises(DomainError):
            ri.sim_multiscale_fbm(64, [1.0], [1.0], [0.5], seed=1)  # count mismatch
        with pytest.raises(DomainError):
            ri.sim_multiscale_fbm(64, [], [1.0], [1.2], seed=1)  # H0 >= 1
        with pytest.raises(DomainError):
            ri.sim_multiscale_fbm(64, [], [1.0], [-0.1], seed=1)  # H_last <= 0

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            ri.sim_multiscale_fbm(4096, [], [1.0], [0.5], seed=1, freq_points=256)


class TestDiffusion:
    def test_brownian_coefficients_hit_gaussian_limit(self):
        n = 2**13
        p = ri.sim_diffusion(n, lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                             0.0, refine=16, seed=70)
        v = ri.r_pn(p, 1).value
        assert abs(v - 0.7206) <= 3 * math.sqrt(0.13 / n)

    def test_refine_floor(self):
        with pytest.raises(DomainError):
            ri.sim_diffusion(64, lambda x: x, lambda x: x, 0.0, refine=8, seed=1)

    def test_blow_up_reported(self):
        with pytest.raises(SimulationError):
            ri.sim_diffusion(64, lambda x: np.full_like(x, np.nan),
                             lambda x: np.zeros_like(x), 0.0, refine=16, seed=1)

    def test_blow_up_names_first_bad_grid_step_without_warnings(self):
        # the state overflows at fine step 20, i.e. before grid sample j=2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError) as info:
                ri.sim_diffusion(64, lambda x: 1 + x * x, lambda x: 50 * x**3, 1.0,
                                 refine=16, seed=0)
        assert info.value.step == 2

    def test_batch_deterministic(self):
        from roughir.simulate import sim_diffusion_batch
        args = (128, lambda x: 1.0 + 0.1 * x * x, lambda x: -x, 0.0, 16, 71, 3)
        b1 = sim_diffusion_batch(*args)
        b2 = sim_diffusion_batch(*args)
        assert np.array_equal(b1, b2)
        assert b1.shape == (3, 129)


class TestLevyStable:
    def test_alpha_two_variance(self):
        n, reps, scale = 256, 2000, 1.3
        ends = np.empty(reps)
        for i in range(reps):
            ends[i] = ri.sim_levy_stable(n, 2.0, scale=scale, seed=8000 + i).values[-1]
        assert ends.var() == pytest.approx(2.0 * scale**2, rel=0.15)

    def test_self_similarity_of_ratio_statistic(self):
        reps = 200
        small = np.empty(reps)
        big = np.empty(reps)
        for i in range(reps):
            small[i] = ri.r_tilde_2n(ri.sim_levy_stable(512, 1.3, seed=8500 + i)).value
            big[i] = ri.r_tilde_2n(ri.sim_levy_stable(2048, 1.3, seed=8700 + i)).value
        joint = math.hypot(small.std(ddof=1), big.std(ddof=1)) / math.sqrt(reps)
        assert abs(small.mean() - big.mean()) <= 3 * joint

    def test_domain(self):
        with pytest.raises(DomainError):
            ri.sim_levy_stable(64, 2.5, seed=1)
        with pytest.raises(DomainError):
            ri.sim_levy_stable(64, 1.0, scale=0.0, seed=1)


class TestLevyCompound:
    def test_zero_activity_constant_path(self):
        p = ri.sim_levy_compound(64, 0.0, seed=1, rate=0.0)
        assert np.all(p.values == 0.0)
        s = ri.r_tilde_2n(p)
        assert s.value == 1.0
        assert s.zero_over_zero == s.terms

    def test_gaussian_part_dominates_small_scales(self, stable_table):
        # finite-activity jumps + Brownian: the index estimate sits at the
        # Gaussian boundary alpha = 2
        hats = np.empty(40)
        for i in range(40):
            p = ri.sim_levy_compound(2**12, 1.0, seed=9000 + i, rate=5.0, jump_scale=2.0)
            hats[i] = ri.estimate_alpha(p, stable_table).alpha_hat
        assert hats.mean() > 1.9

    def test_truncated_stable_jumps_recover_index(self, stable_table):
        alpha, n, reps = 1.2, 2**14, 100
        hats = np.empty(reps)
        for i in range(reps):
            p = ri.sim_levy_compound(n, 0.0, seed=9500 + i, stable_alpha=alpha,
                                     stable_c=1.0, stable_cutoff=1e-5)
            hats[i] = ri.estimate_alpha(p, stable_table).alpha_hat
        se = hats.std(ddof=1) / math.sqrt(reps)
        dl = stable_table.interp("dlam", alpha)
        joint = math.hypot(se, stable_table.interp("lam_stderr", alpha) / abs(dl))
        assert abs(hats.mean() - alpha) <= 3 * joint

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ri.sim_levy_compound(64, seed=1, rate=-1.0)
        with pytest.raises(DomainError):
            ri.sim_levy_compound(64, seed=1, stable_alpha=2.5)
        with pytest.raises(DomainError):
            ri.sim_levy_compound(64, -0.5, seed=1, rate=1.0)


class TestTrend:
    def test_identity(self):
        p = ri.sim_fbm(128, 0.5, seed=90)
        z = ri.apply_trend(p, lambda t: 1.0, lambda t: 0.0)
        assert np.array_equal(z.values, p.values)

    def test_linear_additive_invisible_to_second_order(self):
        p = ri.sim_fbm(256, 0.5, seed=91)
        z = ri.apply_trend(p, lambda t: 1.0, lambda t: 3.0 * t - 1.0)
        assert ri.r_pn(z, 2).value == pytest.approx(ri.r_pn(p, 2).value, rel=1e-9)

    def test_positive_multiplier_enforced(self):
        p = ri.sim_fbm(64, 0.5, seed=92)
        with pytest.raises(DomainError):
            ri.apply_trend(p, lambda t: math.sin(6 * t), lambda t: 0.0)


class TestSimSpec:
    def test_dispatch_each_kind(self):
        a_func, b_func, _ = DIFFUSION_PRESETS["brownian"]
        cases = [
            (ri.SimSpec("fbm", 64, 1, {"H": 0.6}), lambda: ri.sim_fbm(64, 0.6, 1)),
            (ri.SimSpec("brownian", 64, 1, {}), lambda: ri.sim_brownian(64, 1)),
            (ri.SimSpec("mbm", 64, 1, {"H": [[0.0, 0.3], [1.0, 0.7]]}),
             lambda: ri.sim_mbm(64, [[0.0, 0.3], [1.0, 0.7]], 1)),
            (ri.SimSpec("multiscale_fbm", 64, 1,
                        {"breaks": [], "sigmas": [1.0], "hursts": [0.5]}),
             lambda: ri.sim_multiscale_fbm(64, [], [1.0], [0.5], 1)),
            (ri.SimSpec("diffusion", 64, 1, {"preset": "brownian", "refine": 16}),
             lambda: ri.sim_diffusion(64, a_func, b_func, 0.0, refine=16, seed=1)),
            (ri.SimSpec("levy_stable", 64, 1, {"alpha": 1.5}),
             lambda: ri.sim_levy_stable(64, 1.5, seed=1)),
            (ri.SimSpec("levy_compound", 64, 1, {"a_weight": 1.0, "rate": 3.0}),
             lambda: ri.sim_levy_compound(64, 1.0, seed=1, rate=3.0)),
        ]
        assert {spec.kind for spec, _ in cases} == set(SIM_KINDS)
        for spec, direct in cases:
            path = ri.simulate(spec)
            assert len(path) == 65
            assert path.values[0] == 0.0
            assert np.array_equal(path.values, direct().values), spec.kind

    def test_bit_identical_reruns(self):
        spec = ri.SimSpec("fbm", 256, 12345, {"H": 0.42})
        assert np.array_equal(ri.simulate(spec).values, ri.simulate(spec).values)

    def test_trend_applied(self):
        spec = ri.SimSpec("brownian", 64, 7, {},
                          trend=(lambda t: 2.0, lambda t: 1.0))
        path = ri.simulate(spec)
        assert path.values[0] == 1.0  # 2 * 0 + 1

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            ri.SimSpec("ornstein", 64, 1, {})

    @pytest.mark.parametrize("kind, params, named", [
        ("fbm", {"H": 0.5, "alpha": 2}, "unknown ['alpha']"),
        ("brownian", {"H": 0.3}, "unknown ['H']"),
        ("fbm", {}, "missing ['H']"),
        ("levy_compound", {"bogus": 1}, "unknown ['bogus']"),
        ("multiscale_fbm", {"breaks": []}, "missing ['sigmas', 'hursts']"),
        ("fbm", {"H": 0.5, "seed": 3}, "unknown ['seed']"),
        ("diffusion", {"preset": "nope"}, None),
        ("mbm", {"H": [0.3, 0.7]}, None),
        ("fbm", {"H": [[0.0, 0.3], [1.0, 0.7]]}, None),
    ])
    def test_bad_params_domain_error(self, kind, params, named):
        # a missing or unknown name fails when the spec is built; a bad value
        # fails in the simulator, before any draw
        with pytest.raises(DomainError) as info:
            spec = ri.SimSpec(kind, 64, 1, params)
            assert named is None, "built a spec with a missing or unknown param"
            ri.simulate(spec)
        assert named is None or named in str(info.value)
