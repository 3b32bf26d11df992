import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import roughir as ri
from roughir.errors import DomainError, SizeError
from roughir.statistics import psi_terms

from .oracles import psi0_ref, psi_ref, summary_ref


def path_of(values):
    return ri.SampledPath(np.asarray(values, dtype=float))


def grid_path(f, n):
    t = np.arange(n + 1) / n
    return ri.SampledPath(f(t))


class TestPsi:
    def test_same_sign(self):
        assert ri.psi(1.0, 1.0) == 1.0

    def test_perfect_cancellation(self):
        assert ri.psi(1.0, -1.0) == 0.0

    def test_zero_over_zero_convention(self):
        assert ri.psi(0.0, 0.0) == 1.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for x, y in rng.standard_cauchy((200, 2)):
            assert 0.0 <= ri.psi(x, y) <= 1.0

    def test_psi0(self):
        assert ri.psi0(2.0, 3.0) == 1.0
        assert ri.psi0(2.0, -3.0) == 0.0
        assert ri.psi0(0.0, -5.0) == 1.0  # product is 0, hence >= 0

    def test_psi0_tiny_opposite_signs(self):
        # x*y underflows to -0.0 here; the signs still differ
        assert ri.psi0(1e-200, -1e-200) == 0.0
        t, zero = psi_terms(np.array([1e-200]), np.array([-1e-200]), "psi0")
        assert t.tolist() == [0.0] and zero == 0


class TestRpn:
    def test_monotone_path_is_one(self):
        p = grid_path(lambda t: t + 0.3 * t**2, 50)
        s = ri.r_pn(p, 1)
        assert s.value == 1.0
        assert s.terms == 49
        assert s.zero_over_zero == 0

    def test_alternating_increments_zero(self):
        vals = np.zeros(21)
        vals[1::2] = 1.0  # increments +1, -1, +1, ...
        s = ri.r_pn(path_of(vals), 1)
        assert s.value == 0.0

    def test_constant_path_convention(self):
        s = ri.r_pn(path_of(np.full(30, 2.5)), 1)
        assert s.value == 1.0
        assert s.zero_over_zero == s.terms
        assert s.degenerate

    def test_too_short(self):
        with pytest.raises(SizeError):
            ri.r_pn(path_of([0.0, 1.0, 0.5]), 2)
        with pytest.raises(DomainError):
            ri.r_pn(path_of([0.0, 1.0, 0.5, 1.5]), 0)

    def test_term_count(self):
        rng = np.random.default_rng(1)
        p = ri.SampledPath(rng.standard_normal(101))
        assert ri.r_pn(p, 1).terms == 99
        assert ri.r_pn(p, 2).terms == 98
        assert ri.r_pn(p, 3).terms == 97


class TestRan:
    def test_binomial_filter_identical_to_r_pn(self):
        rng = np.random.default_rng(2)
        p = ri.SampledPath(rng.standard_normal(200))
        for order in (1, 2, 3):
            a = ri.make_binomial_filter(order)
            assert ri.r_an(p, a) == ri.r_pn(p, order)

    def test_second_difference_of_quadratic(self):
        p = grid_path(lambda t: t**2, 40)
        s = ri.r_an(p, ri.make_binomial_filter(2))
        assert s.value == 1.0  # constant second differences: psi(c, c) = 1

    def test_cubic_filter_ignores_quadratic_trend(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(101)
        t = np.arange(101) / 100
        a = ri.make_binomial_filter(3)
        plain = ri.r_an(ri.SampledPath(x), a)
        trended = ri.r_an(ri.SampledPath(x + 4.0 * t**2), a)
        # quadratic is annihilated up to rounding; values agree to near
        # machine accuracy
        assert trended.value == pytest.approx(plain.value, abs=1e-10)

    def test_too_short(self):
        with pytest.raises(SizeError):
            ri.r_an(path_of([0.0, 1.0, 2.0, 1.0]), ri.make_binomial_filter(3))


class TestR0pn:
    def test_monotone_is_one(self):
        p = grid_path(lambda t: t, 30)
        assert ri.r0_pn(p, 1).value == 1.0

    def test_alternating_is_zero(self):
        vals = np.zeros(21)
        vals[1::2] = 1.0
        assert ri.r0_pn(path_of(vals), 1).value == 0.0

    def test_terms_are_indicators(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = ri.SampledPath(rng.standard_normal(40))
            s = ri.r0_pn(p, 1)
            total = s.value * s.terms
            assert total == pytest.approx(round(total), abs=1e-9)
            assert 0.0 <= s.value <= 1.0

    def test_tiny_increments_keep_their_signs(self):
        vals = np.array([0, 1e-200, 0, 1e-200, 0, 2e-200, 0])
        assert ri.r0_pn(path_of(vals), 1).value == 0.0
        assert ri.r0_pn(path_of(np.ldexp(vals, 600)), 1).value == 0.0


class TestRLocal:
    def test_full_window_equals_global(self):
        rng = np.random.default_rng(5)
        p = ri.SampledPath(rng.standard_normal(65))
        s_local = ri.r_local(p, 0.5, 0.999)
        s_global = ri.r_pn(p, 2)
        assert s_local.value == s_global.value
        assert s_local.terms == s_global.terms

    def test_constant_path(self):
        assert ri.r_local(path_of(np.ones(64)), 0.5, 0.5).value == 1.0

    def test_window_size(self):
        rng = np.random.default_rng(6)
        p = ri.SampledPath(rng.standard_normal(1025))
        s = ri.r_local(p, 0.5, 0.5)
        half = 1024**0.5
        lo = math.floor(1024 * 0.5 - half)
        hi = math.floor(1024 * 0.5 + half)
        assert s.terms == hi - lo + 1

    def test_domain_errors(self):
        p = path_of(np.arange(10.0))
        with pytest.raises(DomainError):
            ri.r_local(p, 1.5, 0.5)
        with pytest.raises(DomainError):
            ri.r_local(p, 0.5, 1.5)

    def test_mc_bias_against_known_exponent(self):
        # localized estimate tracks the global exponent on fBm paths
        n, h, reps = 2**14, 0.6, 200
        sampler = ri.FbmSampler(n, h)
        est = np.empty(reps)
        for i in range(reps):
            rng = ri.derive_rng(505, i)
            p = sampler.sample_path(rng)
            est[i] = ri.invert_Lambda2(ri.r_local(p, 0.5, 0.6).value)
        assert abs(est.mean() - h) < 0.15


class TestRTilde:
    def test_convex_path_is_one(self):
        p = grid_path(lambda t: t**2, 40)
        assert ri.r_tilde_2n(p).value == 1.0

    def test_cancelling_even_pairs_zero(self):
        # second differences at even indices alternate +c, -c
        n = 16
        vals = np.zeros(n + 1)
        d2 = np.zeros(n - 1)
        d2[0::4] = 1.0
        d2[2::4] = -1.0
        for j in range(n - 1):  # integrate twice
            vals[j + 2] = d2[j] + 2 * vals[j + 1] - vals[j]
        s = ri.r_tilde_2n(path_of(vals))
        assert s.value == 0.0

    def test_too_short(self):
        with pytest.raises(SizeError):
            ri.r_tilde_2n(path_of(np.arange(5.0)))

    def test_odd_n_drops_last_sample(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(102)  # n = 101, odd
        assert ri.r_tilde_2n(path_of(vals)) == ri.r_tilde_2n(path_of(vals[:-1]))

    def test_term_count(self):
        rng = np.random.default_rng(8)
        p = ri.SampledPath(rng.standard_normal(101))  # n=100
        assert ri.r_tilde_2n(p).terms == 49  # n/2 - 1

    def test_brownian_limit_anchor(self):
        # E r_tilde on Brownian paths equals the closed-form Gaussian value
        reps, n = 500, 2**14
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = ri.r_tilde_2n(ri.sim_brownian(n, seed=900 + i)).value
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - ri.lam(0.0)) <= 3 * se  # lam(0) ~ 0.7206 ~ "0.72"


class TestInvariances:
    def test_scale_and_sign_exact(self):
        rng = np.random.default_rng(9)
        stats = [lambda p: ri.r_pn(p, 1), lambda p: ri.r_pn(p, 2),
                 lambda p: ri.r0_pn(p, 1), lambda p: ri.r_tilde_2n(p),
                 lambda p: ri.r_local(p, 0.5, 0.7)]
        for _ in range(50):
            x = rng.standard_normal(40)
            c = float(2.0 ** rng.integers(-8, 9))  # binary scaling is rounding-free
            for stat in stats:
                base = stat(path_of(x)).value
                assert stat(path_of(c * x)).value == base
                assert stat(path_of(-x)).value == base

    def test_scale_invariance_general_factor(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.standard_normal(60)
            c = math.exp(rng.uniform(-3, 3)) * rng.choice([-1.0, 1.0])
            a = ri.r_pn(path_of(x), 2).value
            b = ri.r_pn(path_of(c * x), 2).value
            assert b == pytest.approx(a, abs=1e-12)

    def test_polynomial_trend_invariance(self):
        rng = np.random.default_rng(11)
        t = np.arange(129) / 128
        for _ in range(25):
            x = rng.standard_normal(129)
            base1 = ri.r_pn(path_of(x), 1).value
            base2 = ri.r_pn(path_of(x), 2).value
            shifted = ri.r_pn(path_of(x + 5.0), 1).value          # deg 0 < p=1
            lin = ri.r_pn(path_of(x + 3.0 * t - 1.0), 2).value    # deg 1 < p=2
            assert shifted == pytest.approx(base1, rel=1e-9)
            assert lin == pytest.approx(base2, rel=1e-9)

    def test_range_on_quantized_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            vals = rng.integers(-2, 3, 30).astype(float)  # many zero increments
            for s in (ri.r_pn(path_of(vals), 1), ri.r_pn(path_of(vals), 2),
                      ri.r0_pn(path_of(vals), 1), ri.r_tilde_2n(path_of(vals))):
                assert 0.0 <= s.value <= 1.0
                assert s.zero_over_zero <= s.terms


class TestExactMean:
    """Every statistic is the correctly rounded mean: math.fsum's, bit for bit."""

    second = ri.make_binomial_filter(2).coeffs

    def test_long_fbm_path(self):
        path = ri.FbmSampler(2**20, 0.7).sample_path(np.random.default_rng(21))
        expected, _, _ = summary_ref(path.values, self.second, "psi")
        assert ri.r_pn(path, 2).value == expected

    def test_long_stable_path(self):
        path = ri.sim_levy_stable(2**20, 0.5, seed=22)
        expected, _, _ = summary_ref(path.values, self.second, "psi", slice(None, None, 2))
        assert ri.r_tilde_2n(path).value == expected


class TestOverflowingIncrements:
    """psi and psi0 are 0-homogeneous: a finite path whose increments
    overflow gets the statistic of the path scaled by a power of two."""

    STATS = {
        "r_pn1": lambda p: ri.r_pn(p, 1),
        "r_pn2": lambda p: ri.r_pn(p, 2),
        "r_an": lambda p: ri.r_an(p, ri.make_binomial_filter(2)),
        "r0_pn1": lambda p: ri.r0_pn(p, 1),
        "r0_pn2": lambda p: ri.r0_pn(p, 2),
        "r_local": lambda p: ri.r_local(p, 0.5, 0.9),
        "r_tilde_2n": ri.r_tilde_2n,
        "r0_tilde_2n": ri.r0_tilde_2n,
    }
    v = np.array([0, 1e308, -1e308, 1e308, 0, 3, -1e308])

    def values(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return {name: stat(path_of(v)).value for name, stat in self.STATS.items()}

    def test_known_values(self):
        got = self.values(self.v)
        assert got["r_pn1"] == 0.5333333333333333
        assert got["r_pn2"] == got["r_an"] == 0.19642857142857142
        assert got["r_tilde_2n"] == 1.0
        assert got["r0_pn2"] == 0.0

    @pytest.mark.parametrize("k", [1000, 1020])
    def test_equals_scaled_path(self, k):
        assert self.values(self.v) == self.values(np.ldexp(self.v, -k))

    def test_sum_of_magnitudes_overflows(self):
        # finite increments 1.5e308 and -1e308, but |x| + |y| overflows
        w = np.array([0, 1.5e308, 0.5e308, 0.2e308, 0.0, 1.0, 0.5])
        psi_stats = ("r_pn1", "r_pn2", "r_an", "r_local", "r_tilde_2n")
        got, scaled = self.values(w), self.values(np.ldexp(w, -1000))
        assert [got[s] for s in psi_stats] == [scaled[s] for s in psi_stats]
        # psi terms 0.2, 1, 1, 1, 1/3; an overflowed |x| + |y| made the first 0
        assert got["r_pn1"] == 0.7066666666666667


class TestSmoothFunctionLimit:
    def test_sine_path_approaches_one(self):
        vals = []
        for n in (10**3, 10**4, 10**5):
            t = np.arange(n + 1) / n
            vals.append(ri.r_pn(ri.SampledPath(np.sin(4 * np.pi * t)), 1).value)
        assert vals[1] >= 0.99
        assert vals[1] >= vals[0] - 1e-3
        assert vals[2] >= vals[1] - 1e-3


class TestPinnedValues:
    """Every statistic's exact value on a seeded fBm and a seeded stable path
    at n=4096, so a change to the increments, the psi terms or the sum that
    moves any last bit shows here."""

    PATHS = {"fbm": lambda: ri.sim_fbm(4096, 0.7, seed=20260),
             "stable": lambda: ri.sim_levy_stable(4096, 1.5, seed=20261)}
    STATS = {
        "r_pn1": lambda p: ri.r_pn(p, 1),
        "r_pn2": lambda p: ri.r_pn(p, 2),
        "r_pn3": lambda p: ri.r_pn(p, 3),
        "r0_pn2": lambda p: ri.r0_pn(p, 2),
        "r_an": lambda p: ri.r_an(p, ri.Filter([1.0, -1.0, -1.0, 1.0], p=2)),
        "r_local": lambda p: ri.r_local(p, 0.5, 0.6),
        "r_tilde_2n": ri.r_tilde_2n,
        "r0_tilde_2n": ri.r0_tilde_2n,
    }
    EXPECTED = {
        "fbm": {"r_pn1": "0x1.8faa894ebfaf1p-1", "r_pn2": "0x1.3c2e6ef773908p-1",
                "r_pn3": "0x1.17667fc93760dp-1", "r0_pn2": "0x1.81f03e07c0f82p-2",
                "r_an": "0x1.7ca3e255b896cp-1", "r_local": "0x1.3a94432763263p-1",
                "r_tilde_2n": "0x1.68416e1dcb5dcp-1", "r0_tilde_2n": "0x1.de3bc778ef1dep-2"},
        "stable": {"r_pn1": "0x1.7b02e1bb35edap-1", "r_pn2": "0x1.2d51e11cedef3p-1",
                   "r_pn3": "0x1.10c2919a735d2p-1", "r0_pn2": "0x1.51aa3546a8d52p-2",
                   "r_an": "0x1.7d7731ad6b2c2p-1", "r_local": "0x1.28659bf8d8cecp-1",
                   "r_tilde_2n": "0x1.7b3d2f7ef7779p-1", "r0_tilde_2n": "0x1.00600c0180300p-1"},
    }

    @pytest.mark.parametrize("kind", ["fbm", "stable"])
    def test_hex_values(self, kind):
        path = self.PATHS[kind]()
        got = {name: stat(path).value.hex() for name, stat in self.STATS.items()}
        assert got == self.EXPECTED[kind]


class TestBlockWalk:
    """The statistics walk their pairs in blocks of 2^15: the increments,
    terms and exact partial sums of one block at a time."""

    BLOCK = 2**15

    def test_three_block_pins(self):
        # values at the whole-path formula, one increment array for all pairs
        path = ri.sim_fbm(3 * self.BLOCK + 5, 0.3, seed=2024)
        stats = {
            "r_pn1": ri.r_pn(path, 1),
            "r_an": ri.r_an(path, ri.Filter([1.0, -1.0, -1.0, 1.0], p=2)),
            "r0_pn2": ri.r0_pn(path, 2),
            "r_local": ri.r_local(path, 0.5, 0.9),
            "r_tilde_2n": ri.r_tilde_2n(path),
            "r0_tilde_2n": ri.r0_tilde_2n(path),
        }
        got = {name: (s.value.hex(), s.terms) for name, s in stats.items()}
        assert got == {"r_pn1": ("0x1.534271c078261p-1", 98308),
                       "r_an": ("0x1.647356dd7255cp-1", 98306),
                       "r0_pn2": ("0x1.36ed9224dbb65p-2", 98307),
                       "r_local": ("0x1.1f3162cc665bbp-1", 62283),
                       "r_tilde_2n": ("0x1.7922770a6c4c8p-1", 49153),
                       "r0_tilde_2n": ("0x1.0c069aa1dc7d8p-1", 49153)}

    @pytest.mark.parametrize("kind, ref", [("psi", psi_ref), ("psi0", psi0_ref)])
    def test_psi_terms_of_non_finite_inputs(self, kind, ref):
        special = [0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan,
                   1e-300, -5e-324, 1e308, -1e308]
        x, y = (np.array(v) for v in zip(*itertools.product(special, special)))
        with np.errstate(over="ignore"):
            t, zeros = psi_terms(x, y, kind)
        expected = [ref(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert np.array_equal(t, expected, equal_nan=True)
        assert zeros == 4  # the pairs of signed zeros

    def test_only_whole_path_sum_of_squares_overflows(self):
        # 2^20 increments near 2^502: every block's d @ d is finite, the whole
        # path's is not
        rng = np.random.default_rng(90)
        inc = np.ldexp(rng.choice([-1.0, 1.0], 2**20) * rng.uniform(1.0, 1.4, 2**20), 502)
        values = np.concatenate([[0.0], np.cumsum(inc)])
        path = path_of(values)
        cases = [(ri.r_pn(path, 1), 1, slice(None)), (ri.r_pn(path, 2), 2, slice(None)),
                 (ri.r0_pn(path, 1), 1, slice(None)),
                 (ri.r_tilde_2n(path), 2, slice(None, None, 2))]
        for (stat, p, window), kind in zip(cases, ("psi", "psi", "psi0", "psi")):
            coeffs = ri.make_binomial_filter(p).coeffs
            with np.errstate(over="ignore"):
                d = ri.filtered_increment_array(values, coeffs)[window]
                assert not math.isfinite(d @ d)
            blocks = [d[j:j + self.BLOCK + 1] for j in range(0, d.size - 1, self.BLOCK)]
            assert all(math.isfinite(b @ b) for b in blocks)
            value, terms, zeros = summary_ref(values, coeffs, kind, window)
            assert (stat.value, stat.terms, stat.zero_over_zero) == (value, terms, zeros)

    def test_scratch_memory_independent_of_length(self):
        path = path_of(np.cumsum(np.random.default_rng(91).standard_normal(2**20 + 1)))
        tracemalloc.start()
        try:
            ri.r_pn(path, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the whole-path increments alone take 8 MiB
