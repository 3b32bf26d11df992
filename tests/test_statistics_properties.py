"""Property tests of the statistic family over arbitrary finite paths, and of
the exact summation behind every statistic."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import roughir as ri
from roughir.statistics import _extract

from .oracles import summary_ref

# magnitudes stay in [1e-6, 1e6] (or exactly 0) so that increments neither
# overflow nor go subnormal, which keeps power-of-two scaling exact; the
# small integers make zeros, ties and repeated values common
_magnitude = st.one_of(st.just(0.0), st.integers(1, 3).map(float), st.floats(1e-6, 1e6))
_value = st.tuples(st.booleans(), _magnitude).map(lambda t: -t[1] if t[0] else t[1])


@settings(deadline=None)
@given(values=arrays(np.float64, st.integers(7, 60), elements=_value),
       p=st.integers(1, 4), k=st.integers(-8, 8))
def test_statistics_bounded_consistent_and_invariant(values, p, k):
    path = ri.SampledPath(values)
    stats = [ri.r_pn(path, p), ri.r0_pn(path, p), ri.r_an(path, ri.make_binomial_filter(p)),
             ri.r_local(path, 0.5, 0.6), ri.r_tilde_2n(path), ri.r0_tilde_2n(path)]
    for s in stats:
        assert 0.0 <= s.value <= 1.0
        assert 0 <= s.zero_over_zero <= s.terms
    assert ri.r_an(path, ri.make_binomial_filter(p)) == ri.r_pn(path, p)
    base = ri.r_pn(path, p)
    assert ri.r_pn(ri.SampledPath(-values), p) == base
    assert ri.r_pn(ri.SampledPath(values * 2.0**k), p) == base


@settings(deadline=None)
@given(values=arrays(np.float64, st.integers(7, 60), elements=_value), p=st.integers(1, 4))
def test_sign_statistics_survive_tiny_scale(values, p):
    # at 2^-600 products of increments underflow, but their signs are intact
    tiny = ri.SampledPath(np.ldexp(values, -600))
    path = ri.SampledPath(values)
    assert ri.r0_pn(tiny, p) == ri.r0_pn(path, p)
    assert ri.r0_tilde_2n(tiny) == ri.r0_tilde_2n(path)


# psi terms lie in [0, 1]; exact 0 and 1 are common, and subnormals are the
# hardest case for extraction
_term = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0),
                  st.floats(0.0, 2.0**-1022, allow_subnormal=True))


def _same_float(a, b):
    return a.hex() == b.hex()


def _extracted_sum(t):
    """math.fsum of the exact partial sums that one _extract call keeps."""
    kept = []
    _extract(t.copy(), np.empty(t.size), kept)
    return math.fsum(kept)


@settings(deadline=None)
@given(t=arrays(np.float64, st.integers(0, 300), elements=_term))
def test_exact_sum_is_fsum(t):
    assert _same_float(_extracted_sum(t), math.fsum(t))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([0, 1, 2**15 - 1, 2**15]))
def test_exact_sum_is_fsum_at_block_edges(seed, size):
    rng = np.random.default_rng(seed)
    t = np.ldexp(rng.random(size), rng.integers(-1074, 1, size))  # subnormal to 1
    pick = rng.integers(0, 4, size)
    t[pick == 0] = 0.0
    t[pick == 1] = 1.0
    t[pick == 2] = rng.random(int((pick == 2).sum()))
    assert _same_float(_extracted_sum(t), math.fsum(t))


# pair counts at and either side of one and two blocks of the walk
_BLOCK_PAIRS = [b + e for b in (2**15, 2 * 2**15) for e in (-1, 0, 1)]
_A3 = ri.Filter([1.0, -1.0, -1.0, 1.0], p=2)


def _block_test_values(rng, n, shape):
    if shape == "quantized":  # most increments of every order are 0
        return rng.integers(-1, 2, n + 1).astype(float)
    steps = rng.standard_normal(n)
    if shape == "sticky":  # runs of equal values: zero-heavy increments
        steps[rng.random(n) < 0.8] = 0.0
    return np.concatenate([[0.0], np.cumsum(steps)])


@settings(deadline=None, max_examples=40)
@given(stat=st.sampled_from(["r_pn1", "r_pn2", "r0_pn2", "r_an", "r_local",
                             "r_tilde_2n", "r0_tilde_2n"]),
       pairs=st.sampled_from(_BLOCK_PAIRS), odd=st.booleans(),
       shape=st.sampled_from(["gauss", "sticky", "quantized"]),
       seed=st.integers(0, 2**32 - 1), t0=st.floats(0.3, 0.7), w=st.floats(0.9, 0.97))
def test_block_walk_is_the_whole_path_formula(stat, pairs, odd, shape, seed, t0, w):
    binomial = {p: ri.make_binomial_filter(p).coeffs for p in (1, 2)}
    # n and the selection that make `pairs` pairs; r_local's window is the
    # documented one, clipped to [0, n-3], and holds more than one block
    if stat in ("r_pn1", "r_pn2", "r0_pn2"):
        p = int(stat[-1])
        n, coeffs, window = pairs + p, binomial[p], slice(None)
    elif stat == "r_an":
        n, coeffs, window = pairs + _A3.q, _A3.coeffs, slice(None)
    elif stat == "r_local":
        n, coeffs = 2 * pairs, binomial[2]
        k_lo = max(math.floor(n * t0 - n**w), 0)
        k_hi = min(math.floor(n * t0 + n**w), n - 3)
        window = slice(k_lo, k_hi + 2)
        pairs = k_hi + 1 - k_lo
        assert pairs > 2**15
    else:
        n, coeffs, window = 2 * pairs + 2 + odd, binomial[2], slice(None, None, 2)
    values = _block_test_values(np.random.default_rng(seed), n, shape)
    path = ri.SampledPath(values)
    got = {"r_pn1": lambda: ri.r_pn(path, 1), "r_pn2": lambda: ri.r_pn(path, 2),
           "r0_pn2": lambda: ri.r0_pn(path, 2), "r_an": lambda: ri.r_an(path, _A3),
           "r_local": lambda: ri.r_local(path, t0, w), "r_tilde_2n": lambda: ri.r_tilde_2n(path),
           "r0_tilde_2n": lambda: ri.r0_tilde_2n(path)}[stat]()
    assert got.terms == pairs
    kind = "psi0" if stat.startswith("r0") else "psi"
    even = values[:n + 1 - n % 2] if window.step == 2 else values  # odd n: drop last sample
    assert (got.value, got.terms, got.zero_over_zero) == summary_ref(even, coeffs, kind, window)
