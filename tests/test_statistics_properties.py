"""Property tests of the statistic family over arbitrary finite paths, and of
the exact summation behind every statistic."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import roughir as ri
from roughir.statistics import _exact_sum

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


@settings(deadline=None)
@given(t=arrays(np.float64, st.integers(0, 300), elements=_term))
def test_exact_sum_is_fsum(t):
    assert _same_float(_exact_sum(t.copy()), math.fsum(t))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1),
       size=st.sampled_from([0, 1, 2**15 - 1, 2**15, 2**15 + 1]))
def test_exact_sum_is_fsum_at_block_edges(seed, size):
    rng = np.random.default_rng(seed)
    t = np.ldexp(rng.random(size), rng.integers(-1074, 1, size))  # subnormal to 1
    pick = rng.integers(0, 4, size)
    t[pick == 0] = 0.0
    t[pick == 1] = 1.0
    t[pick == 2] = rng.random(int((pick == 2).sum()))
    assert _same_float(_exact_sum(t.copy()), math.fsum(t))
