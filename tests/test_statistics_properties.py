"""Property test of the statistic family over arbitrary finite paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import roughir as ri

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
