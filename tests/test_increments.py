import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import roughir as ri
from roughir.errors import DomainError, SizeError

from .oracles import filtered_increment_ref

# binomial orders 1-4 plus two non-binomial filters with two vanishing moments
FILTERS = [ri.make_binomial_filter(p) for p in (1, 2, 3, 4)] + [
    ri.Filter([0.5, -1.0, 0.5], p=2), ri.Filter([1.0, -1.0, -1.0, 1.0], p=2)]

# signed values from 2^-400 to 2^400, zeros included: the terms of one
# increment differ by hundreds of orders of magnitude
_spread = st.one_of(st.just(0.0), st.builds(lambda m, e: m * 2.0**e,
                                            st.floats(-2.0, 2.0), st.integers(-400, 400)))


def grid_path(f, n):
    t = np.arange(n + 1) / n
    return ri.SampledPath(f(t))


class TestSampledPath:
    def test_length_and_n(self):
        p = grid_path(lambda t: t, 10)
        assert p.n == 10
        assert len(p) == 11

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError, match="index 3"):
            ri.SampledPath([0.0, 1.0, 2.0, np.nan, 4.0])
        with pytest.raises(DomainError):
            ri.SampledPath([0.0, np.inf])

    def test_rejects_too_short(self):
        with pytest.raises(SizeError):
            ri.SampledPath([1.0])

    def test_immutable(self):
        p = grid_path(lambda t: t, 4)
        with pytest.raises(ValueError):
            p.values[0] = 5.0

    def test_times(self):
        p = grid_path(lambda t: t, 4)
        assert np.allclose(p.times(), [0, 0.25, 0.5, 0.75, 1.0])


class TestPIncrement:
    def test_linear_first_difference(self):
        p = grid_path(lambda t: t, 10)
        assert ri.p_increment(p, 1, 3) == pytest.approx(0.1, abs=1e-15)

    def test_second_difference_kills_linear(self):
        p = grid_path(lambda t: t, 10)
        assert ri.p_increment(p, 2, 3) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_constant_second_difference(self):
        p = grid_path(lambda t: t**2, 10)
        for j in range(9):
            assert ri.p_increment(p, 2, j) == pytest.approx(0.02, abs=1e-15)

    def test_index_out_of_range(self):
        p = grid_path(lambda t: t, 10)
        with pytest.raises(IndexError):
            ri.p_increment(p, 2, 9)
        with pytest.raises(IndexError):
            ri.p_increment(p, 1, -1)

    def test_order_too_large(self):
        p = grid_path(lambda t: t, 4)
        with pytest.raises(SizeError):
            ri.p_increment(p, 4, 0)


class TestFilter:
    def test_binomial_coefficients(self):
        assert ri.make_binomial_filter(1).coeffs.tolist() == [-1.0, 1.0]
        assert ri.make_binomial_filter(2).coeffs.tolist() == [1.0, -2.0, 1.0]
        assert ri.make_binomial_filter(3).coeffs.tolist() == [-1.0, 3.0, -3.0, 1.0]

    def test_binomial_order(self):
        for p in (1, 2, 3, 4):
            assert ri.make_binomial_filter(p).p == p
            assert ri.make_binomial_filter(p).q == p

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            ri.make_binomial_filter(0)

    def test_binomial_filter_shared_and_read_only(self):
        f = ri.make_binomial_filter(2)
        assert ri.make_binomial_filter(2) is f
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0
        with pytest.raises(TypeError):
            ri.make_binomial_filter(2.0)  # not served from the int order's entry

    def test_moment_validation(self):
        # sum of coefficients is not zero
        with pytest.raises(DomainError, match="moment 0"):
            ri.Filter([1.0, 1.0], p=1)
        # (1,-2,1) has two vanishing moments, so p=1 misdeclares the order
        with pytest.raises(DomainError, match="moment 1"):
            ri.Filter([1.0, -2.0, 1.0], p=1)

    def test_custom_filter_accepted(self):
        f = ri.Filter([0.5, -1.0, 0.5], p=2)
        assert f.q == 2


class TestFilteredIncrement:
    def test_matches_first_difference(self):
        rng = np.random.default_rng(7)
        p = ri.SampledPath(rng.standard_normal(33))
        a = ri.Filter([-1.0, 1.0], p=1)
        for j in range(p.n):
            assert ri.filtered_increment(p, a, j) == ri.p_increment(p, 1, j)

    def test_matches_binomial_bit_for_bit(self):
        rng = np.random.default_rng(8)
        p = ri.SampledPath(rng.standard_normal(65))
        for order in (1, 2, 3):
            filt = ri.make_binomial_filter(order)
            for j in range(p.n - order + 1):
                assert ri.filtered_increment(p, filt, j) == ri.p_increment(p, order, j)

    def test_cubic_filter_kills_quadratic(self):
        p = grid_path(lambda t: t**2, 12)
        a = ri.make_binomial_filter(3)
        for j in range(p.n - 2):
            assert abs(ri.filtered_increment(p, a, j)) < 1e-15

    def test_polynomial_annihilation(self):
        # any filter of order p zeroes polynomials of degree < p
        rng = np.random.default_rng(9)
        filters = [ri.make_binomial_filter(1), ri.make_binomial_filter(2),
                   ri.Filter([0.5, -1.0, 0.5], p=2),
                   ri.Filter([1.0, -1.0, -1.0, 1.0], p=2),
                   ri.make_binomial_filter(3)]
        for filt in filters:
            for _ in range(5):
                coef = rng.uniform(-3, 3, filt.p)  # degree < p
                path = grid_path(lambda t: sum(c * t**k for k, c in enumerate(coef)), 64)
                scale = max(np.abs(path.values).max(), 1.0)
                d = ri.filtered_increment_array(path.values, filt.coeffs)
                assert np.abs(d).max() <= 1e-12 * scale

    def test_linearity(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        al, be = 1.7, -0.4
        a = ri.Filter([1.0, -3.0, 3.0, -1.0], p=3)
        lhs = ri.filtered_increment_array(al * x + be * y, a.coeffs)
        rhs = al * ri.filtered_increment_array(x, a.coeffs) \
            + be * ri.filtered_increment_array(y, a.coeffs)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(11)
        p = ri.SampledPath(rng.standard_normal(20))
        for a in FILTERS:
            d = ri.filtered_increment_array(p.values, a.coeffs)
            assert d.shape == (p.n - a.q + 1,)
            for j in range(d.size):
                assert d[j] == ri.filtered_increment(p, a, j)


@settings(deadline=None)
@given(values=arrays(np.float64, st.integers(5, 40), elements=_spread),
       a=st.sampled_from(FILTERS))
def test_increments_equal_left_to_right_sum(values, a):
    path = ri.SampledPath(values)
    d = ri.filtered_increment_array(path.values, a.coeffs)
    assert d.size == path.n - a.q + 1
    for j in range(d.size):
        want = filtered_increment_ref(path.values, a.coeffs, j)
        assert d[j] == want
        assert ri.filtered_increment(path, a, j) == want
