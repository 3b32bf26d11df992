"""Finite-difference and generalized-variation kernels over sampled paths.

A path is a finite equispaced sample (f(0/n), ..., f(n/n)).  The p-order
increment at index j is the alternating binomial combination

    sum_{i=0}^{p} (-1)^{p-i} C(p,i) f((j+i)/n),      j = 0..n-p,

which annihilates polynomials of degree < p.  A filter a = (a_0..a_q) with
p vanishing moments generalizes this to sum_l a_l f((j+l)/n).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeError

MOMENT_TOL = 1e-12  # absolute tolerance on the vanishing-moment sums


def _frozen(values):
    """A read-only float copy of values: what a frozen dataclass stores."""
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampledPath:
    """Immutable equispaced sample of one path on the grid j/n, j=0..n.

    values must be finite; length is n+1.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DomainError(f"path values must be one-dimensional, got ndim={v.ndim}")
        if v.size < 2:
            raise SizeError(f"a path needs at least 2 samples, got {v.size}")
        if not np.isfinite(v).all():
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise DomainError(f"non-finite path value at index {bad}")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n(self):
        """Grid size: values has n+1 entries interpreted as f(j/n)."""
        return self.values.size - 1

    def times(self):
        return np.arange(self.n + 1) / self.n

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class Filter:
    """Coefficient vector a_0..a_q with exactly p vanishing moments.

    Requires sum_l l^i a_l == 0 for i < p (within 1e-12 absolute) and
    sum_l l^p a_l != 0.
    """

    coeffs: np.ndarray
    p: int
    q: int = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise DomainError("filter needs at least two coefficients")
        if not np.isfinite(a).all():
            raise DomainError("filter coefficients must be finite")
        if not (1 <= self.p <= a.size - 1):
            raise DomainError(f"vanishing-moment order p={self.p} invalid for length {a.size}")
        l = np.arange(a.size, dtype=float)
        for i in range(self.p):
            m = float(np.dot(l**i, a))
            if abs(m) > MOMENT_TOL:
                raise DomainError(f"moment {i} is {m:.3e}, expected 0 (|.| <= {MOMENT_TOL})")
        mp = float(np.dot(l**self.p, a))
        if abs(mp) <= MOMENT_TOL:
            raise DomainError(f"moment {self.p} is {mp:.3e}; filter order exceeds p")
        object.__setattr__(self, "coeffs", _frozen(a))
        object.__setattr__(self, "q", a.size - 1)


@functools.lru_cache(maxsize=None, typed=True)  # one shared Filter per order; 2.0 misses 2
def make_binomial_filter(p):
    """Filter (-1)^(p-l) C(p,l), l=0..p: the plain p-order difference."""
    if p < 1:
        raise DomainError(f"binomial filter order must be >= 1, got {p}")
    coeffs = np.array([(-1.0) ** (p - l) * math.comb(p, l) for l in range(p + 1)])
    return Filter(coeffs, p)


def filtered_increment(path, a, j):
    """sum_l a_l f((j+l)/n) for one j, 0 <= j <= n-q: the array kernel's value."""
    n, q = path.n, a.q
    if not 0 <= j <= n - q:
        raise IndexError(f"filtered increment index {j} outside [0, {n - q}]")
    return float(filtered_increment_array(path.values[j : j + q + 1], a.coeffs)[0])


def p_increment(path, p, j):
    """p-order increment at index j: the alternating binomial sum."""
    if p >= path.n:
        raise SizeError(f"order p={p} too large for grid size n={path.n}")
    return filtered_increment(path, make_binomial_filter(p), j)


def filtered_increment_array(values, coeffs, step=1):
    """Filtered increments of a value array at indices 0, step, 2*step, ...
    up to n-q: the one increment kernel, a_0 v_j + a_1 v_(j+1) + ... +
    a_q v_(j+q) summed left to right over shifted slices, so any one
    increment matches it exactly whatever the step."""
    q = len(coeffs) - 1
    if values.size <= q:
        raise SizeError(f"need more than {q} samples, got {values.size}")
    m = values.size - q
    d = coeffs[0] * values[:m:step]
    for l in range(1, q + 1):
        d += coeffs[l] * values[l : l + m : step]
    return d


def p_increment_array(values, p):
    """All p-order increments of a value array (indices 0..n-p)."""
    return filtered_increment_array(values, make_binomial_filter(p).coeffs)
