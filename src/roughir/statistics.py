"""Increment-ratio statistics of sampled paths.

Every statistic averages a scale-invariant function of consecutive
increments, so its value lies in [0, 1]: close to 1 for smooth or
monotone paths, smaller the rougher the path.  The ratio convention
0/0 := 1 is applied per term and counted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .increments import filtered_increment_array, make_binomial_filter

DEGENERATE_FRACTION = 0.5  # flag summaries dominated by the 0/0 convention


@dataclass(frozen=True)
class IRSummary:
    """Value of one increment-ratio statistic plus bookkeeping.

    zero_over_zero counts terms where numerator and denominator both
    vanished and the 0/0 := 1 convention was applied.
    """

    value: float
    terms: int
    zero_over_zero: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise DomainError(f"statistic value {self.value} outside [0, 1]")
        if self.zero_over_zero > self.terms:
            raise DomainError("zero_over_zero cannot exceed the term count")

    @property
    def degenerate(self):
        """True when the 0/0 convention dominated (constant/quantized input)."""
        return self.zero_over_zero > DEGENERATE_FRACTION * self.terms


def psi(x, y):
    """|x+y| / (|x|+|y|), with 0/0 := 1.  Total, 0-homogeneous, in [0,1]."""
    den = abs(x) + abs(y)
    if den == 0.0:
        return 1.0
    return abs(x + y) / den


def psi0(x, y):
    """Sign-persistence indicator: 1 if x*y >= 0 else 0."""
    return 1.0 if x * y >= 0.0 else 0.0


def psi_terms(x, y, kind):
    """psi ("psi") or psi0 ("psi0") elementwise over paired arrays.

    Returns (terms, count of pairs where x and y both vanish): the 0/0
    terms for psi, the both-zero pairs for psi0.
    """
    if kind == "psi":
        den = np.abs(x) + np.abs(y)
        zero = den == 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.abs(x + y) / np.where(zero, 1.0, den)
        t[zero] = 1.0
    else:
        t = (x * y >= 0.0).astype(float)
        zero = (x == 0.0) & (y == 0.0)
    return t, int(zero.sum())


def _summary(d, kind):
    """Mean of psi/psi0 over consecutive pairs of the increment array d."""
    terms, zero_count = psi_terms(d[:-1], d[1:], kind)
    # compensated accumulation: fsum is exact, so results do not depend on
    # summation order even for n ~ 1e6 terms
    total = math.fsum(terms)
    return IRSummary(value=min(total / terms.size, 1.0), terms=terms.size,
                     zero_over_zero=zero_count)


def _increments(path, a):
    """Filtered increments of path; needs n >= q+2 for a filter of length q+1."""
    if path.n < a.q + 2:
        raise SizeError(f"need n >= {a.q + 2} for filter length {a.q + 1}, got n={path.n}")
    return filtered_increment_array(path.values, a.coeffs)


def r_pn(path, p):
    """Mean of psi over consecutive p-order increments.

    (1/(n-p)) sum_{k=0}^{n-p-1} psi(d_k, d_{k+1}) where d_k is the p-order
    increment at k; needs p >= 1 and n >= p+2.
    """
    return _summary(_increments(path, make_binomial_filter(p)), "psi")


def r_an(path, a):
    """Generalized-variation analogue of r_pn for a filter a of length q+1."""
    return _summary(_increments(path, a), "psi")


def r0_pn(path, p):
    """Zero-crossing variant: psi replaced by the sign indicator psi0."""
    return _summary(_increments(path, make_binomial_filter(p)), "psi0")


def r_local(path, t0, w):
    """Localized second-order ratio statistic around t0.

    Averages psi(d_k, d_{k+1}) of second increments over the index window
    [floor(n*t0 - n^w), floor(n*t0 + n^w)] clipped to the valid range
    [0, n-3]; the normalization is the clipped term count.
    """
    if not 0.0 < t0 < 1.0:
        raise DomainError(f"t0 must lie in (0,1), got {t0}")
    if not 0.0 < w < 1.0:
        raise DomainError(f"window exponent must lie in (0,1), got {w}")
    n = path.n
    if n < 4:
        raise SizeError(f"need n >= 4, got {n}")
    half = n**w
    k_lo = max(int(math.floor(n * t0 - half)), 0)
    k_hi = min(int(math.floor(n * t0 + half)), n - 3)
    if k_hi < k_lo:
        raise SizeError(f"empty window around t0={t0} with exponent {w}")
    d = filtered_increment_array(path.values, make_binomial_filter(2).coeffs)
    return _summary(d[k_lo : k_hi + 2], "psi")


def _even_second_increments(path):
    n = path.n
    if n < 6:
        raise SizeError(f"need n >= 6, got {n}")
    vals = path.values if n % 2 == 0 else path.values[:-1]  # odd n: drop last sample
    d = filtered_increment_array(vals, make_binomial_filter(2).coeffs)
    return d[::2]


def r_tilde_2n(path):
    """Mean of psi over disjoint even-indexed second increments.

    (1/(n/2-1)) sum_{k=0}^{(n-4)/2} psi(d_{2k}, d_{2k+2}); the disjoint
    pairs make the terms independent for independent-increment processes
    and symmetric regardless of skewness.  Odd n drops the final sample.
    """
    return _summary(_even_second_increments(path), "psi")


def r0_tilde_2n(path):
    """Zero-crossing variant of r_tilde_2n (psi0 over the disjoint pairs)."""
    return _summary(_even_second_increments(path), "psi0")
