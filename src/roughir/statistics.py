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
    return float(psi_terms(np.array([x], float), np.array([y], float), "psi")[0][0])


def psi0(x, y):
    """Sign-persistence indicator: 1 if sign(x)*sign(y) >= 0 else 0.

    The signs are compared, not x*y, which underflows to 0 for tiny x, y."""
    return float(psi_terms(np.array([x], float), np.array([y], float), "psi0")[0][0])


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
        t = (np.sign(x) * np.sign(y) >= 0.0).astype(float)
        zero = (x == 0.0) & (y == 0.0)
    return t, int(zero.sum())


# Exact summation by error-free extraction (Rump, Ogita & Oishi, "Accurate
# floating-point summation, part I", SIAM J. Sci. Comput. 2008).  Terms are
# split in blocks of _BLOCK; 2^_M >= _BLOCK + 2 makes every extracted part's
# numpy sum exact in any order.
_BLOCK = 1 << 15
_M = 16
_TINY = 2.0**-960  # smallest sigma; keeps sigma and 2^-53 sigma normal numbers


def _exact_sum(t):
    """Correctly rounded sum of t: math.fsum(t), bit for bit.

    Works in place on t, whose terms must be finite and below 2^1000 in
    magnitude.  With |t_i| <= 2^e and sigma = 2^(_M+e), the part
    q = (t + sigma) - sigma of each term is a multiple of 2^-53 sigma and
    at most 2^e, so the block's numpy sum of q is exact; t - q is exact and
    at most 2^-53 sigma, which starts the next level.  A remainder still
    left below _TINY goes to math.fsum term by term; otherwise math.fsum
    only combines a few dozen exact partial sums.
    """
    kept = []
    scratch = np.empty(min(t.size, _BLOCK))
    for lo in range(0, t.size, _BLOCK):
        b = t[lo:lo + _BLOCK]
        q = scratch[:b.size]
        top = float(np.abs(b, out=q).max())
        if top == 0.0:
            continue
        sigma = math.ldexp(1.0, _M + math.frexp(top)[1])
        while True:
            np.add(b, sigma, out=q)
            q -= sigma
            b -= q
            kept.append(float(q.sum()))
            if not b.any():
                break
            sigma = math.ldexp(sigma, _M - 53)
            if sigma < _TINY:
                kept.extend(b[b != 0.0].tolist())
                break
    return math.fsum(kept)


def _summary(values, coeffs, kind, window=slice(None)):
    """Mean of psi/psi0 over consecutive pairs of the filtered increments
    of values selected by window.

    psi and psi0 are 0-homogeneous, so a path whose increments overflow is
    scaled by a power of two that keeps every increment below 2^1022, and
    so |x| + |y| and x + y finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = filtered_increment_array(values, coeffs)[window]
        # d @ d is finite only if every |d_k| < 2^512, far from overflow in psi
        if not math.isfinite(d @ d):
            k = (math.frexp(float(np.abs(values).max()))[1]
                 + math.frexp(float(np.abs(coeffs).sum()))[1] - 1022)
            values = np.ldexp(values, -max(k, 0))
            d = filtered_increment_array(values, coeffs)[window]
        terms, zero_count = psi_terms(d[:-1], d[1:], kind)
    # the correctly rounded sum does not depend on summation order, even
    # for n ~ 1e6 terms
    total = _exact_sum(terms)
    return IRSummary(value=min(total / terms.size, 1.0), terms=terms.size,
                     zero_over_zero=zero_count)


def _filtered_summary(path, a, kind):
    """_summary over all increments of path; needs n >= q+2 for a filter of
    length q+1."""
    if path.n < a.q + 2:
        raise SizeError(f"need n >= {a.q + 2} for filter length {a.q + 1}, got n={path.n}")
    return _summary(path.values, a.coeffs, kind)


def r_pn(path, p):
    """Mean of psi over consecutive p-order increments.

    (1/(n-p)) sum_{k=0}^{n-p-1} psi(d_k, d_{k+1}) where d_k is the p-order
    increment at k; needs p >= 1 and n >= p+2.
    """
    return _filtered_summary(path, make_binomial_filter(p), "psi")


def r_an(path, a):
    """Generalized-variation analogue of r_pn for a filter a of length q+1."""
    return _filtered_summary(path, a, "psi")


def r0_pn(path, p):
    """Zero-crossing variant: psi replaced by the sign indicator psi0."""
    return _filtered_summary(path, make_binomial_filter(p), "psi0")


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
    return _summary(path.values, make_binomial_filter(2).coeffs, "psi",
                    slice(k_lo, k_hi + 2))


def _even_pairs_summary(path, kind):
    """_summary over the even-indexed second increments of path."""
    n = path.n
    if n < 6:
        raise SizeError(f"need n >= 6, got {n}")
    vals = path.values if n % 2 == 0 else path.values[:-1]  # odd n: drop last sample
    return _summary(vals, make_binomial_filter(2).coeffs, kind, slice(None, None, 2))


def r_tilde_2n(path):
    """Mean of psi over disjoint even-indexed second increments.

    (1/(n/2-1)) sum_{k=0}^{(n-4)/2} psi(d_{2k}, d_{2k+2}); the disjoint
    pairs make the terms independent for independent-increment processes
    and symmetric regardless of skewness.  Odd n drops the final sample.
    """
    return _even_pairs_summary(path, "psi")


def r0_tilde_2n(path):
    """Zero-crossing variant of r_tilde_2n (psi0 over the disjoint pairs)."""
    return _even_pairs_summary(path, "psi0")
