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
    """|x+y| / (|x|+|y|), with 0/0 := 1.  Total for finite x and y,
    0-homogeneous, in [0,1]."""
    xy = _fitted(np.array([[x], [y]], float), 2.0)
    with np.errstate(invalid="ignore"):
        return float(psi_terms(xy[0], xy[1], "psi")[0][0])


def psi0(x, y):
    """Sign-persistence indicator: 1 if sign(x)*sign(y) >= 0 else 0.

    The signs are compared, not x*y, which underflows to 0 for tiny x, y."""
    return float(psi_terms(np.array([x], float), np.array([y], float), "psi0")[0][0])


def psi_terms(x, y, kind):
    """psi ("psi") or psi0 ("psi0") elementwise over paired arrays.

    Returns (terms, count of pairs where x and y both vanish): the 0/0
    terms for psi, the both-zero pairs for psi0.  |x+y| and |x|+|y| are
    formed in place; the 0/0 terms, exactly those with |x|+|y| == 0, are
    then set to 1, once a minimum of |x|+|y| has shown that there are any
    (np.fmin skips NaN, so a NaN term cannot hide them).  psi needs
    |x|+|y| finite for finite x and y; _fitted scales inputs that could
    overflow.  The caller holds np.errstate(invalid="ignore") for psi,
    whose 0/0 (and inf/inf) terms divide before they are set.
    """
    if kind == "psi":
        den = np.abs(x)
        t = np.abs(y)
        den += t
        np.add(x, y, out=t)
        np.abs(t, out=t)
        t /= den
        if np.fmin.reduce(den, initial=1.0) != 0.0:
            return t, 0
        zero = den == 0.0
        t[zero] = 1.0
        return t, int(np.count_nonzero(zero))
    t = np.sign(x)
    t *= np.sign(y)
    np.greater_equal(t, 0.0, out=t)
    return t, int(np.count_nonzero((x == 0.0) & (y == 0.0)))


def _fitted(v, growth):
    """v scaled by a power of two that keeps growth * max|v| below 2^1022;
    v itself when it is already below.

    A sum of at most growth such magnitudes, such as an increment or
    |x|+|y|, then stays finite; psi and psi0 are 0-homogeneous, so their
    terms do not change.
    """
    k = math.frexp(float(np.abs(v).max()))[1] + math.frexp(growth)[1] - 1022
    return np.ldexp(v, -k) if k > 0 else v


# Exact summation by error-free extraction (Rump, Ogita & Oishi, "Accurate
# floating-point summation, part I", SIAM J. Sci. Comput. 2008).  Terms are
# split in blocks of _BLOCK; 2^_M >= _BLOCK + 2 makes every extracted part's
# numpy sum exact in any order.  The statistics walk their pairs in the same
# blocks, so each block's increments and terms are summed while in cache.
_BLOCK = 1 << 15
_M = 16
_TINY = 2.0**-960  # smallest sigma; keeps sigma and 2^-53 sigma normal numbers


def _extract(b, q, kept):
    """Append exact partial sums of the block b to kept; their exact sum is
    sum(b).

    Works in place on b, up to _BLOCK terms that must lie in [0, 1], as
    psi and psi0 terms do; q is scratch of b's size.  With |b_i| <= 2^e and
    sigma = 2^(_M+e), starting at e = 1, the part q = (b + sigma) - sigma
    of each term is a multiple of 2^-53 sigma and at most 2^e, so the numpy
    sum of q is exact; b - q is exact and at most 2^-53 sigma, which starts
    the next level.  A remainder still left below _TINY is kept term by
    term.  math.fsum of the parts is the correctly rounded sum of b however
    the levels split it.
    """
    sigma = math.ldexp(1.0, _M + 1)
    while True:
        np.add(b, sigma, out=q)
        q -= sigma
        b -= q
        kept.append(float(q.sum()))
        if not b.any():
            return
        sigma = math.ldexp(sigma, _M - 53)
        if sigma < _TINY:
            kept.extend(b[b != 0.0].tolist())
            return


def _summary(values, coeffs, kind, window=slice(None)):
    """Mean of psi/psi0 over consecutive pairs of the filtered increments
    of values selected by window.

    The pairs are walked in blocks of _BLOCK.  Each block forms its
    increments (one more than its pairs), its terms and their exact partial
    sums while they are in cache, so the scratch memory is O(_BLOCK)
    whatever the path length.  A block holding an increment too large for
    psi forms its increments again from its values scaled by _fitted.
    """
    sel = range(values.size - len(coeffs) + 1)[window]
    q = len(coeffs) - 1
    pairs = len(sel) - 1
    kept, zero_count = [], 0
    scratch = np.empty(min(pairs, _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, pairs, _BLOCK):
            v = values[sel[j]:sel[min(j + _BLOCK, pairs)] + q + 1]
            d = filtered_increment_array(v, coeffs, sel.step)
            # d @ d is finite only if every |d_k| < 2^512, far from overflow in psi
            if not math.isfinite(d @ d):
                growth = float(np.abs(coeffs).sum())
                d = filtered_increment_array(_fitted(v, growth), coeffs, sel.step)
            terms, zeros = psi_terms(d[:-1], d[1:], kind)
            zero_count += zeros
            _extract(terms, scratch[:terms.size], kept)
    # fsum of the exact partial sums is the correctly rounded sum of all
    # terms, so the value does not depend on the blocks
    return IRSummary(value=min(math.fsum(kept) / pairs, 1.0), terms=pairs,
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
