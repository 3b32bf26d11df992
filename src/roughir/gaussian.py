"""Closed-form Gaussian limits of the increment-ratio statistics and the
Hurst estimator built on them.

For a correlated standard normal pair with correlation r,

    lam(r) = E |U1+U2| / (|U1|+|U2|)
           = arccos(-r)/pi + sqrt((1+r)/(1-r)) * log(2/(1+r)) / pi,

and the second-order statistic of a Hurst-H fractional Brownian path
converges to Lambda_p(H) = lam(rho_p(H)), where rho_p(H) is the lag-1
correlation of its unit-grid p-order increments.  Inverting Lambda_2 on
the observed statistic gives the Hurst estimate; the asymptotic variance
combines the closed-form chain-rule prefactor with a Monte Carlo table of
the statistic's variance.
"""

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .errors import DomainError, InterpolationError, RangeError, SizeError
from .rng import derive_rng
from .statistics import IRSummary, r_pn

# rho_2 has a removable 0/0 at H=1; its one-sided limits (L'Hopital at 1):
RHO2_AT_0 = -2.0 / 3.0
RHO2_AT_1 = (18.0 * math.log(3) - 32.0 * math.log(2)) / (16.0 * math.log(2))


def _correlation(r):
    """r as a float, checked to be a real scalar in [-1, 1]."""
    try:
        r = float(r)
    except (TypeError, ValueError):
        raise DomainError(f"correlation must be a real scalar, got {r!r}") from None
    if not -1.0 <= r <= 1.0:
        raise DomainError(f"correlation must lie in [-1,1], got {r}")
    return r


def lam(r):
    """Limit ratio E psi(U1,U2) for standard normals with correlation r.

    Strictly increasing on [-1,1]; the endpoint values 0 and 1 are the
    analytic limits (the formula is 0*inf there).
    """
    return _lam(_correlation(r))


def _lam(r):
    """lam without the check on r (the inversion's bisection stays in (-1,1))."""
    if r == 1.0:
        return 1.0
    if r == -1.0:
        return 0.0
    return (math.acos(-r) + math.sqrt((1.0 + r) / (1.0 - r)) * math.log(2.0 / (1.0 + r))) / math.pi


def lam0(r):
    """Sign-persistence limit arccos(-r)/pi (zero-crossing statistics)."""
    return math.acos(-_correlation(r)) / math.pi


def _check_H(H):
    if np.ndim(H) != 0:
        raise DomainError(f"Hurst exponent must be a scalar, got {H!r}")
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst exponent must lie in (0,1), got {H}")


def rho_p(p, H):
    """Lag-1 correlation of unit-grid p-order fBm increments, p in {1,2}.

    rho_1(H) = 2^(2H-1) - 1
    rho_2(H) = (-3^(2H) + 2^(2H+2) - 7) / (8 - 2^(2H+1))
    """
    _check_H(H)
    return _rho_p(p, H)


def _rho_p(p, H):
    """rho_p without the check on H (the inversion's bisection stays in (0,1))."""
    if p == 1:
        return 2.0 ** (2 * H - 1) - 1.0
    if p == 2:
        return (-(3.0 ** (2 * H)) + 2.0 ** (2 * H + 2) - 7.0) / (8.0 - 2.0 ** (2 * H + 1))
    raise DomainError(f"closed-form correlation only for p in {{1,2}}, got p={p}")


def Lambda_p(p, H):
    """Roughness limit lam(rho_p(H)); monotone increasing in H for p=1,2."""
    return lam(rho_p(p, H))


# open range attained by Lambda_2 on H in (0,1)
LAMBDA2_LOW = lam(RHO2_AT_0)
LAMBDA2_HIGH = lam(RHO2_AT_1)


def invert_Lambda2(v, tol=1e-10):
    """Unique H in (0,1) with Lambda_2(H) = v, by bisection.

    Raises RangeError (carrying the attainable interval) when v is not
    strictly inside (Lambda_2(0+), Lambda_2(1-)).
    """
    v = float(v)
    if not LAMBDA2_LOW < v < LAMBDA2_HIGH:
        raise RangeError(
            f"statistic value {v:.6f} outside the attainable range "
            f"({LAMBDA2_LOW:.6f}, {LAMBDA2_HIGH:.6f}) of the second-order limit",
            low=LAMBDA2_LOW, high=LAMBDA2_HIGH,
        )
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _lam(_rho_p(2, mid)) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fbm_increment_cov(p, H, j):
    """Covariance of unit-grid p-order fBm increments at integer lag j.

    p=1: (|j+1|^2H + |j-1|^2H - 2|j|^2H) / 2   (the fGn autocovariance)
    p=2: (-|j+2|^2H + 4|j+1|^2H - 6|j|^2H + 4|j-1|^2H - |j-2|^2H) / 2

    j may be a scalar (a float is returned) or an array of lags (an array
    of the same shape is returned).
    """
    _check_H(H)
    # [()] turns a 0-d array into a numpy scalar, whose scalar pow matches
    # Python floats bit for bit (the array pow loop may differ in the last bit)
    j = np.abs(np.asarray(j, dtype=float))[()]
    h2 = 2.0 * H
    if p == 1:
        return 0.5 * ((j + 1) ** h2 + np.abs(j - 1) ** h2 - 2 * j**h2)
    if p == 2:
        return 0.5 * (-((j + 2) ** h2) + 4 * (j + 1) ** h2 - 6 * j**h2
                      + 4 * np.abs(j - 1) ** h2 - np.abs(j - 2) ** h2)
    raise DomainError(f"closed-form covariance only for p in {{1,2}}, got p={p}")


def s2_sq(H, Sigma2):
    """Delta-method variance of the inverted estimator.

    The prefactor is the squared reciprocal slope of Lambda_2 written out
    in terms of rho_2(H):

        ( pi (8-2^(2H+1))^2 (1-rho) sqrt(1-rho^2)
          / [ (log 2 - log(1+rho))
              * (9*2^(2H+2) log 2 - 16*3^(2H) log 3 + 4*6^(2H) log(3/2)) ] )^2
    """
    _check_H(H)
    if Sigma2 < 0:
        raise DomainError(f"asymptotic variance must be >= 0, got {Sigma2}")
    r = rho_p(2, H)
    num = math.pi * (8.0 - 2.0 ** (2 * H + 1)) ** 2 * (1.0 - r) * math.sqrt(1.0 - r * r)
    den = (math.log(2.0) - math.log1p(r)) * (
        2.0 ** (2 * H + 2) * 9.0 * math.log(2.0)
        - 3.0 ** (2 * H) * 16.0 * math.log(3.0)
        + 6.0 ** (2 * H) * 4.0 * math.log(1.5)
    )
    return (num / den) ** 2 * Sigma2


# ----------------------------------------------------------------------
# Monte Carlo asymptotic variance of the statistic itself
# ----------------------------------------------------------------------

def _var_stderr(x):
    """Sample variance of x and the stderr of that variance estimate."""
    n = x.size
    v = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    var_of_var = (m4 - (n - 3) / (n - 1) * v * v) / n
    return float(v), float(math.sqrt(max(var_of_var, 0.0)))


def sigma_p_mc(p, H, reps=500, path_len=4096, seed=0):
    """Monte Carlo estimate of the normalized variance n*var(R^{p,n}).

    Simulates `reps` fractional Brownian paths of grid size `path_len`,
    computes the p-order ratio statistic on each, and returns
    (path_len * sample variance, its MC stderr).  Converges to the
    asymptotic variance up to O(1/path_len) bias.  p=1 requires H < 3/4:
    the first-increment sequence has long memory beyond that point and
    the variance series diverges.
    """
    from .simulate import FbmSampler  # local import: avoid a module cycle

    if p not in (1, 2):
        raise DomainError(f"p must be 1 or 2, got {p}")
    _check_H(H)
    if p == 1 and H >= 0.75:
        raise DomainError(
            f"n*var of the first-order statistic diverges for H >= 3/4 (got H={H}); use p=2"
        )
    if reps < 100:
        raise SizeError(f"need at least 100 replications, got {reps}")
    sampler = FbmSampler(path_len, H)
    vals = np.empty(reps)
    for i in range(reps):
        rng = derive_rng(seed, "stat_mc", p, i)
        vals[i] = r_pn(sampler.sample_path(rng), p).value
    v, se = _var_stderr(vals)
    return path_len * v, path_len * se


# ----------------------------------------------------------------------
# Monotone cubic interpolation
# ----------------------------------------------------------------------

def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, shape-preserving (Moler's pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """Monotone cubic (PCHIP) interpolant through (x, y), x strictly increasing
    with at least 2 points, as an evaluator of one scalar in [x[0], x[-1]].

    It repeats scipy's PchipInterpolator operation for operation (Fritsch-
    Butland slopes, one-sided end slopes, PPoly's evaluation order), so it
    returns the same doubles without importing scipy.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])], inner,
                            [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    coeffs = np.column_stack([y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h]).tolist()
    knots = x.tolist()
    last = len(knots) - 2

    def at(v):
        i = min(bisect.bisect_right(knots, v) - 1, last)
        c0, c1, c2, c3 = coeffs[i]
        s = float(v) - knots[i]
        # the leading 0.0 is PPoly's accumulator: it turns a knot's -0.0 into 0.0
        return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    return at


# ----------------------------------------------------------------------
# Variance table + Hurst estimator
# ----------------------------------------------------------------------

H_GRID_DEFAULT = np.round(np.arange(0.05, 0.9501, 0.05), 10)


@dataclass(frozen=True)
class VarianceTable:
    """Monte Carlo table of the asymptotic variances on an H grid.

    sigma1 covers only the H < 3/4 part of the grid (NaN elsewhere);
    sigma2 covers all of it.  Interpolation is monotone cubic in H and
    extrapolation is refused.
    """

    h_grid: np.ndarray
    sigma1: np.ndarray
    sigma1_stderr: np.ndarray
    sigma2: np.ndarray
    sigma2_stderr: np.ndarray
    reps: int
    path_len: int
    seed: int

    def __post_init__(self):
        for name in ("h_grid", "sigma1", "sigma1_stderr", "sigma2", "sigma2_stderr"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if (self.sigma1 < 0).any() or (self.sigma2 < 0).any():
            raise DomainError("variance entries must be nonnegative")

    @cached_property
    def _curves(self):
        """p -> (H grid, PCHIP of Sigma_p on it), each built on first use."""
        return {}

    def sigma(self, p, H):
        """Monotone-cubic interpolated Sigma_p at H; no extrapolation."""
        if p not in (1, 2):
            raise DomainError(f"p must be 1 or 2, got {p}")
        if p not in self._curves:
            vals = self.sigma1 if p == 1 else self.sigma2
            known = ~np.isnan(vals)
            if known.sum() < 2:
                raise InterpolationError(
                    f"the table has {known.sum()} grid point(s) for p={p}; need 2 to interpolate")
            self._curves[p] = (self.h_grid[known], _pchip(self.h_grid[known], vals[known]))
        grid, interp = self._curves[p]
        if not grid[0] <= H <= grid[-1]:
            raise InterpolationError(
                f"H={H:.4f} outside the tabulated grid [{grid[0]}, {grid[-1]}] for p={p}"
            )
        return interp(H)

    def entry(self, p, H):
        """Exact grid entry (sigma, stderr) at H; H must be a grid point."""
        i = int(np.argmin(np.abs(self.h_grid - H)))
        if abs(self.h_grid[i] - H) > 1e-9:
            raise InterpolationError(f"H={H} is not a grid point of the table")
        if p == 1:
            return float(self.sigma1[i]), float(self.sigma1_stderr[i])
        if p == 2:
            return float(self.sigma2[i]), float(self.sigma2_stderr[i])
        raise DomainError(f"p must be 1 or 2, got {p}")


def build_variance_table(reps=2000, path_len=4096, seed=20240601,
                         h_grid=None, progress=None):
    """Build the Sigma_p Monte Carlo table over the H grid (step 0.05).

    Every (p, H) cell gets its own derived seed, so the table is
    reproducible and independent of build order.
    """
    grid = H_GRID_DEFAULT if h_grid is None else np.asarray(h_grid, dtype=float)
    s1 = np.full(grid.size, np.nan)
    s1e = np.full(grid.size, np.nan)
    s2 = np.empty(grid.size)
    s2e = np.empty(grid.size)
    for i, H in enumerate(grid):
        cell_seed_2 = int(np.random.SeedSequence([seed, 2, i]).generate_state(1)[0])
        s2[i], s2e[i] = sigma_p_mc(2, float(H), reps, path_len, cell_seed_2)
        if H < 0.75 - 1e-9:
            cell_seed_1 = int(np.random.SeedSequence([seed, 1, i]).generate_state(1)[0])
            s1[i], s1e[i] = sigma_p_mc(1, float(H), reps, path_len, cell_seed_1)
        if progress is not None:
            progress(i + 1, grid.size)
    return VarianceTable(grid, s1, s1e, s2, s2e, reps=reps, path_len=path_len, seed=seed)


def _normal_quantile(path, conf):
    """Two-sided standard normal quantile of a conf-level interval around an
    estimate from path, after the checks both estimators share."""
    if path.n < 16:
        raise SizeError(f"need n >= 16 for estimation, got n={path.n}")
    if not 0.0 < conf < 1.0:
        raise DomainError(f"confidence must lie in (0,1), got {conf}")
    return NormalDist().inv_cdf(0.5 * (1.0 + conf))


@dataclass(frozen=True)
class HurstEstimate:
    """Point estimate of the Hurst exponent with a normal-theory interval."""

    h_hat: float
    stderr: float
    ci_low: float
    ci_high: float
    statistic: IRSummary
    n: int
    confidence: float


def estimate_H(path, variance_table, conf=0.95):
    """Hurst estimate from the second-order ratio statistic of one path.

    h_hat inverts the closed-form limit on the observed statistic; the
    standard error is sqrt(s2_sq(h_hat, Sigma_2(h_hat))) / sqrt(n) with
    Sigma_2 interpolated from the table, and the interval uses normal
    quantiles at the requested confidence.
    """
    z = _normal_quantile(path, conf)
    stat = r_pn(path, 2)
    h_hat = invert_Lambda2(stat.value)  # RangeError propagates with bounds
    sigma2 = variance_table.sigma(2, h_hat)
    se = math.sqrt(s2_sq(h_hat, sigma2)) / math.sqrt(path.n)
    return HurstEstimate(h_hat=h_hat, stderr=se, ci_low=h_hat - z * se,
                         ci_high=h_hat + z * se, statistic=stat, n=path.n,
                         confidence=conf)
