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
from statistics import NormalDist

import numpy as np

from .errors import DomainError, InterpolationError, RangeError, SizeError
from .increments import _frozen
from .rng import derive_rng, derive_seed
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
INVERT_TOL = 1e-10  # invert_Lambda2 stops once its H bracket is this narrow


# Warm start of invert_Lambda2: the width of the bisection's last cell, the
# knots H = j/16 that start Newton, and the value from which it is skipped.
# Above Lambda_2(0.99) rho_2's denominator 8 - 2^(2H+1) cancels and the
# float Lambda_2 is not monotone on the _CELL grid.
_CELL = 2.0 ** math.floor(math.log2(INVERT_TOL))
_KNOT_H = [j / 16 for j in range(16)] + [1.0]
_KNOT_LAMBDA = [_lam(_rho_p(2, h)) for h in _KNOT_H[:-1]] + [LAMBDA2_HIGH]
_WARM_BELOW = _lam(_rho_p(2, 0.99))


def invert_Lambda2(v):
    """Unique H in (0,1) with Lambda_2(H) = v, by bisection.

    The bisection halves [0, 1] until its bracket is at most INVERT_TOL
    wide, which ends on a cell [k, k+1] * 2^-34 with
    Lambda_2(lo) < v <= Lambda_2(hi), and returns that cell's midpoint.
    For v below Lambda_2(0.99) it starts on that cell (see _last_cell), so
    it makes no halving and returns the same point: the Newton start only
    finds the cell.

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
    lo, hi = _last_cell(v) if v < _WARM_BELOW else (0.0, 1.0)
    while hi - lo > INVERT_TOL:
        mid = 0.5 * (lo + hi)
        if _lam(_rho_p(2, mid)) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _last_cell(v):
    """The bisection's last bracket (lo, hi) for v, or (0, 1) if not found.

    Two Newton steps from the knots put H within about 1e-13 of the root;
    the cell holding it is confirmed by Lambda_2(lo) < v <= Lambda_2(hi),
    moving at most twice to a neighbour.  Below _WARM_BELOW adjacent cells
    differ in Lambda_2 by at least 6.7e-12, far above its float error, so
    the confirmed cell is the one the bisection ends on.
    """
    i = bisect.bisect(_KNOT_LAMBDA, v)
    h0, h1 = _KNOT_H[i - 1], _KNOT_H[i]
    l0, l1 = _KNOT_LAMBDA[i - 1], _KNOT_LAMBDA[i]
    h = h0 + (v - l0) * (h1 - h0) / (l1 - l0)
    for _ in range(2):
        r = _rho_p(2, h)
        h -= (_lam(r) - v) * _dH_dLambda2(h, r)
    k = math.floor(h / _CELL)
    for _ in range(3):
        lo, hi = k * _CELL, (k + 1) * _CELL
        if _lam(_rho_p(2, lo)) >= v:
            k -= 1
        elif _lam(_rho_p(2, hi)) < v:
            k += 1
        else:
            return lo, hi
    return 0.0, 1.0


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
    return _dH_dLambda2(H, rho_p(2, H)) ** 2 * Sigma2


def _dH_dLambda2(H, r):
    """Reciprocal slope 1/Lambda_2'(H) given r = rho_2(H): the root of
    s2_sq's prefactor, and the Newton step of invert_Lambda2."""
    num = math.pi * (8.0 - 2.0 ** (2 * H + 1)) ** 2 * (1.0 - r) * math.sqrt(1.0 - r * r)
    den = (math.log(2.0) - math.log1p(r)) * (
        2.0 ** (2 * H + 2) * 9.0 * math.log(2.0)
        - 3.0 ** (2 * H) * 16.0 * math.log(3.0)
        + 6.0 ** (2 * H) * 4.0 * math.log(1.5)
    )
    return num / den


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


def _sigma1_exists(H):
    """Whether n*var of the first-order statistic converges at H (H < 3/4)."""
    return H < 0.75


def _check_sigma_p(p, H):
    """DomainError unless n*var of the p-order statistic has a limit at H."""
    if p not in (1, 2):
        raise DomainError(f"p must be 1 or 2, got {p}")
    if p == 1 and not _sigma1_exists(H):
        raise DomainError(f"n*var of the first-order statistic diverges for H >= 3/4 "
                          f"(got H={H}); use p=2")


def sigma_p_mc(p, H, reps=500, path_len=4096, seed=0):
    """Monte Carlo estimate of the normalized variance n*var(R^{p,n}).

    Simulates `reps` fractional Brownian paths of grid size `path_len`,
    computes the p-order ratio statistic on each, and returns
    (path_len * sample variance, its MC stderr).  Converges to the
    asymptotic variance up to O(1/path_len) bias.  p=1 requires H < 3/4:
    the first-increment sequence has long memory beyond that point and
    the variance series diverges.
    """
    _check_H(H)
    _check_sigma_p(p, H)
    return _sigma_cell(H, (p,), reps, path_len, seed)[0]


def _sigma_cell(H, orders, reps, path_len, seed):
    """(path_len * var, its stderr) of the p-order statistic for each p in
    `orders`, all read off one set of `reps` fBm paths.  Path i comes from
    the stream (seed, "stat_mc", orders[0], i)."""
    from .simulators import FbmSampler  # local import: avoid a module cycle

    if reps < 100:
        raise SizeError(f"need at least 100 replications, got {reps}")
    sampler = FbmSampler(path_len, H)
    vals = np.empty((len(orders), reps))
    for i in range(reps):
        path = sampler.sample_path(derive_rng(seed, "stat_mc", orders[0], i))
        for k, p in enumerate(orders):
            vals[k, i] = r_pn(path, p).value
    return [tuple(path_len * x for x in _var_stderr(v)) for v in vals]


# ----------------------------------------------------------------------
# Variance table + Hurst estimator
# ----------------------------------------------------------------------

H_GRID_DEFAULT = np.round(np.arange(0.05, 0.9501, 0.05), 10)


def _grid(values, default, name):
    """A table's grid (default if values is None): 1-D, strictly increasing, >= 2 points."""
    grid = default if values is None else np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise DomainError(f"{name} grid must hold at least 2 strictly increasing "
                          f"points, got {grid.tolist()}")
    return grid


@dataclass(frozen=True)
class VarianceTable:
    """Monte Carlo table of the asymptotic variances on an H grid.

    sigma1 covers only the H < 3/4 part of the grid (NaN elsewhere);
    sigma2 covers all of it.  Each curve is read linearly in H between its
    known grid points (np.interp, so a grid H reads its stored entry), and
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
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        _grid(self.h_grid, None, "H")
        if (self.sigma1 < 0).any() or (self.sigma2 < 0).any():
            raise DomainError("variance entries must be nonnegative")
        curves = {}  # p -> (H, Sigma_p) at its known entries
        for p, vals in ((1, self.sigma1), (2, self.sigma2)):
            known = ~np.isnan(vals)
            if known.sum() >= 2:
                curves[p] = (_frozen(self.h_grid[known]), _frozen(vals[known]))
        object.__setattr__(self, "_curves", curves)

    def sigma(self, p, H):
        """Sigma_p at H, linear between the known grid points; no extrapolation."""
        _check_sigma_p(p, H)
        curve = self._curves.get(p)
        if curve is None:
            raise InterpolationError(f"the table has fewer than 2 grid points for p={p}; "
                                     "need 2 to interpolate")
        grid, vals = curve
        low, high = float(grid[0]), float(grid[-1])
        if not low <= H <= high:
            raise InterpolationError(f"H={H:.4f} outside the tabulated grid [{low}, {high}] "
                                     f"for p={p}", low=low, high=high)
        return float(np.interp(H, grid, vals))


def build_variance_table(reps=2000, path_len=4096, seed=20240601,
                         h_grid=None, progress=None):
    """Build the Sigma_p Monte Carlo table over the H grid (step 0.05).

    Every H gets its own derived seed, so the table is reproducible and
    independent of build order.  Both orders read the one set of paths
    drawn at an H, so the i-th Sigma_2 entry is
    sigma_p_mc(2, H, reps, path_len, derive_seed(seed, 2, i)) to the bit.
    """
    grid = _grid(h_grid, H_GRID_DEFAULT, "H")
    s1 = np.full(grid.size, np.nan)
    s1e = np.full(grid.size, np.nan)
    s2 = np.empty(grid.size)
    s2e = np.empty(grid.size)
    for i, H in enumerate(grid):
        _check_H(H)
        orders = (2, 1) if _sigma1_exists(H) else (2,)
        cells = _sigma_cell(H, orders, reps, path_len, derive_seed(seed, 2, i))
        s2[i], s2e[i] = cells[0]
        if len(cells) == 2:
            s1[i], s1e[i] = cells[1]
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
                         ci_high=h_hat + z * se, statistic=stat, confidence=conf)
