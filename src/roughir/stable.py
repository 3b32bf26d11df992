"""Symmetric alpha-stable sampling and the fractional-index estimator.

The disjoint-pair ratio statistic of an independent-increment path
converges to lam_tilde(alpha) = E psi(Z1, Z2) for independent symmetric
alpha-stable Z1, Z2 (characteristic function e^-|theta|^alpha).  No
closed form exists, so lam_tilde and its asymptotic variance

    sigma_tilde^2(alpha) = 2 var(psi(Z1,Z2)) + 4 cov(psi(Z1,Z2), psi(Z2,Z3))

are tabulated by Monte Carlo on an alpha grid with common random numbers,
monotone-smoothed, and inverted to estimate alpha.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, RangeError, SizeError
from .gaussian import _normal_quantile, _pchip
from .rng import derive_rng
from .statistics import IRSummary, psi_terms, r_tilde_2n

ALPHA_GRID_DEFAULT = np.round(np.arange(0.05, 2.0001, 0.05), 10)


def sym_stable_from_uniform_exp(alpha, u, w):
    """Chambers-Mallows-Stuck transform of Unif(-pi/2,pi/2) x Exp(1) draws.

    Deterministic in (u, w), which lets table builds reuse one set of
    uniforms across every alpha (common random numbers).
    """
    try:
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise DomainError(f"stable index must be a real scalar, got {alpha!r}") from None
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"stable index must lie in (0,2], got {alpha}")
    if alpha == 1.0:
        return np.tan(u)
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


def sample_sym_stable(alpha, rng, size=None):
    """Draws with characteristic function e^-|theta|^alpha (Gaussian with
    variance 2 at alpha=2, standard Cauchy at alpha=1)."""
    scalar = size is None
    m = 1 if scalar else size
    u = rng.uniform(-math.pi / 2, math.pi / 2, m)
    w = rng.exponential(1.0, m)
    z = sym_stable_from_uniform_exp(alpha, u, w)
    return float(z[0]) if scalar else z


def _check_reps(reps):
    """The 40-batch stderr of _psi_moments needs at least 1e4 replications."""
    if reps < 10_000:
        raise SizeError(f"need at least 1e4 replications, got {reps}")


def _psi_moments(z):
    """Monte Carlo moments of A = psi(Z1,Z2), B = psi(Z2,Z3) from an
    (reps, 3) stable draw: (mean of A, its stderr, 2 var(A) + 4 cov(A, B),
    the stderr of that from 40 batch means).
    """
    A, _ = psi_terms(z[:, 0], z[:, 1], "psi")
    B, _ = psi_terms(z[:, 1], z[:, 2], "psi")
    reps, batches = A.size, 40
    sig = 2.0 * A.var(ddof=1) + 4.0 * float(np.cov(A, B)[0, 1])
    bs = reps // batches
    per = np.empty(batches)
    for k in range(batches):
        Ab, Bb = A[k * bs:(k + 1) * bs], B[k * bs:(k + 1) * bs]
        per[k] = 2.0 * Ab.var(ddof=1) + 4.0 * float(np.cov(Ab, Bb)[0, 1])
    return (A.mean(), A.std(ddof=1) / math.sqrt(reps), sig,
            per.std(ddof=1) / math.sqrt(batches))


def _pava_decreasing(y):
    """Pool-adjacent-violators projection onto nonincreasing sequences."""
    vals, wts, runs = [], [], []
    for v in y:
        v, w_, c = float(v), 1.0, 1
        while vals and vals[-1] < v:
            v = (vals[-1] * wts[-1] + v * w_) / (wts[-1] + w_)
            w_ += wts[-1]
            c += runs[-1]
            vals.pop(); wts.pop(); runs.pop()
        vals.append(v); wts.append(w_); runs.append(c)
    out = np.empty(len(y))
    pos = 0
    for v, c in zip(vals, runs):
        out[pos:pos + c] = v
        pos += c
    return out


@dataclass(frozen=True)
class LambdaTildeTable:
    """Tabulated limit curve and variance for the stable-index estimator.

    lam holds the monotone-smoothed curve used for inversion; lam_raw the
    unsmoothed Monte Carlo means.  dlam is the derivative of the smoothed
    curve (centered differences, one-sided at the ends).
    """

    alpha_grid: np.ndarray
    lam: np.ndarray
    lam_stderr: np.ndarray
    sigma_sq: np.ndarray
    sigma_sq_stderr: np.ndarray
    dlam: np.ndarray
    reps: int
    seed: int
    lam_raw: np.ndarray | None = None
    monotone_violations: int = 0

    def __post_init__(self):
        for name in ("alpha_grid", "lam", "lam_stderr", "sigma_sq",
                     "sigma_sq_stderr", "dlam"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.lam.min() < 0.5 - 3.0 * self.lam_stderr.max() or self.lam.max() > 1.0:
            raise DomainError("limit-curve entries must lie in [1/2, 1]")

    @cached_property
    def _inverse(self):
        """PCHIP of alpha against the strictly decreasing part of the curve
        (flat PAVA segments keep their last point), built once per table;
        None when fewer than two points remain."""
        keep = np.concatenate([self.lam[:-1] > self.lam[1:], [True]])
        if keep.sum() < 2:
            return None
        return _pchip(self.lam[keep][::-1], self.alpha_grid[keep][::-1])

    def interp(self, column, alpha):
        vals = getattr(self, column)
        if not self.alpha_grid[0] <= alpha <= self.alpha_grid[-1]:
            raise RangeError(
                f"alpha={alpha} outside the tabulated grid "
                f"[{self.alpha_grid[0]}, {self.alpha_grid[-1]}]",
                low=float(self.alpha_grid[0]), high=float(self.alpha_grid[-1]),
            )
        return float(np.interp(alpha, self.alpha_grid, vals))


def build_stable_table(reps=1_000_000, seed=20240602, alpha_grid=None, progress=None):
    """Monte Carlo table of lam_tilde / sigma_tilde^2 on an alpha grid.

    One set of Unif x Exp draws is shared across the whole grid (common
    random numbers), which makes the raw curve essentially monotone
    before the isotonic projection.
    """
    _check_reps(reps)
    grid = ALPHA_GRID_DEFAULT if alpha_grid is None else np.asarray(alpha_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise DomainError(f"alpha grid must hold at least 2 strictly increasing points, "
                          f"got {grid.tolist()}")
    rng = derive_rng(seed, "stable_table")
    u = rng.uniform(-math.pi / 2, math.pi / 2, (reps, 3))
    w = rng.exponential(1.0, (reps, 3))
    lam_raw = np.empty(grid.size)
    lam_se = np.empty(grid.size)
    sig = np.empty(grid.size)
    sig_se = np.empty(grid.size)
    for i, aa in enumerate(grid):
        z = sym_stable_from_uniform_exp(float(aa), u, w)
        lam_raw[i], lam_se[i], s, sig_se[i] = _psi_moments(z)
        sig[i] = max(s, 0.0)
        if progress is not None:
            progress(i + 1, grid.size)
    violations = int(np.sum(np.diff(lam_raw) > 0))
    if violations:
        warnings.warn(f"{violations} non-monotone steps in the raw limit curve "
                      "(within MC noise); smoothing enforces monotonicity")
    lam_s = _pava_decreasing(lam_raw)
    dlam = np.gradient(lam_s, grid)
    return LambdaTildeTable(grid, lam_s, lam_se, sig, sig_se, dlam,
                            reps=reps, seed=seed, lam_raw=lam_raw,
                            monotone_violations=violations)


def invert_lambda_tilde(v, table):
    """alpha with smoothed lam_tilde(alpha) = v, by monotone interpolation.

    Raises RangeError carrying the nearest attainable boundary when v is
    outside the table's range.
    """
    v = float(v)
    lo, hi = float(table.lam[-1]), float(table.lam[0])  # decreasing curve
    if not lo <= v <= hi:
        raise RangeError(
            f"statistic value {v:.6f} outside the tabulated range [{lo:.6f}, {hi:.6f}]",
            low=lo, high=hi,
        )
    inv = table._inverse
    if inv is None:
        raise RangeError("limit curve is flat; cannot invert", low=lo, high=hi)
    return inv(v)


@dataclass(frozen=True)
class AlphaEstimate:
    """Point estimate of the stable index with a normal-theory interval.

    clamped marks estimates pushed back to the grid boundary when the
    observed statistic inverted outside (0, 2]."""

    alpha_hat: float
    stderr: float
    ci_low: float
    ci_high: float
    statistic: IRSummary
    n: int
    confidence: float
    clamped: bool = False


def estimate_alpha(path, table, conf=0.95):
    """Stable-index estimate from the disjoint-pair ratio statistic.

    alpha_hat inverts the smoothed Monte Carlo curve on r_tilde_2n; the
    standard error is sqrt(sigma_tilde^2 / dlam^2) / sqrt(n) (Delta
    method on the tabulated derivative).  Out-of-range statistics clamp
    to the nearest boundary instead of failing: sampling noise routinely
    crosses the alpha = 2 edge.
    """
    z = _normal_quantile(path, conf)
    stat = r_tilde_2n(path)
    clamped = False
    try:
        a_hat = invert_lambda_tilde(stat.value, table)
    except RangeError:
        clamped = True
        a_hat = float(table.alpha_grid[-1]) if stat.value <= table.lam[-1] \
            else float(table.alpha_grid[0])
    dl = table.interp("dlam", a_hat)
    sig = max(table.interp("sigma_sq", a_hat), 0.0)
    se = math.sqrt(sig) / abs(dl) / math.sqrt(path.n)
    return AlphaEstimate(alpha_hat=a_hat, stderr=se, ci_low=a_hat - z * se,
                         ci_high=a_hat + z * se, statistic=stat, n=path.n,
                         confidence=conf, clamped=clamped)
