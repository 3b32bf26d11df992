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

import numpy as np

from .errors import DomainError, RangeError, SizeError
from .gaussian import _grid, _normal_quantile
from .increments import _frozen
from .rng import derive_rng
from .statistics import IRSummary, psi_terms, r_tilde_2n

ALPHA_GRID_DEFAULT = np.round(np.arange(0.05, 2.0001, 0.05), 10)


def sym_stable_from_uniform_exp(alpha, u, w):
    """Chambers-Mallows-Stuck transform of Unif(-pi/2,pi/2) x Exp(1) draws.

    Deterministic in (u, w), which lets table builds reuse one set of
    uniforms across every alpha (common random numbers).  The result has
    the broadcast shape of u and w; neither is written to.
    """
    try:
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise DomainError(f"stable index must be a real scalar, got {alpha!r}") from None
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"stable index must lie in (0,2], got {alpha}")
    u, w = np.asarray(u, float), np.asarray(w, float)
    shape = np.broadcast_shapes(u.shape, w.shape)
    out, tmp = np.empty(shape), np.empty(shape)
    return _cms(alpha, u, w, None if alpha == 1.0 else np.cos(u), out, tmp)


def _cms(alpha, u, w, cos_u, out, tmp):
    """The CMS transform written into out, given cos_u = cos(u) and a
    scratch buffer tmp of out's shape.

    The same ufuncs in the same order as the one expression
    sin(a u) / cos(u)^(1/a) * (cos((1-a) u) / w)^((1-a)/a), so the same
    bits; the powers use the ** operator, whose scalar-exponent fast paths
    (sqrt, square, ...) np.power does not take.
    """
    if alpha == 1.0:
        return np.tan(u, out=out)
    np.sin(np.multiply(alpha, u, out=out), out=out)
    np.copyto(tmp, cos_u)
    tmp **= 1.0 / alpha
    out /= tmp
    np.cos(np.multiply(1.0 - alpha, u, out=tmp), out=tmp)
    tmp /= w
    tmp **= (1.0 - alpha) / alpha
    out *= tmp
    return out


def sample_sym_stable(alpha, rng, size=None):
    """Draws with characteristic function e^-|theta|^alpha (Gaussian with
    variance 2 at alpha=2, standard Cauchy at alpha=1)."""
    scalar = size is None
    m = 1 if scalar else size
    u = rng.uniform(-math.pi / 2, math.pi / 2, m)
    w = rng.exponential(1.0, m)
    z = sym_stable_from_uniform_exp(alpha, u, w)
    return float(z[0]) if scalar else z


def _sigma_sq(A, B):
    """2 var(A) + 4 cov(A, B): the sigma_tilde^2 estimate of one sample."""
    return 2.0 * A.var(ddof=1) + 4.0 * float(np.cov(A, B)[0, 1])


def _psi_moments(z):
    """Monte Carlo moments of A = psi(Z1,Z2), B = psi(Z2,Z3) from an
    (reps, 3) stable draw: (mean of A, its stderr, _sigma_sq(A, B), the
    stderr of that from 40 batch estimates).
    """
    A, _ = psi_terms(z[:, 0], z[:, 1], "psi")
    B, _ = psi_terms(z[:, 1], z[:, 2], "psi")
    reps, batches = A.size, 40
    bs = reps // batches
    per = np.array([_sigma_sq(A[k * bs:(k + 1) * bs], B[k * bs:(k + 1) * bs])
                    for k in range(batches)])
    return (A.mean(), A.std(ddof=1) / math.sqrt(reps), _sigma_sq(A, B),
            per.std(ddof=1) / math.sqrt(batches))


def _pava_decreasing(y):
    """Pool-adjacent-violators projection onto nonincreasing sequences."""
    blocks = []  # (mean, length); a block's weight is its length
    for v in y:
        v, c = float(v), 1
        while blocks and blocks[-1][0] < v:
            m, k = blocks.pop()
            v, c = (m * k + v * c) / (k + c), c + k
        blocks.append((v, c))
    means, lengths = zip(*blocks)
    return np.repeat(means, lengths)


@dataclass(frozen=True)
class LambdaTildeTable:
    """Tabulated limit curve and variance for the stable-index estimator.

    lam holds the monotone-smoothed curve used for inversion; lam_raw the
    unsmoothed Monte Carlo means.  Construction derives dlam, the smoothed
    curve's slope (np.gradient), and the inverse, which reads alpha linearly
    between the grid points.  A curve that rises anywhere, a slope not below
    0 and a negative sigma_sq are refused.
    """

    alpha_grid: np.ndarray
    lam: np.ndarray
    lam_stderr: np.ndarray
    sigma_sq: np.ndarray
    sigma_sq_stderr: np.ndarray
    reps: int
    seed: int
    lam_raw: np.ndarray | None = None
    monotone_violations: int = 0

    def __post_init__(self):
        for name in ("alpha_grid", "lam", "lam_stderr", "sigma_sq", "sigma_sq_stderr"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        _grid(self.alpha_grid, None, "alpha")
        if self.lam.min() < 0.5 - 3.0 * self.lam_stderr.max() or self.lam.max() > 1.0:
            raise DomainError("limit-curve entries must lie in [1/2, 1]")
        if (self.sigma_sq < 0).any():
            raise DomainError("variance entries must be nonnegative")
        rises = np.diff(self.lam) > 0
        if rises.any():
            raise DomainError(f"the limit curve rises at alpha="
                              f"{self.alpha_grid[rises.argmax() + 1]:g}; it must be nonincreasing")
        dlam = _frozen(np.gradient(self.lam, self.alpha_grid))
        not_falling = ~(dlam < 0)
        if not_falling.any():
            raise DomainError(f"the limit curve's slope is not below 0 at "
                              f"alpha={self.alpha_grid[not_falling.argmax()]:g}")
        object.__setattr__(self, "dlam", dlam)
        # the inverse's knots: the strictly falling part of the curve, reversed to
        # rise (a flat PAVA segment keeps its last point; a slope below 0 leaves >= 2)
        keep = np.concatenate([self.lam[:-1] > self.lam[1:], [True]])
        object.__setattr__(self, "_lam_kept", _frozen(self.lam[keep][::-1]))
        object.__setattr__(self, "_alpha_kept", _frozen(self.alpha_grid[keep][::-1]))

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
    if reps < 10_000:  # the 40-batch stderr of _psi_moments
        raise SizeError(f"need at least 1e4 replications, got {reps}")
    grid = _grid(alpha_grid, ALPHA_GRID_DEFAULT, "alpha")
    rng = derive_rng(seed, "stable_table")
    u = rng.uniform(-math.pi / 2, math.pi / 2, (reps, 3))
    w = rng.exponential(1.0, (reps, 3))
    cos_u, z, tmp = np.cos(u), np.empty_like(u), np.empty_like(u)  # shared by every alpha
    lam_raw = np.empty(grid.size)
    lam_se = np.empty(grid.size)
    sig = np.empty(grid.size)
    sig_se = np.empty(grid.size)
    for i, aa in enumerate(grid):
        lam_raw[i], lam_se[i], s, sig_se[i] = _psi_moments(_cms(float(aa), u, w, cos_u, z, tmp))
        sig[i] = max(s, 0.0)
        if progress is not None:
            progress(i + 1, grid.size)
    violations = int(np.sum(np.diff(lam_raw) > 0))
    if violations:
        warnings.warn(f"{violations} non-monotone steps in the raw limit curve "
                      "(within MC noise); smoothing enforces monotonicity")
    return LambdaTildeTable(grid, _pava_decreasing(lam_raw), lam_se, sig, sig_se,
                            reps=reps, seed=seed, lam_raw=lam_raw,
                            monotone_violations=violations)


def invert_lambda_tilde(v, table):
    """alpha with smoothed lam_tilde(alpha) = v, linear between the grid
    points (np.interp, so a grid point's lam_tilde reads its alpha).

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
    return float(np.interp(v, table._lam_kept, table._alpha_kept))


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
    confidence: float
    clamped: bool = False


def estimate_alpha(path, table, conf=0.95):
    """Stable-index estimate from the disjoint-pair ratio statistic.

    alpha_hat inverts the smoothed Monte Carlo curve on r_tilde_2n; the
    standard error is sqrt(sigma_tilde^2 / dlam^2) / sqrt(n) (Delta
    method on the curve's slope, which every table keeps below 0).
    Out-of-range statistics clamp to the nearest boundary instead of
    failing: sampling noise routinely crosses the alpha = 2 edge.
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
    sig = table.interp("sigma_sq", a_hat)
    se = math.sqrt(sig) / abs(dl) / math.sqrt(path.n)
    return AlphaEstimate(alpha_hat=a_hat, stderr=se, ci_low=a_hat - z * se,
                         ci_high=a_hat + z * se, statistic=stat, confidence=conf, clamped=clamped)
