"""Seeded simulators for the process families the statistics apply to:
fractional Brownian motion (exact, circulant embedding), multifractional
Brownian motion (dense covariance factorization), multiscale fBm
(spectral synthesis), Ito diffusions (Euler-Maruyama), symmetric stable
and compound-Poisson Levy paths, plus smooth trend injection.

All simulators return paths on the grid j/n with X_0 = 0 and are
deterministic functions of their seed.
"""

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, FactorizationError, ResolutionError,
                     SimulationError, SizeError)
from .gaussian import _check_H, fbm_increment_cov
from .increments import SampledPath
from .rng import derive_rng
from .stable import sample_sym_stable

MBM_DEFAULT_MAX_N = 8192  # dense factorization is O(n^3); cap unless overridden
_MBM_COV_BLOCK = 512  # rows per block in mbm_covariance
_EULER_CHUNK = 4096  # fine Euler steps drawn per replication at a time
MAX_EXPECTED_JUMPS = 2**24  # per path and jump kind: a draw's peak memory stays near 0.5 GB


# ----------------------------------------------------------------------
# fractional Brownian motion
# ----------------------------------------------------------------------

def _path_from_increments(inc):
    """Path on j/n with X_0 = 0 whose increments are inc."""
    out = np.empty(inc.size + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return SampledPath(out)


@functools.lru_cache(maxsize=16)
def _fgn_amplitudes(n, H):
    """Amplitudes of the n+1 Fourier modes of a fGn draw: the square roots
    of the eigenvalues of the 2n circulant embedding of the fGn covariance,
    halved for the complex modes 1..n-1.  FactorizationError when any
    eigenvalue is materially negative (for H in [0.001, 0.999] only at
    n >= 2^18 with H near 1)."""
    r = fbm_increment_cov(1, H, np.arange(n + 1))
    row = np.concatenate([r, r[-2:0:-1]])
    eig = np.fft.rfft(row).real
    if eig.min() < -1e-9 * eig.max():
        raise FactorizationError(
            f"circulant embedding of fGn with n={n}, H={H} has negative eigenvalues "
            f"(min {eig.min():.3e}); no exact sampler for this grid size"
        )
    eig = np.maximum(eig, 0.0)
    eig[1:n] /= 2.0
    amp = np.sqrt(eig, out=eig)
    amp.flags.writeable = False
    return amp


class FbmSampler:
    """Reusable exact-in-law sampler of fractional Brownian paths.

    Circulant embedding (Davies-Harte) only: construction raises
    FactorizationError where the embedding eigenvalues go negative
    (very large n with H near 1).  Construct once per (n, H) and draw
    many paths.
    """

    def __init__(self, n, H):
        _check_H(H)
        if n < 2:
            raise SizeError(f"need grid size n >= 2, got {n}")
        self.n = int(n)
        self.H = float(H)
        self._amp = _fgn_amplitudes(self.n, self.H)

    def sample_fgn(self, rng):
        """One length-n draw of unit-lag fractional Gaussian noise."""
        n = self.n
        m = 2 * n
        ab = rng.standard_normal(2)
        uv = rng.standard_normal((n - 1, 2))
        c = np.empty(n + 1, dtype=complex)
        amp = self._amp
        c[0] = amp[0] * ab[0]
        c[n] = amp[n] * ab[1]
        c[1:n] = amp[1:n] * (uv[:, 0] + 1j * uv[:, 1])
        return np.fft.irfft(c, n=m)[:n] * math.sqrt(m)

    def sample_path(self, rng):
        """fBm on the grid j/n: cumulated fGn scaled by n^-H, X_0 = 0."""
        inc = self.sample_fgn(rng) * self.n ** (-self.H)
        return _path_from_increments(inc)


def sim_fbm(n, H, seed):
    """One fractional Brownian path on j/n with exponent H."""
    return FbmSampler(n, H).sample_path(derive_rng(seed, "fbm"))


def sim_brownian(n, seed, scale=1.0):
    """Standard Brownian path (variance scale^2 * t)."""
    rng = derive_rng(seed, "brownian")
    inc = rng.standard_normal(n) * (scale / math.sqrt(n))
    return _path_from_increments(inc)


# ----------------------------------------------------------------------
# multifractional Brownian motion
# ----------------------------------------------------------------------

def _q1(h):
    """Spectral normalization 2*int (1-cos x)|x|^(-2h-1) dx = pi/(Gamma(2h+1) sin(pi h))."""
    import scipy.special  # local import: only mBm pays for it

    return np.pi / (scipy.special.gamma(2.0 * h + 1.0) * np.sin(np.pi * h))


def mbm_covariance(n, h_values):
    """Harmonizable-representation covariance of mBm on the grid j/n, j=1..n.

    With Hb = (H(s)+H(t))/2,

        E X_s X_t = q1(Hb) / (2 sqrt(q1(H(s)) q1(H(t))))
                    * (s^2Hb + t^2Hb - |t-s|^2Hb),

    normalized so that Var X_t = t^(2 H(t)) (for constant H this is
    exactly the fBm covariance).  Built in row blocks to bound memory.
    """
    t = np.arange(1, n + 1) / n
    H = np.asarray(h_values, dtype=float)
    g = 1.0 / np.sqrt(2.0 * _q1(H))
    logt = np.log(t)
    C = np.empty((n, n))
    for i0 in range(0, n, _MBM_COV_BLOCK):
        i1 = min(i0 + _MBM_COV_BLOCK, n)
        Hb = 0.5 * (H[i0:i1, None] + H[None, :])
        E = 2.0 * Hb
        P = np.exp(E * logt[i0:i1, None])
        Q = np.exp(E * logt[None, :])
        D = np.abs(t[i0:i1, None] - t[None, :])
        np.power(D, E, out=D)
        C[i0:i1] = (_q1(Hb) * (g[i0:i1, None] * g[None, :])) * (P + Q - D)
    return C


class MbmSampler:
    """Multifractional Brownian sampler by dense covariance factorization.

    H is the exponent function, mapping [0,1] into (0,1): a callable of t,
    a constant, one value per grid point j/n (j = 1..n), or (t, H) knot
    rows interpolated linearly.  The Cholesky factor is computed once
    (with jitter retries on numerically indefinite input) and reused for
    every draw.  Cost is O(n^3)/O(n^2); n is capped at 8192 by default.
    """

    def __init__(self, n, H, max_n=MBM_DEFAULT_MAX_N):
        if n < 2:
            raise SizeError(f"need grid size n >= 2, got {n}")
        if n > max_n:
            raise SizeError(
                f"dense mBm synthesis capped at n={max_n} (got {n}); raise max_n to override"
            )
        self.n = int(n)
        t = np.arange(1, n + 1) / n
        h = np.asarray([H(tt) for tt in t] if callable(H) else H, dtype=float)
        if h.ndim == 0:
            h = np.full(t.shape, h)
        elif h.ndim == 2 and h.shape[1] == 2:
            h = np.interp(t, h[:, 0], h[:, 1])
        if h.shape != t.shape:
            raise DomainError("H must be a callable, a constant, one exponent per grid "
                              "point or (t, H) knot rows")
        if not ((h > 0.0) & (h < 1.0)).all():
            raise DomainError("exponent function must map into (0,1) on the grid")
        self._L = self._factor(mbm_covariance(n, h))

    @staticmethod
    def _factor(C):
        import scipy.linalg  # local import: only mBm pays for it

        scale = float(np.mean(np.diag(C)))
        jitters = [0.0, 1e-12, 1e-10, 1e-8]
        for j in jitters:
            try:
                if j > 0.0:
                    C = C + (j * scale) * np.eye(C.shape[0])
                return scipy.linalg.cholesky(C, lower=True, overwrite_a=(j == 0.0),
                                             check_finite=False)
            except np.linalg.LinAlgError:
                continue
        raise FactorizationError(
            f"covariance not positive definite after jitter retries {jitters[1:]}"
        )

    def sample_path(self, rng):
        z = rng.standard_normal(self.n)
        out = np.empty(self.n + 1)
        out[0] = 0.0
        out[1:] = self._L @ z
        return SampledPath(out)


def sim_mbm(n, H, seed, max_n=MBM_DEFAULT_MAX_N):
    """One multifractional Brownian path with exponent function H (any form
    MbmSampler takes)."""
    return MbmSampler(n, H, max_n=max_n).sample_path(derive_rng(seed, "mbm"))


# ----------------------------------------------------------------------
# multiscale fBm (piecewise power-law spectral density)
# ----------------------------------------------------------------------

def multiscale_density(breaks, sigmas, hursts):
    """Piecewise spectral density sigma_j^2 / |xi|^(2 H_j + 1) as a callable.

    Band j covers [w_j, w_{j+1}) with w_0 = 0 and w_{l+1} = inf.  The
    first exponent must be < 1 (integrability at 0 against xi^2) and the
    last > 0 (integrability at infinity).
    """
    br = np.asarray(breaks, dtype=float)
    sg = np.asarray(sigmas, dtype=float)
    hu = np.asarray(hursts, dtype=float)
    if sg.size != hu.size or sg.size != br.size + 1:
        raise DomainError("need one (sigma, H) pair per band: len(breaks)+1 bands")
    if br.size and (br.min() <= 0 or np.any(np.diff(br) <= 0)):
        raise DomainError("breakpoints must be strictly increasing and positive")
    if np.any(sg <= 0):
        raise DomainError("band scales must be positive")
    if hu[0] >= 1.0:
        raise DomainError(f"lowest-band exponent must be < 1, got {hu[0]}")
    if hu[-1] <= 0.0:
        raise DomainError(f"highest-band exponent must be > 0, got {hu[-1]}")
    edges = np.concatenate([[0.0], br, [np.inf]])

    def f(xi):
        xi = np.abs(np.asarray(xi, dtype=float))
        band = np.clip(np.searchsorted(edges, xi, side="right") - 1, 0, hu.size - 1)
        with np.errstate(divide="ignore"):
            return sg[band] ** 2 / xi ** (2.0 * hu[band] + 1.0)

    return f


def sim_multiscale_fbm(n, breaks, sigmas, hursts, seed, freq_points=2**20):
    """Stationary-increment Gaussian path from the piecewise spectral density.

    Discretizes X_t = int (e^(i t xi) - 1) sqrt(f(xi)) W(dxi) on a midpoint
    frequency grid up to 64*pi*n with `freq_points` cells, folding the
    Riemann sum into one FFT.
    """
    f = multiscale_density(breaks, sigmas, hursts)
    omega = 64.0 * math.pi * n
    if freq_points < 2:
        raise DomainError(f"freq_points must be at least 2, got {freq_points}")
    dxi = omega / freq_points
    nfft = int(round(2.0 * math.pi * n / dxi))
    if nfft < n + 1:
        raise ResolutionError(
            f"spectral grid too coarse for n={n}: fold length {nfft} < n+1; "
            "increase freq_points"
        )
    dxi = 2.0 * math.pi * n / nfft  # make the fold exact
    m = int(math.ceil(omega / dxi))
    xi = (np.arange(m) + 0.5) * dxi
    amp = np.sqrt(f(xi) * dxi)

    rng = derive_rng(seed, "multiscale_fbm")
    uv = rng.standard_normal((m, 2))
    c = amp * (uv[:, 0] + 1j * uv[:, 1]) / math.sqrt(2.0)

    pad = (-m) % nfft
    folded = np.concatenate([c, np.zeros(pad, dtype=complex)]).reshape(-1, nfft).sum(axis=0)
    spec = np.fft.ifft(folded) * nfft            # S_j = sum_k c_k e^(2 pi i jk / nfft)
    j = np.arange(n + 1)
    phase = np.exp(1j * math.pi * j / nfft)      # midpoint shift e^(i j dxi/(2n))
    total = c.sum()
    vals = 2.0 * (phase * spec[: n + 1] - total).real
    vals[0] = 0.0  # exact by construction; pin against rounding
    return SampledPath(vals)


# ----------------------------------------------------------------------
# Ito diffusions (Euler-Maruyama)
# ----------------------------------------------------------------------

def _euler_paths(n, a_func, b_func, x0, refine, rngs):
    """Euler-Maruyama on the fine grid 1/(n*refine), subsampled to j/n.

    rngs is one Generator per replication; increments are consumed in
    time-chunks so the output is identical to per-path simulation.
    Needs refine >= 16 and n >= 2.
    """
    if refine < 16:
        raise DomainError(f"Euler refinement must be >= 16, got {refine}")
    if n < 2:
        raise SizeError(f"need grid size n >= 2, got {n}")
    reps = len(rngs)
    steps = n * refine
    dt = 1.0 / steps
    sdt = math.sqrt(dt)
    x = np.full(reps, float(x0))
    out = np.empty((reps, n + 1))
    out[:, 0] = x
    k = 0
    # blow-ups are detected below, once per chunk, instead of warned per step
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps:
            k0, c = k, min(_EULER_CHUNK, steps - k)
            z = np.empty((reps, c))
            for i, g in enumerate(rngs):
                z[i] = g.standard_normal(c)
            for jj in range(c):
                x = x + (a_func(x) * (sdt * z[:, jj]) + b_func(x) * dt)
                k += 1
                if k % refine == 0:
                    out[:, k // refine] = x
            if not np.isfinite(x).all():
                # first non-finite grid sample of the chunk, or the next one
                # when the state blew up after the last sample written
                j0 = k0 // refine + 1
                bad = ~np.isfinite(np.column_stack([out[:, j0:k // refine + 1], x]))
                col = int(np.flatnonzero(bad.any(axis=0))[0])
                raise SimulationError(
                    f"non-finite state in replication {int(np.flatnonzero(bad[:, col])[0])} "
                    "(drift/diffusion blew up)", step=j0 + col)
    return out


def sim_diffusion(n, a_func, b_func, x0, refine=64, seed=0):
    """Path of dX = a(X) dB + b(X) dt at resolution j/n.

    Simulated by Euler-Maruyama on the refined grid 1/(n*refine) and
    subsampled; refine >= 16.  The diffusion coefficient should stay
    bounded away from zero on the visited range.
    """
    paths = _euler_paths(n, a_func, b_func, x0, refine, [derive_rng(seed, "diffusion")])
    return SampledPath(paths[0])


def sim_diffusion_batch(n, a_func, b_func, x0, refine, seed, reps):
    """(reps, n+1) array of independent diffusion paths with derived seeds."""
    rngs = [derive_rng(seed, "diffusion", i) for i in range(reps)]
    return _euler_paths(n, a_func, b_func, x0, refine, rngs)


DIFFUSION_PRESETS = {
    # (a(x), b(x), x0): named coefficient sets usable from specs and config files
    "brownian": (lambda x: np.ones_like(x), lambda x: np.zeros_like(x), 0.0),
    "mean-reverting": (lambda x: 1.0 + x * x, lambda x: -64.0 * (x - 1.0), 1.0),
}


def _sim_preset_diffusion(n, seed=0, preset="brownian", x0=None, refine=64):
    """sim_diffusion with the coefficients of a DIFFUSION_PRESETS entry and,
    unless x0 is given, its start value: the diffusion kind of SimSpec."""
    if preset not in DIFFUSION_PRESETS:
        raise DomainError(f"unknown diffusion preset {preset!r}; "
                          f"expected one of {tuple(DIFFUSION_PRESETS)}")
    a_func, b_func, start = DIFFUSION_PRESETS[preset]
    return sim_diffusion(n, a_func, b_func, start if x0 is None else x0,
                         refine=refine, seed=seed)


# ----------------------------------------------------------------------
# Levy paths
# ----------------------------------------------------------------------

def sim_levy_stable(n, alpha, scale=1.0, seed=0):
    """Symmetric alpha-stable Levy path: iid scale * n^(-1/alpha) * Z_alpha increments."""
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    rng = derive_rng(seed, "levy_stable")
    inc = sample_sym_stable(alpha, rng, n) * (scale * n ** (-1.0 / alpha))
    return _path_from_increments(inc)


def _window_jump_sums(rng, n, rate, draw_sizes):
    """Sum of Poisson-many jumps per grid window (vectorized over windows)."""
    counts = rng.poisson(rate / n, n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n)
    sizes = draw_sizes(rng, total)
    idx = np.repeat(np.arange(n), counts)
    return np.bincount(idx, weights=sizes, minlength=n)


def sim_levy_compound(n, a_weight=0.0, seed=0, *, rate=0.0, jump_scale=1.0,
                      stable_alpha=None, stable_c=1.0, stable_cutoff=1e-4):
    """Brownian part + compound-Poisson jumps + truncated small-jump tail.

    a_weight scales an independent Brownian component.  rate and jump_scale
    give a compound-Poisson part with N(0, jump_scale^2) jumps.  stable_alpha
    adds power-law small jumps of size in [stable_cutoff, 1] with tail mass
    K(u) = stable_c * (u^-alpha - 1); no drift compensation is needed for
    symmetric jumps.
    """
    if a_weight < 0:
        raise DomainError(f"Brownian weight must be >= 0, got {a_weight}")
    if rate < 0:
        raise DomainError(f"jump rate must be >= 0, got {rate}")
    if jump_scale <= 0:
        raise DomainError(f"jump scale must be positive, got {jump_scale}")
    small_rate = 0.0  # expected small jumps on [0, 1]: the tail mass K(stable_cutoff)
    if stable_alpha is not None:
        if not 0.0 < stable_alpha < 2.0:
            raise DomainError(f"small-jump index must lie in (0,2), got {stable_alpha}")
        if not 0.0 < stable_cutoff < 1.0:
            raise DomainError("need 0 < stable_cutoff < 1")
        if stable_c <= 0:
            raise DomainError(f"small-jump mass must be positive, got {stable_c}")
        small_rate = stable_c * (stable_cutoff ** (-stable_alpha) - 1.0)
    if max(rate, small_rate) > MAX_EXPECTED_JUMPS:
        raise SizeError(f"{max(rate, small_rate):.3g} expected jumps of one kind exceed "
                        f"the cap of {MAX_EXPECTED_JUMPS} per path")
    rng = derive_rng(seed, "levy_compound")

    inc = np.zeros(n)
    if a_weight > 0:
        inc += rng.standard_normal(n) * (a_weight / math.sqrt(n))

    if rate > 0:
        inc += _window_jump_sums(rng, n, rate,
                                 lambda rng, m: rng.standard_normal(m) * jump_scale)

    if stable_alpha is not None:
        al, eps = stable_alpha, stable_cutoff

        def draw_small(rng, m):
            # inverse-transform for tail K(u) ~ u^-alpha on [eps, 1]
            v = rng.uniform(0.0, 1.0, m)
            mag = ((1.0 - v) * eps ** (-al) + v) ** (-1.0 / al)
            sign = rng.integers(0, 2, m) * 2.0 - 1.0
            return sign * mag

        inc += _window_jump_sums(rng, n, small_rate, draw_small)

    return _path_from_increments(inc)


# ----------------------------------------------------------------------
# trends and the declarative front end
# ----------------------------------------------------------------------

def apply_trend(path, alpha_func, beta_func):
    """Pointwise Z(j/n) = alpha(j/n) * X(j/n) + beta(j/n); alpha must be > 0."""
    t = path.times()
    al = np.asarray([alpha_func(tt) for tt in t], dtype=float)
    be = np.asarray([beta_func(tt) for tt in t], dtype=float)
    if np.any(al <= 0):
        bad = float(t[np.argmax(al <= 0)])
        raise DomainError(f"multiplicative trend must be positive (fails at t={bad:.4f})")
    return SampledPath(al * path.values + be)


# the process kinds of SimSpec and `roughir simulate`; a spec's params are
# its simulator's keyword parameters
SIMULATORS = {
    "fbm": sim_fbm,
    "mbm": sim_mbm,
    "multiscale_fbm": sim_multiscale_fbm,
    "diffusion": _sim_preset_diffusion,
    "levy_stable": sim_levy_stable,
    "levy_compound": sim_levy_compound,
    "brownian": sim_brownian,
}
SIM_KINDS = tuple(SIMULATORS)


def simulator(kind):
    """SIMULATORS[kind]; DomainError for an unknown kind."""
    if kind not in SIMULATORS:
        raise DomainError(f"unknown process kind {kind!r}; expected one of {SIM_KINDS}")
    return SIMULATORS[kind]


@dataclass(frozen=True)
class SimSpec:
    """Declarative description of one simulation (kind, size, seed, params).

    params are the keyword arguments of SIMULATORS[kind] other than n and
    seed; a missing or unknown one raises DomainError here.  trend, when
    present, is a pair of callables (alpha(t), beta(t)) applied pointwise
    after simulation.
    """

    kind: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)
    trend: tuple | None = None

    def __post_init__(self):
        names = inspect.signature(simulator(self.kind)).parameters
        if self.n < 2:
            raise SizeError(f"need grid size n >= 2, got {self.n}")
        free = [k for k in names if k not in ("n", "seed")]
        missing = [k for k in free if names[k].default is inspect.Parameter.empty
                   and k not in self.params]
        unknown = [k for k in self.params if k not in free]
        if missing or unknown:
            raise DomainError(f"{self.kind} takes params {free}; missing {missing}, "
                              f"unknown {unknown}")


def simulate(spec):
    """Run one SimSpec and return its SampledPath."""
    path = SIMULATORS[spec.kind](spec.n, seed=spec.seed, **spec.params)
    if spec.trend is not None:
        path = apply_trend(path, *spec.trend)
    return path
