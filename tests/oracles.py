"""Independent numerical oracles used by the tests.

Each oracle recomputes a target quantity by a route disjoint from the
library implementation: plane quadrature of the Gaussian expectation,
quadratic forms of the raw covariance, truncated lag sums of empirical
covariances, direct quadrature of spectral densities, and plain Python
float loops for filtered increments and psi.  summary_ref is the one
statistic formula without blocks: whole-path increments and terms, then
math.fsum.  invert_Lambda2_bisection is the inversion's bisection run
from (0, 1) at every value, without a warm start.
"""

import math

import numpy as np
from scipy.integrate import quad

import roughir as ri
from roughir.gaussian import INVERT_TOL, _lam, _rho_p
from roughir.statistics import psi_terms


def epsi_gauss_quad(r):
    """E |U1+U2|/(|U1|+|U2|) for correlated standard normals, by 2-D
    quadrature of the density in polar coordinates.

    The angular integrand has kinks where x=0, y=0 or x+y=0, so the angle
    range is split there; the radial integral is also done numerically.
    """
    c = 1.0 / (2.0 * math.pi * math.sqrt(1.0 - r * r))

    def angular(phi):
        cs, sn = math.cos(phi), math.sin(phi)
        q = (cs * cs - 2.0 * r * cs * sn + sn * sn) / (1.0 - r * r)
        radial, _ = quad(lambda rho: rho * math.exp(-0.5 * rho * rho * q), 0, np.inf)
        return abs(cs + sn) / (abs(cs) + abs(sn)) * radial

    kinks = [0.0, math.pi / 2, 3 * math.pi / 4, math.pi,
             3 * math.pi / 2, 7 * math.pi / 4, 2 * math.pi]
    total = 0.0
    for a, b in zip(kinks[:-1], kinks[1:]):
        v, _ = quad(angular, a, b, limit=200, epsabs=1e-12, epsrel=1e-12)
        total += v
    return c * total


def filtered_increment_ref(values, coeffs, j):
    """sum_l a_l v[j+l] in Python floats, summed left to right."""
    total = 0.0
    for l, a in enumerate(coeffs):
        total += float(a) * float(values[j + l])
    return total


def psi_ref(x, y):
    """psi of one pair in Python floats: |x+y| / (|x|+|y|), 0/0 := 1."""
    den = abs(x) + abs(y)
    return 1.0 if den == 0.0 else abs(x + y) / den


def psi0_ref(x, y):
    """psi0 of one pair in Python floats: 1 unless the signs are strictly
    opposite, 0 if either is NaN."""
    if math.isnan(x) or math.isnan(y):
        return 0.0
    return 0.0 if (x > 0.0 and y < 0.0) or (x < 0.0 and y > 0.0) else 1.0


def summary_ref(values, coeffs, kind, window=slice(None)):
    """(mean, terms, 0/0 count) of psi/psi0 over consecutive pairs of the
    increments selected by window: the full-length increment array, its
    terms, and math.fsum over all of them at once."""
    d = ri.filtered_increment_array(values, coeffs)[window]
    with np.errstate(invalid="ignore"):
        terms, zeros = psi_terms(d[:-1], d[1:], kind)
    return math.fsum(terms) / terms.size, terms.size, zeros


def invert_Lambda2_bisection(v):
    """H with Lambda_2(H) = v: halve (0, 1) until the bracket is at most
    INVERT_TOL wide and return its midpoint (v must be attainable)."""
    lo, hi = 0.0, 1.0
    while hi - lo > INVERT_TOL:
        mid = 0.5 * (lo + hi)
        if _lam(_rho_p(2, mid)) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fbm_cov(H, s, t):
    """Raw fractional Brownian covariance (|s|^2H + |t|^2H - |t-s|^2H)/2."""
    h2 = 2.0 * H
    return 0.5 * (abs(s) ** h2 + abs(t) ** h2 - abs(t - s) ** h2)


def p_increment_cov_quadratic_form(p, H, j):
    """Covariance of p-order unit-grid increments from the raw covariance,
    expanded as a quadratic form (independent of the closed-form lags)."""
    coeffs = [(-1.0) ** (p - i) * math.comb(p, i) for i in range(p + 1)]
    total = 0.0
    for a, ca in enumerate(coeffs):
        for b, cb in enumerate(coeffs):
            total += ca * cb * fbm_cov(H, a, j + b)
    return total


def sigma_p_lag_sum(p, H, reps, path_len, seed, J=50):
    """Alternative route to the asymptotic variance: truncated lag sum of
    empirical autocovariances of the psi terms, pooled over paths."""
    sampler = ri.FbmSampler(path_len, H)
    terms = []
    for i in range(reps):
        rng = ri.derive_rng(seed, 99, i)
        d = np.diff(sampler.sample_path(rng).values, p)
        x, y = d[:-1], d[1:]
        terms.append(np.abs(x + y) / (np.abs(x) + np.abs(y)))
    terms = np.asarray(terms)
    centered = terms - terms.mean()
    m = terms.shape[1]
    per_path = np.empty(reps)
    for i in range(reps):
        c = centered[i]
        acc = np.dot(c, c) / m
        for j in range(1, J + 1):
            acc += 2.0 * np.dot(c[:-j], c[j:]) / m
        per_path[i] = acc
    est = per_path.mean()
    se = per_path.std(ddof=1) / math.sqrt(reps)
    return float(est), float(se)


def spectral_variogram(f, t):
    """V(t) = 2 int_R (1 - cos(t xi)) f(xi) dxi = 4 int_0^inf.

    The head is integrated directly; the oscillatory tail is split into a
    plain decaying part and a cos-weighted part (QUADPACK QAWF)."""
    X = 10.0 / t
    head, _ = quad(lambda x: (1.0 - math.cos(t * x)) * f(x), 0.0, X, limit=400)
    tail_plain, _ = quad(f, X, np.inf, limit=200)
    tail_cos, _ = quad(f, X, np.inf, weight="cos", wvar=t, limit=200)
    return 4.0 * (head + tail_plain - tail_cos)
