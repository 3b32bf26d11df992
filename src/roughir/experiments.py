"""Monte Carlo experiments that check the limit theorems at desk scale.

Each experiment runs seeded replications, aggregates them, and grades the
result against declared tolerances.  Reports are machine-readable and
reproducible: rerunning the echoed config reproduces every number.
"""

import inspect
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, RangeError, SizeError
from .gaussian import LAMBDA2_HIGH, LAMBDA2_LOW, Lambda_p, estimate_H, invert_Lambda2, lam
from .increments import SampledPath
from .pathio import _atomic_write, write_rows
from .rng import derive_rng
from .simulators import (DIFFUSION_PRESETS, TREND_PRESETS, FbmSampler, MbmSampler,
                         _path_from_increments, apply_trend, sim_diffusion_batch)
from .stable import sym_stable_from_uniform_exp, estimate_alpha
from .statistics import r0_tilde_2n, r_local, r_pn, r_tilde_2n


@dataclass
class Verdict:
    name: str
    observed: float
    target: float
    tolerance: str
    passed: bool


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    verdicts: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    replications: dict = field(default_factory=dict)  # column name -> list
    elapsed_s: float = 0.0
    phase_s: dict = field(default_factory=dict)  # seconds per phase; not part of the results
    started: float = field(default_factory=time.perf_counter, repr=False)

    @classmethod
    def start(cls, name, arguments, min_reps=1, **notes):
        """Report whose config echoes an experiment's bound arguments (tuples
        as lists, a table as its build settings) plus fixed notes; a grid
        size below 1 or a replication count below min_reps (2 where a sample
        variance is taken) raises SizeError."""
        config = {}
        for key, value in arguments.items():
            least = 1 if key == "n" else min_reps
            if key.endswith("_table"):
                config.update({f"table_{k}": getattr(value, k)
                               for k in ("seed", "reps", "path_len") if hasattr(value, k)})
            elif key in ("n", "reps", "pairs") and value < least:
                raise SizeError(f"{name} needs {key} >= {least}, got {value}")
            else:
                config[key] = list(value) if isinstance(value, tuple) else value
        return cls(name, {**config, **notes})

    def finish(self):
        """Set elapsed_s from the start of the run; returns the report."""
        self.elapsed_s = time.perf_counter() - self.started
        return self

    @property
    def passed(self):
        return all(v.passed for v in self.verdicts)

    def check(self, name, observed, target, tolerance, passed):
        self.verdicts.append(Verdict(name, float(observed), float(target),
                                     tolerance, bool(passed)))

    def to_json(self):
        doc = {
            "experiment": self.experiment,
            "config": self.config,
            "passed": self.passed,
            "verdicts": [asdict(v) for v in self.verdicts],
            "aggregates": self.aggregates,
            "elapsed_s": round(self.elapsed_s, 3),
            "phase_s": {k: round(v, 3) for k, v in self.phase_s.items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def write(self, filename):
        """JSON report plus a per-replication appendix, one column per series."""
        _atomic_write(filename, self.to_json() + "\n")
        if self.replications:
            write_rows(filename + ".reps.tsv", {}, zip(*self.replications.values()),
                       header=list(self.replications))

    def summary_lines(self):
        mark = {True: "PASS", False: "FAIL"}
        out = [f"experiment {self.experiment}: {mark[self.passed]} "
               f"({self.elapsed_s:.1f}s)"]
        for v in self.verdicts:
            out.append(f"  [{mark[v.passed]}] {v.name}: observed={v.observed:.6g} "
                       f"target={v.target:.6g} ({v.tolerance})")
        return out


def _se(x):
    return float(np.std(x, ddof=1) / math.sqrt(len(x)))


# ----------------------------------------------------------------------
# clt-fbm: mean, normalized variance and interval coverage on fBm
# ----------------------------------------------------------------------

def exp_clt_fbm(variance_table, h_values=(0.3, 0.5, 0.7), p=2, n=4096,
                reps=500, seed=1001, conf=0.95, var_rtol=0.20,
                coverage_band=(0.92, 0.98)):
    rep = ExperimentReport.start("clt-fbm", locals(), min_reps=2)
    sigmas = [variance_table.sigma(p, H) for H in h_values]  # each looked up before any draw
    for hi, (H, sigma) in enumerate(zip(h_values, sigmas)):
        sampler = FbmSampler(n, H)
        vals = np.empty(reps)
        covered = failed = 0
        for i in range(reps):
            rng = derive_rng(seed, "experiment", 1, hi, i)
            path = sampler.sample_path(rng)
            if p == 2:  # estimate_H computes r_pn(path, 2) itself
                try:
                    est = estimate_H(path, variance_table, conf=conf)
                except RangeError:  # no interval: it does not cover H
                    failed += 1
                    vals[i] = r_pn(path, 2).value
                    continue
                vals[i] = est.statistic.value
                covered += est.ci_low <= H <= est.ci_high
            else:
                vals[i] = r_pn(path, p).value
        rep.replications[f"R{p}_H{H}"] = vals.tolist()
        target = Lambda_p(p, H)
        se = _se(vals)
        rep.check(f"mean R^{{{p},n}} at H={H}", vals.mean(), target,
                  "within 3 MC stderrs", abs(vals.mean() - target) <= 3 * se)
        nvar = n * vals.var(ddof=1)
        rep.check(f"n*var R^{{{p},n}} at H={H}", nvar, sigma,
                  f"relative error <= {var_rtol}",
                  abs(nvar / sigma - 1.0) <= var_rtol)
        if p == 2:
            cov = covered / reps
            rep.check(f"{int(conf*100)}% CI coverage at H={H}", cov, conf,
                      f"in [{coverage_band[0]}, {coverage_band[1]}]",
                      coverage_band[0] <= cov <= coverage_band[1])
        rep.aggregates[f"H={H}"] = {"mean": vals.mean(), "se_mean": se,
                                    "n_var": nvar, "table_entry": sigma,
                                    "estimates_failed": failed}
    return rep.finish()


# ----------------------------------------------------------------------
# diffusion-rate: convergence of the statistic on an Ito diffusion
# ----------------------------------------------------------------------

def exp_diffusion_rate(ns=(1024, 4096, 16384), reps=200, seed=1002, refine=64,
                       slope_max=-0.2):
    """Mean-reverting diffusion dX = (1+X^2) dB - 64 (X-1) dt from X_0 = 1.

    Reversion to x = 1 maximizes the relative gradient of the diffusion
    coefficient, which makes the finite-n bias of the first-order
    statistic measurable at 200 replications; weaker drifts leave it
    under the Monte Carlo noise floor.
    """
    rep = ExperimentReport.start("diffusion-rate", locals(), min_reps=2,
                                 sde="a(x)=1+x^2, b(x)=-64(x-1), x0=1")
    a_func, b_func, x0 = DIFFUSION_PRESETS["mean-reverting"]
    l1, l2 = Lambda_p(1, 0.5), Lambda_p(2, 0.5)
    bias1 = []
    for ni, n in enumerate(ns):
        paths = sim_diffusion_batch(n, a_func, b_func, x0, refine,
                                    seed * 1000 + ni, reps)
        r1 = np.array([r_pn(SampledPath(p), 1).value for p in paths])
        r2 = np.array([r_pn(SampledPath(p), 2).value for p in paths])
        rep.replications[f"R1_n{n}"] = r1.tolist()
        rep.replications[f"R2_n{n}"] = r2.tolist()
        bias1.append(abs(r1.mean() - l1))
        se2 = _se(r2)
        rep.check(f"mean R^{{2,n}} at n={n}", r2.mean(), l2,
                  "within 3 MC stderrs", abs(r2.mean() - l2) <= 3 * se2)
        rep.aggregates[f"n={n}"] = {"R1_mean": r1.mean(), "R1_bias": bias1[-1],
                                    "R2_mean": r2.mean(), "R2_se": se2}
    dec = all(bias1[i] > bias1[i + 1] for i in range(len(bias1) - 1))
    rep.check("|mean R^{1,n} - limit| decreasing in n", float(dec), 1.0,
              "strictly decreasing over the n grid", dec)
    slope = float(np.polyfit(np.log(np.asarray(ns, float)), np.log(bias1), 1)[0])
    rep.check("log-log slope of the R^{1,n} bias", slope, slope_max,
              f"slope <= {slope_max}", slope <= slope_max)
    rep.aggregates["bias1"] = bias1
    rep.aggregates["slope"] = slope
    return rep.finish()


# ----------------------------------------------------------------------
# trend-robustness: paired-seed smooth trend injection
# ----------------------------------------------------------------------

def exp_trend_robustness(h=0.6, n=8192, pairs=200, seed=1003, tol=0.02):
    rep = ExperimentReport.start("trend-robustness", locals(),
                                 trend="alpha(t)=2+sin(2*pi*t), beta(t)=t^2")
    alpha_f, beta_f = TREND_PRESETS["smooth"]
    sampler = FbmSampler(n, h)
    diffs = np.empty(pairs)
    for i in range(pairs):
        rng = derive_rng(seed, "experiment", 3, i)
        x = sampler.sample_path(rng)
        z = apply_trend(x, alpha_f, beta_f)
        hx = invert_Lambda2(r_pn(x, 2).value)
        hz = invert_Lambda2(r_pn(z, 2).value)
        diffs[i] = abs(hz - hx)
    rep.replications["abs_Hhat_shift"] = diffs.tolist()
    rep.check("mean |Hhat(trended) - Hhat(plain)|", diffs.mean(), 0.0,
              f"<= {tol}", diffs.mean() <= tol)
    rep.aggregates["mean_shift"] = diffs.mean()
    rep.aggregates["max_shift"] = float(diffs.max())
    return rep.finish()


# ----------------------------------------------------------------------
# levy-clt: the fractional-index estimator and its variance
# ----------------------------------------------------------------------

def exp_levy_clt(stable_table, alphas=(0.8, 1.2, 1.8), n=8192, reps=500,
                 seed=1004, var_rtol=0.25, psi0_alphas=(0.8, 1.8)):
    rep = ExperimentReport.start("levy-clt", locals(), min_reps=2)
    # anchor: the limit curve at alpha=2 equals the closed-form Gaussian value
    anchor = lam(0.0)
    tab2 = stable_table.interp("lam", 2.0)
    se2 = stable_table.interp("lam_stderr", 2.0)
    rep.check("limit curve at alpha=2 vs closed-form Gaussian anchor 0.72",
              tab2, anchor, "within 3 table MC stderrs",
              abs(tab2 - anchor) <= 3 * se2)
    # every graded target must exist before the first draw
    targets = [(stable_table.interp("lam_stderr", a) / abs(stable_table.interp("dlam", a)),
                stable_table.interp("sigma_sq", a)) for a in alphas]

    for ai, (alpha, (table_se, entry)) in enumerate(zip(alphas, targets)):
        rt = np.empty(reps)
        a_hats = np.empty(reps)
        r0 = np.empty(reps)
        for i in range(reps):
            rng = derive_rng(seed, "experiment", 4, ai, i)
            u = rng.uniform(-math.pi / 2, math.pi / 2, n)
            w = rng.exponential(1.0, n)
            inc = sym_stable_from_uniform_exp(alpha, u, w) * n ** (-1.0 / alpha)
            path = _path_from_increments(inc)
            est = estimate_alpha(path, stable_table)
            rt[i] = est.statistic.value
            a_hats[i] = est.value
            r0[i] = r0_tilde_2n(path).value
        rep.replications[f"alpha_hat_{alpha}"] = a_hats.tolist()
        rep.replications[f"r_tilde_{alpha}"] = rt.tolist()
        # joint stderr: replication noise plus the table's own MC uncertainty
        joint = math.hypot(_se(a_hats), table_se)
        if alpha == 2.0:
            # boundary case: inversion clamps one-sidedly, so grade the
            # statistic itself against the closed-form Gaussian value
            rep.check("mean r_tilde at alpha=2", rt.mean(), anchor,
                      "within 3 MC stderrs of the 0.72 anchor",
                      abs(rt.mean() - anchor) <= 3 * _se(rt))
        else:
            rep.check(f"mean alpha_hat at alpha={alpha}", a_hats.mean(), alpha,
                      "within 3 joint stderrs (replication + table)",
                      abs(a_hats.mean() - alpha) <= 3 * joint)
        nvar = n * rt.var(ddof=1)
        rep.check(f"n*var r_tilde at alpha={alpha}", nvar, entry,
                  f"relative error <= {var_rtol}",
                  abs(nvar / entry - 1.0) <= var_rtol)
        if alpha in psi0_alphas:
            se0 = _se(r0)
            rep.check(f"sign-indicator statistic at alpha={alpha}", r0.mean(), 0.5,
                      "within 3 MC stderrs of 1/2 (insensitive to alpha)",
                      abs(r0.mean() - 0.5) <= 3 * se0)
        rep.aggregates[f"alpha={alpha}"] = {
            "mean_alpha_hat": a_hats.mean(), "se": _se(a_hats),
            "table_se": table_se, "n_var": nvar, "sigma_sq_entry": entry,
            "psi0_mean": r0.mean(),
        }
    return rep.finish()


# ----------------------------------------------------------------------
# smooth-limit: deterministic smooth and monotone inputs
# ----------------------------------------------------------------------

def exp_smooth_limit(n_values=(1000, 10_000, 100_000)):
    rep = ExperimentReport.start("smooth-limit", locals(), f="sin(4*pi*t)")
    vals = []
    for n in n_values:
        t = np.arange(n + 1) / n
        vals.append(r_pn(SampledPath(np.sin(4 * np.pi * t)), 1).value)
    rep.aggregates["values"] = vals
    i4 = n_values.index(10_000)
    rep.check("R^{1,n}(sin 4 pi t) at n=10^4", vals[i4], 0.99, ">= 0.99", vals[i4] >= 0.99)
    nondec = all(vals[i + 1] >= vals[i] - 1e-3 for i in range(len(vals) - 1))
    rep.check("nondecreasing in n", float(nondec), 1.0, "up to 0.001 slack", nondec)
    t = np.arange(10_001) / 10_000
    mono = r_pn(SampledPath(t**1.5), 1).value
    rep.check("monotone path", mono, 1.0, "exactly 1", mono == 1.0)
    return rep.finish()


# ----------------------------------------------------------------------
# local-mbm: mean-exponent recovery and localized ordering
# ----------------------------------------------------------------------

def exp_local_mbm(n=8192, reps=200, seed=1006, h_span=(0.3, 0.7),
                  t0s=(0.2, 0.8), w=0.8, mean_tol=0.05, order_frac=0.95):
    rep = ExperimentReport.start("local-mbm", locals())
    h0, h1 = h_span
    h_of_t = lambda t: h0 + (h1 - h0) * t
    # R^{2,n} tends to the mean of Lambda_2(H(t)) on [0, 1]: pair k's tangent is fBm with H(k/n)
    x, wts = np.polynomial.legendre.leggauss(40)
    limit = 0.5 * float(wts @ [Lambda_p(2, h_of_t(0.5 * (xi + 1.0))) for xi in x])
    hbar_target = invert_Lambda2(limit)
    start = time.perf_counter()
    sampler = MbmSampler(n, h_of_t)
    built = time.perf_counter()
    paths = sampler.sample_paths([derive_rng(seed, "experiment", 6, i) for i in range(reps)])
    drawn = time.perf_counter()
    r2 = np.empty(reps)
    ordered = 0
    lo_col, hi_col = np.empty(reps), np.empty(reps)
    for i, values in enumerate(paths):
        path = SampledPath(values)
        r2[i] = r_pn(path, 2).value
        lo_col[i] = r_local(path, t0s[0], w).value
        hi_col[i] = r_local(path, t0s[1], w).value
        ordered += lo_col[i] < hi_col[i]
    rep.phase_s = {"sampler": built - start, "draws": drawn - built,
                   "statistics": time.perf_counter() - drawn}
    rep.replications["R2"] = r2.tolist()
    rep.replications[f"local_t{t0s[0]}"] = lo_col.tolist()
    rep.replications[f"local_t{t0s[1]}"] = hi_col.tolist()
    m = r2.mean()  # beyond the attainable range of Lambda_2 it reads as the nearer end, 0 or 1
    hbar = invert_Lambda2(m) if LAMBDA2_LOW < m < LAMBDA2_HIGH else float(m >= LAMBDA2_HIGH)
    rep.check("recovered mean exponent", hbar, hbar_target,
              f"|diff| <= {mean_tol}", abs(hbar - hbar_target) <= mean_tol)
    frac = ordered / reps
    rep.check(f"local ordering at t0={t0s[0]} vs {t0s[1]}", frac, 1.0,
              f">= {order_frac}", frac >= order_frac)
    rep.aggregates["hbar"] = hbar
    rep.aggregates["order_fraction"] = frac
    return rep.finish()


EXPERIMENTS = {
    "clt-fbm": exp_clt_fbm,
    "diffusion-rate": exp_diffusion_rate,
    "trend-robustness": exp_trend_robustness,
    "levy-clt": exp_levy_clt,
    "smooth-limit": exp_smooth_limit,
    "local-mbm": exp_local_mbm,
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_experiment(name, variance_table=None, stable_table=None, **options):
    """Run one named experiment with the tables its signature names;
    a table it names is required."""
    if name not in EXPERIMENTS:
        raise DomainError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}")
    fn = EXPERIMENTS[name]
    tables = {key: table for key, table in (("variance_table", variance_table),
                                            ("stable_table", stable_table))
              if key in inspect.signature(fn).parameters}
    for key, table in tables.items():
        if table is None:
            raise DomainError(f"{name} needs a {key.replace('_', ' ')}")
    return fn(**tables, **options)
