"""Acceptance suite: every criterion at its declared tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success).  Monte Carlo criteria are seeded, so outcomes are exactly
reproducible.
"""

import dataclasses
import math

import numpy as np
import pytest

import roughir as ri
from roughir.errors import DomainError
from roughir.experiments import (exp_clt_fbm, exp_diffusion_rate,
                                 exp_levy_clt, exp_local_mbm,
                                 exp_smooth_limit, exp_trend_robustness)

from .oracles import epsi_gauss_quad


def record(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2} ({label}): {verdict}  {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def report_criterion(num, label, rep, keep=lambda verdict: True):
    """Print the report's verdicts that keep selects and record whether
    there are any and all of them pass."""
    part = dataclasses.replace(rep, verdicts=[v for v in rep.verdicts if keep(v)])
    print("\n".join(part.summary_lines()))
    record(num, label, bool(part.verdicts) and part.passed,
           f"{len(part.verdicts)} verdicts, {rep.elapsed_s:.1f}s")


@pytest.fixture(scope="module")
def levy_report(stable_table):
    return exp_levy_clt(stable_table, alphas=(0.8, 1.2, 1.8), n=2**13,
                        reps=500, seed=1004, var_rtol=0.25,
                        psi0_alphas=(0.8, 1.8))


def test_criterion_01_closed_form_anchors():
    ok = (abs(ri.Lambda_p(1, 0.5) - 0.7206) <= 5e-4
          and abs(ri.Lambda_p(2, 0.5) - 0.5881) <= 5e-4
          and ri.lam(-1.0) == 0.0 and ri.lam(1.0) == 1.0)
    record(1, "closed-form anchors", ok,
           f"Lambda_1(0.5)={ri.Lambda_p(1, 0.5):.6f}, "
           f"Lambda_2(0.5)={ri.Lambda_p(2, 0.5):.6f}, "
           f"lam(-1)={ri.lam(-1.0)}, lam(1)={ri.lam(1.0)}")


def test_criterion_02_lambda_quadrature_oracle():
    diffs = {r: abs(ri.lam(r) - epsi_gauss_quad(r))
             for r in (-0.9, -0.5, 0.0, 0.5, 0.9)}
    record(2, "lambda vs 2-D Gaussian quadrature", max(diffs.values()) <= 1e-6,
           f"max |diff| = {max(diffs.values()):.2e}")


def test_criterion_03_near_linear_lambda2():
    h = np.round(np.arange(0.05, 0.951, 0.05), 10)
    v = np.array([ri.Lambda_p(2, x) for x in h])
    slope, intercept = np.polyfit(h, v, 1)
    ok = abs(slope - 0.1468) <= 0.005 and abs(intercept - 0.5174) <= 0.005
    record(3, "near-linear limit curve", ok,
           f"slope={slope:.4f} (0.1468 +- 0.005), "
           f"intercept={intercept:.4f} (0.5174 +- 0.005)")


def test_criterion_04_fbm_clt(variance_table):
    rep = exp_clt_fbm(variance_table, h_values=(0.3, 0.5, 0.7), p=2, n=4096,
                      reps=500, seed=1001)
    report_criterion(4, "fBm CLT: mean, variance, coverage", rep)


def test_criterion_05_p1_variance_restriction():
    with pytest.raises(DomainError):
        ri.sigma_p_mc(1, 0.8, reps=200, path_len=256, seed=1)
    record(5, "p=1 variance diverges for H >= 3/4", True,
           "DomainError raised as documented")


def test_criterion_06_diffusion_rate():
    rep = exp_diffusion_rate(ns=(2**10, 2**12, 2**14), reps=200, seed=1002)
    report_criterion(6, "diffusion convergence rate", rep)


def test_criterion_07_trend_robustness():
    rep = exp_trend_robustness(h=0.6, n=2**13, pairs=200, seed=1003, tol=0.02)
    report_criterion(7, "smooth-trend robustness", rep)


def test_criterion_08_exact_invariances():
    rng = np.random.default_rng(1008)
    stats = [lambda p: ri.r_pn(p, 1).value, lambda p: ri.r_pn(p, 2).value,
             lambda p: ri.r0_pn(p, 1).value, lambda p: ri.r_tilde_2n(p).value]
    t = np.arange(65) / 64
    worst_poly = 0.0
    for _ in range(1000):
        x = rng.standard_normal(65)
        path = ri.SampledPath(x)
        c = float(2.0 ** rng.integers(-6, 7))
        for stat in stats:
            base = stat(path)
            assert stat(ri.SampledPath(c * x)) == base      # binary scaling exact
            assert stat(ri.SampledPath(-x)) == base         # sign flip exact
        # sub-order polynomial trends: constant under p=1, linear under p=2
        b1 = ri.r_pn(path, 1).value
        b2 = ri.r_pn(path, 2).value
        s1 = ri.r_pn(ri.SampledPath(x + 7.5), 1).value
        s2 = ri.r_pn(ri.SampledPath(x + 2.0 * t - 0.5), 2).value
        worst_poly = max(worst_poly, abs(s1 - b1) / b1 if b1 else 0.0,
                         abs(s2 - b2) / b2 if b2 else 0.0)
    record(8, "exact scale/sign/polynomial invariances", worst_poly <= 1e-9,
           f"1000 paths; worst polynomial-trend relative shift {worst_poly:.2e}")


def test_criterion_09_smooth_function_limit():
    rep = exp_smooth_limit(n_values=(10**3, 10**4, 10**5))
    report_criterion(9, "smooth-function limit", rep)


def test_criterion_10_levy_estimator(levy_report):
    report_criterion(10, "stable-index estimator CLT", levy_report,
                     lambda v: "sign-indicator" not in v.name)


def test_criterion_11_zero_crossing_contrast(levy_report):
    report_criterion(11, "zero-crossing statistic ignores alpha", levy_report,
                     lambda v: "sign-indicator" in v.name)


def test_criterion_12_mbm_mean_exponent():
    rep = exp_local_mbm(n=2**13, reps=200, seed=1006, h_span=(0.3, 0.7),
                        t0s=(0.2, 0.8), w=0.8, mean_tol=0.05, order_frac=0.95)
    report_criterion(12, "mBm mean exponent and local ordering", rep)
