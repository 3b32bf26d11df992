"""Hurst estimation from one path, with confidence intervals.

The estimator inverts the closed-form limit of the second-order ratio
statistic.  Its confidence interval needs the asymptotic variance of the
statistic, which comes from a Monte Carlo table built once and reused.
The statistic only sees local roughness, so smooth multiplicative and
additive trends barely move the estimate.
"""

import math

import numpy as np

import roughir as ri

print("building a reduced variance table (a production one would use "
      "`roughir tables --kind gaussian`) ...")
table = ri.build_variance_table(reps=300, path_len=1024, seed=99)

n, H = 2**13, 0.65
path = ri.sim_fbm(n, H, seed=12345)
est = ri.estimate_H(path, table)
print(f"\ntrue H = {H}")
print(f"estimate  {est.value:.4f} +- {est.stderr:.4f}  "
      f"(95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}])")
print(f"raw statistic {est.statistic.value:.5f} over {est.statistic.terms} terms")

print("\nsame path under a smooth trend 3*(2+sin(2 pi t))*X + t^2:")
trended = ri.apply_trend(path, lambda t: 6.0 + 3.0 * math.sin(2 * math.pi * t),
                         lambda t: t * t)
est_t = ri.estimate_H(trended, table)
print(f"estimate  {est_t.value:.4f}  (shift {abs(est_t.value - est.value):.5f})")

print("\ncoverage check over 100 seeded replications:")
hits = 0
for i in range(100):
    p = ri.FbmSampler(n, H).sample_path(ri.derive_rng(777, i))
    e = ri.estimate_H(p, table)
    hits += e.ci_low <= H <= e.ci_high
print(f"95% intervals covered the true H in {hits}/100 runs")

print("\nquick-and-dirty variant: the limit curve is nearly linear in H,")
print("so (statistic - 0.5174) / 0.1468 is a tuning-free point estimate:")
v = ri.r_pn(path, 2).value
print(f"  linearized estimate {(v - 0.5174) / 0.1468:.4f}")
