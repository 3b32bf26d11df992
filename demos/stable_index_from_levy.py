"""Fractional-index estimation for jump paths.

For a Levy path, second differences taken over disjoint windows are
independent and symmetric, whatever the jump skewness.  Their ratio
statistic converges to a curve in the small-jump activity index alpha,
tabulated by Monte Carlo and inverted here.  The sign-indicator variant
of the same statistic is blind to alpha: it sits at 1/2 for every
symmetric independent-increment path, which is exactly why the modulus
ratio is the one worth inverting.
"""

import numpy as np

import roughir as ri

print("building the limit table (reps=200k, ~3 s) ...")
table = ri.build_stable_table(reps=200_000, seed=2024)
print(f"curve at alpha=2: {table.lam[-1]:.4f}  "
      f"(closed-form Gaussian anchor {ri.lam(0.0):.4f})")

n = 2**13
print(f"\nestimates from single symmetric stable paths (n={n}):")
for alpha in (0.8, 1.2, 1.6, 2.0):
    path = ri.sim_levy_stable(n, alpha, seed=40 + int(10 * alpha))
    est = ri.estimate_alpha(path, table)
    note = "  (clamped at boundary)" if est.clamped else ""
    print(f"  true {alpha:.1f}: alpha_hat = {est.alpha_hat:.3f} "
          f"+- {est.stderr:.3f}{note}")

print("\nthe sign-indicator statistic cannot tell these apart:")
for alpha in (0.8, 1.8):
    vals = [ri.r0_tilde_2n(ri.sim_levy_stable(n, alpha, seed=900 + i)).value
            for i in range(50)]
    print(f"  alpha={alpha}: mean sign statistic {np.mean(vals):.4f} (limit 1/2)")

print("\ncompound path: Brownian part + finite-rate jumps looks Gaussian "
      "at small scales:")
comp = ri.sim_levy_compound(n, 1.0, seed=77, rate=10.0, jump_scale=3.0)
est = ri.estimate_alpha(comp, table)
print(f"  alpha_hat = {est.alpha_hat:.3f} (the Brownian component dominates, "
      "pushing the estimate to 2)")

comp2 = ri.sim_levy_compound(n, 0.0, seed=78, stable_alpha=1.2, stable_c=1.0,
                             stable_cutoff=1e-5)
est2 = ri.estimate_alpha(comp2, table)
print(f"  truncated power-law small jumps (index 1.2): alpha_hat = {est2.alpha_hat:.3f}")
