"""roughir: increment-ratio roughness statistics for sampled paths.

The package measures path roughness through ratios of consecutive
increments, turns the closed-form Gaussian limits of those ratios into a
Hurst-exponent estimator with confidence intervals, estimates the
fractional index of jump paths through a Monte Carlo limit table, and
ships simulators plus a verification harness for the supporting limit
theorems at desk scale.
"""

from .errors import (DomainError, FactorizationError, InterpolationError,
                     ParseError, RangeError, ResolutionError, RoughIRError,
                     SimulationError, SizeError)
from .gaussian import (HurstEstimate, VarianceTable, build_variance_table,
                       estimate_H, fbm_increment_cov, invert_Lambda2, lam,
                       lam0, Lambda_p, rho_p, s2_sq, sigma_p_mc)
from .increments import (Filter, SampledPath, filtered_increment,
                         filtered_increment_array, make_binomial_filter,
                         p_increment, p_increment_array)
from .pathio import read_path, write_path
from .rng import derive_rng
from .simulate import (FbmSampler, MbmSampler, SimSpec, apply_trend,
                       sim_brownian, sim_diffusion, sim_fbm, sim_levy_compound,
                       sim_levy_stable, sim_mbm, sim_multiscale_fbm, simulate)
from .stable import (AlphaEstimate, LambdaTildeTable, build_stable_table,
                     estimate_alpha, invert_lambda_tilde, sample_sym_stable)
from .statistics import (IRSummary, psi, psi0, r0_pn, r0_tilde_2n, r_an,
                         r_local, r_pn, r_tilde_2n)
from .tableio import (load_stable_table, load_variance_table,
                      save_stable_table, save_variance_table)

__version__ = "0.1.0"
