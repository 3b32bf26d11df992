"""Deterministic seed derivation.

All randomness in the package flows from a single 64-bit root seed.  A
generator for component ``name`` and replication ``rep`` is derived as

    default_rng(SeedSequence([root, COMPONENT_IDS[name], rep]))

so batch runs are reproducible and independent of scheduling order.
"""

import numpy as np

COMPONENT_IDS = {
    "fbm": 1,
    "mbm": 2,
    "multiscale_fbm": 3,
    "diffusion": 4,
    "levy_stable": 5,
    "levy_compound": 6,
    "brownian": 7,
    "stable_table": 9,
    "experiment": 10,
    "stat_mc": 11,
}


def derive_rng(root_seed, *keys):
    """Generator derived from (root_seed, *keys); keys are small nonneg ints
    or component names from COMPONENT_IDS."""
    ints = [int(root_seed)]
    for k in keys:
        ints.append(COMPONENT_IDS[k] if isinstance(k, str) else int(k))
    if any(v < 0 for v in ints):
        raise ValueError("seeds and derivation keys must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(ints))
