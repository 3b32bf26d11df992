"""Deterministic seed derivation.

All randomness in the package flows from a single 64-bit root seed.  A
generator for component ``name`` and replication ``rep`` is derived as

    default_rng(SeedSequence([root, COMPONENT_IDS[name], rep]))

so batch runs are reproducible and independent of scheduling order.
"""

import numpy as np

from .errors import DomainError

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


def _seed_sequence(root_seed, keys):
    ints = [int(root_seed)] + [COMPONENT_IDS[k] if isinstance(k, str) else int(k) for k in keys]
    if min(ints) < 0:
        raise DomainError("seeds and derivation keys must be nonnegative")
    return np.random.SeedSequence(ints)


def derive_rng(root_seed, *keys):
    """Generator derived from (root_seed, *keys); keys are small nonneg ints
    or component names from COMPONENT_IDS.  A negative one raises DomainError."""
    return np.random.default_rng(_seed_sequence(root_seed, keys))


def derive_seed(root_seed, *keys):
    """The first 32-bit word of derive_rng's SeedSequence for (root_seed, *keys)."""
    return int(_seed_sequence(root_seed, keys).generate_state(1)[0])
