import os

import pytest

from roughir.gaussian import build_variance_table
from roughir.tableio import cached_table

# Full-precision limit tables take minutes to build; cached_table keeps them
# here, keyed by build parameters and a digest of the package sources.
CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", ".cache-tables")


@pytest.fixture(scope="session")
def variance_table():
    return cached_table("gaussian", CACHE_DIR, reps=2000, path_len=4096, seed=20240601)


@pytest.fixture(scope="session")
def stable_table():
    return cached_table("stable", CACHE_DIR, reps=2_000_000, seed=20240602)


@pytest.fixture(scope="session")
def coarse_variance_table():
    """A small, coarse table on which single fBm paths at n=256 often
    estimate an H outside the grid or a statistic outside the attainable
    range."""
    return build_variance_table(h_grid=[0.1, 0.3, 0.5, 0.7, 0.9], reps=100,
                                path_len=256, seed=1)
