import os

import pytest

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
