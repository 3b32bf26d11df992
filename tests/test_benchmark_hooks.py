"""The benchmark's traced run replaces library attributes by timing
wrappers, and its experiments workload passes fixed options; each patch
point must still exist, and each option must still bind."""

import importlib
import inspect
from pathlib import Path

import pytest

from roughir.experiments import EXPERIMENTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_every_patch_point_exists(workloads):
    assert workloads.PATCHES
    missing = [(owner.__name__, attr) for owner, attr, *_ in workloads.PATCHES
               if attr not in owner.__dict__]
    assert missing == []


def test_every_experiment_option_binds(workloads):
    # the workload adds seed= to all but smooth-limit and passes both tables
    config = workloads.Experiments.config["experiments"]
    assert set(config) == set(EXPERIMENTS)
    for name, options in config.items():
        signature = inspect.signature(EXPERIMENTS[name])
        tables = {k: None for k in signature.parameters if k.endswith("_table")}
        seed = {} if name == "smooth-limit" else {"seed": 0}
        signature.bind(**tables, **options, **seed)
