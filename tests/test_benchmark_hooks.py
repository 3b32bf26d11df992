"""The benchmark's traced run replaces library attributes by timing
wrappers, its experiments workload passes fixed options, and its tables
workload checks the tables it builds; each patch point must still exist,
each option must still bind, and each table check must still pass."""

import importlib
import inspect
from pathlib import Path

import pytest

from roughir.experiments import EXPERIMENTS
from roughir.gaussian import build_variance_table
from roughir.stable import build_stable_table
from roughir.tableio import (load_stable_table, load_variance_table, save_stable_table,
                             save_variance_table)

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


def test_tables_output_checks_pass(workloads, tmp_path):
    # the tables workload's own checks on small tables: a field or file
    # format change that would fail that workload fails here first
    vt = build_variance_table(reps=100, path_len=64, seed=1, h_grid=[0.6, 0.7, 0.8])
    st = build_stable_table(reps=20_000, seed=2)
    save_variance_table(vt, tmp_path / "gaussian.tsv")
    save_stable_table(st, tmp_path / "stable.tsv")
    vt2 = load_variance_table(tmp_path / "gaussian.tsv")
    st2 = load_stable_table(tmp_path / "stable.tsv")
    assert workloads.Tables._check_variance(vt, vt2) == []
    assert workloads.Tables(0, None, tmp_path)._check_stable(st, st2) == []
