"""The benchmark's traced run replaces library attributes by timing
wrappers; each one must still exist where the benchmark looks for it."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patch_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.PATCHES
    missing = [(owner.__name__, attr) for owner, attr, *_ in workloads.PATCHES
               if attr not in owner.__dict__]
    assert missing == []
