"""Smoke-sized runs of every workload, and the benchmark's failure contract.

    python3 -m pytest -q perfbench/tests

Each workload runs once untraced and once traced on one seed, with the
shortest measurement (--seconds 0) and the op floors lowered to the eleven
samples a tail latency needs.  The whole file takes about two minutes on
two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    out = run.OUT / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return last, json.loads(out.read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, capsys, monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS[workload], "min_ops", 11)
    last, result = _run(capsys, workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], result["failures"]
    assert last["attempted"] >= 11
    assert [m for m in last["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())
    prov = result["provenance"]
    assert prov["seed"] == 3 and prov["held_out_seed"] != 3 and prov["nproc"] >= 1

    traced_last, traced = _run(capsys, workload, 1)
    assert traced_last["correct"], traced["failures"]
    assert [m for m in traced_last["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    assert traced["spans"]
    assert "trace.overhead_ratio" not in traced["not_exercised"]
    # same code and seed: identical outputs, traced or not
    assert traced["digest"] == result["digest"]


def test_estimate_records_out_of_grid_defect_apart_from_ops(capsys, monkeypatch):
    monkeypatch.setattr(workloads.Estimate, "min_ops", 11)
    last, result = _run(capsys, "estimate", 1)
    assert last["failed"] == 0
    assert last["metrics"]["gaussian.estimate_H.failed"]["value"] > 0
    (probe,) = result["known_defects"].values()
    assert any("InterpolationError" in key for key in probe["errors"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "estimate", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    t = Tracer()

    def outer():
        t.call("inner", sum, range(10_000))
        return 1

    with t.active():
        t.call("outer", outer)
    (i_outer,), (i_inner,) = t.select("outer"), t.select("inner")
    assert t.spans[i_inner][3] == i_outer
    own = t.self_times()
    outer_dur = t.spans[i_outer][2] - t.spans[i_outer][1]
    inner_dur = t.spans[i_inner][2] - t.spans[i_inner][1]
    assert own[i_outer] == pytest.approx(outer_dur - inner_dur)
    assert own[i_inner] == pytest.approx(inner_dur)


def test_compare_reports_changed_digests_and_regressions(tmp_path):
    import compare

    def write(side, seed, digest, wall):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        d = tmp_path / side
        d.mkdir(exist_ok=True)
        (d / f"BENCH_tables_seed{seed}_trace0.json").write_text(json.dumps(
            {"provenance": {"workload": "tables", "seed": seed}, "digest": digest,
             "metrics": metrics}))

    for seed in (1, 2):
        write("before", seed, "a", 1.0)
        write("after", seed, "a" if seed == 1 else "b", 2.0)
    lines = compare.compare(compare.load(tmp_path / "before"),
                            compare.load(tmp_path / "after"), SPEC)
    assert any("wall_s" in line and "WORSE THAN BOUND" in line for line in lines)
    assert not any("setup_s" in line and "WORSE" in line for line in lines)
    assert "  seed 1: digest same" in lines and "  seed 2: digest CHANGED" in lines
