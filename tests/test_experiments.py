import inspect
import json

import pytest

import roughir as ri
from roughir.experiments import (exp_clt_fbm, exp_diffusion_rate,
                                 exp_levy_clt, exp_local_mbm,
                                 exp_smooth_limit, exp_trend_robustness,
                                 run_experiment)

NOTES = {"diffusion-rate": {"sde"}, "trend-robustness": {"trend"},
         "smooth-limit": {"f"}, "local-mbm": {"linear_fit"}}


def assert_config_echoes_arguments(rep, fn, table=None, **given):
    """The config holds fn's non-table parameters, the table's build
    settings and the experiment's notes, and echoes the given values."""
    params = {k for k in inspect.signature(fn).parameters if not k.endswith("_table")}
    if table is not None:
        given.update(table_seed=table.seed, table_reps=table.reps)
        if hasattr(table, "path_len"):
            given["table_path_len"] = table.path_len
    assert set(rep.config) == params | set(given) | NOTES.get(rep.experiment, set())
    for key, value in given.items():
        assert rep.config[key] == (list(value) if isinstance(value, tuple) else value)


class TestReportMachinery:
    def test_smooth_limit_passes_and_serializes(self, tmp_path):
        rep = exp_smooth_limit()
        assert rep.passed
        assert_config_echoes_arguments(rep, exp_smooth_limit)
        doc = json.loads(rep.to_json())
        assert doc["experiment"] == "smooth-limit"
        assert all("tolerance" in v for v in doc["verdicts"])
        out = tmp_path / "report.json"
        rep.write(str(out))
        assert json.loads(out.read_text())["passed"] is True

    def test_per_replication_appendix(self, tmp_path):
        rep = exp_trend_robustness(h=0.5, n=256, pairs=10, seed=5)
        assert_config_echoes_arguments(rep, exp_trend_robustness, h=0.5, n=256,
                                       pairs=10, seed=5)
        out = tmp_path / "r.json"
        rep.write(str(out))
        appendix = (tmp_path / "r.json.reps.tsv").read_text().splitlines()
        assert appendix[0] == "abs_Hhat_shift"
        assert len(appendix) == 11

    def test_rerun_reproduces_numbers(self):
        a = exp_trend_robustness(h=0.6, n=512, pairs=8, seed=42)
        b = exp_trend_robustness(**{k: a.config[k] for k in ("h", "n", "pairs", "seed")})
        da, db = json.loads(a.to_json()), json.loads(b.to_json())
        da.pop("elapsed_s"), db.pop("elapsed_s")  # wall clock varies; numbers must not
        assert da == db
        assert a.replications == b.replications

    def test_unknown_name_rejected(self):
        with pytest.raises(ri.DomainError):
            run_experiment("nope")

    def test_missing_table_rejected(self):
        with pytest.raises(ri.DomainError, match="table"):
            run_experiment("clt-fbm")


class TestSmallScaleRuns:
    def test_clt_fbm_small(self, variance_table):
        rep = exp_clt_fbm(variance_table, h_values=(0.5,), n=1024, reps=120,
                          seed=11, var_rtol=0.35, coverage_band=(0.85, 1.0))
        assert rep.passed
        assert_config_echoes_arguments(rep, exp_clt_fbm, variance_table,
                                       h_values=(0.5,), n=1024, reps=120, seed=11,
                                       var_rtol=0.35, coverage_band=(0.85, 1.0))
        assert len(rep.replications["R2_H0.5"]) == 120

    def test_levy_clt_small(self, stable_table):
        rep = exp_levy_clt(stable_table, alphas=(1.2,), n=2048, reps=120,
                           seed=12, var_rtol=0.35, psi0_alphas=(1.2,))
        assert rep.passed
        assert_config_echoes_arguments(rep, exp_levy_clt, stable_table, alphas=(1.2,),
                                       n=2048, reps=120, seed=12, var_rtol=0.35,
                                       psi0_alphas=(1.2,))

    def test_levy_clt_boundary_alpha_two(self, stable_table):
        # at the alpha=2 boundary the experiment grades the statistic itself
        rep = exp_levy_clt(stable_table, alphas=(2.0,), n=4096, reps=200,
                           seed=15, var_rtol=0.35, psi0_alphas=())
        names = [v.name for v in rep.verdicts]
        assert "mean r_tilde at alpha=2" in names
        assert rep.passed

    def test_diffusion_rate_structure(self):
        # tiny grid: only the report structure and the R2 anchors are stable
        rep = exp_diffusion_rate(ns=(256, 1024), reps=60, seed=13, refine=16,
                                 slope_max=10.0)
        assert_config_echoes_arguments(rep, exp_diffusion_rate, ns=(256, 1024), reps=60,
                                       seed=13, refine=16, slope_max=10.0)
        names = [v.name for v in rep.verdicts]
        assert any("slope" in n for n in names)
        assert any("decreasing" in n for n in names)

    def test_local_mbm_small(self, variance_table):
        rep = exp_local_mbm(n=2048, reps=60, seed=14, mean_tol=0.1,
                            order_frac=0.8)
        assert rep.passed
        assert_config_echoes_arguments(rep, exp_local_mbm, n=2048, reps=60, seed=14,
                                       mean_tol=0.1, order_frac=0.8)
