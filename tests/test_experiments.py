import inspect
import json

import numpy as np
import pytest

import roughir as ri
from roughir import experiments
from roughir.experiments import (exp_clt_fbm, exp_diffusion_rate,
                                 exp_levy_clt, exp_local_mbm,
                                 exp_smooth_limit, exp_trend_robustness,
                                 run_experiment)
from roughir.rng import derive_rng

NOTES = {"diffusion-rate": {"sde"}, "trend-robustness": {"trend"}, "smooth-limit": {"f"}}


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

    @pytest.mark.parametrize("p, h_values, error, match", [
        (1, (0.8,), ri.DomainError, "3/4"),
        (2, (0.5, 0.97), ri.InterpolationError, "outside the tabulated grid"),
    ], ids=["sigma1-diverges", "past-the-grid"])
    def test_clt_fbm_missing_variance_before_any_draw(self, variance_table, monkeypatch,
                                                      p, h_values, error, match):
        draws = []
        sample_path = ri.FbmSampler.sample_path
        monkeypatch.setattr(ri.FbmSampler, "sample_path",
                            lambda self, rng: draws.append(1) or sample_path(self, rng))
        with pytest.raises(error, match=match):
            exp_clt_fbm(variance_table, h_values=h_values, p=p, n=64, reps=7)
        assert draws == []

    def test_clt_fbm_grades_off_grid_h_against_the_interpolant(self, variance_table):
        rep = exp_clt_fbm(variance_table, h_values=(0.52,), n=256, reps=4, seed=3)
        sigma = variance_table.sigma(2, 0.52)
        assert 0.52 not in variance_table.h_grid
        assert rep.aggregates["H=0.52"]["table_entry"] == sigma
        assert [v.target for v in rep.verdicts if v.name.startswith("n*var")] == [sigma]

    @pytest.mark.parametrize("H, seed", [(0.33, 1001), (0.2, 2)],
                             ids=["h-hat-below-grid", "statistic-out-of-range"])
    def test_clt_fbm_failed_estimate_keeps_its_replication(self, coarse_variance_table,
                                                           monkeypatch, H, seed):
        # one replication's RangeError used to end the run; each now counts
        # as an interval that misses H, and keeps its statistic
        calls = []
        r_pn = experiments.r_pn
        monkeypatch.setattr(experiments, "r_pn",
                            lambda path, p: calls.append(p) or r_pn(path, p))
        rep = exp_clt_fbm(coarse_variance_table, h_values=(H,), n=256, reps=50, seed=seed)
        failed = rep.aggregates[f"H={H}"]["estimates_failed"]
        assert failed > 0
        assert calls == [2] * failed  # r_pn is rerun only for a failed estimate
        sampler = ri.FbmSampler(256, H)
        assert rep.replications[f"R2_H{H}"] == [
            ri.r_pn(sampler.sample_path(derive_rng(seed, "experiment", 1, 0, i)), 2).value
            for i in range(50)]
        coverage = [v.observed for v in rep.verdicts if "coverage" in v.name]
        assert coverage[0] <= 1.0 - failed / 50

    def test_levy_clt_small(self, stable_table):
        rep = exp_levy_clt(stable_table, alphas=(1.2,), n=2048, reps=120,
                           seed=12, var_rtol=0.35, psi0_alphas=(1.2,))
        assert rep.passed
        assert_config_echoes_arguments(rep, exp_levy_clt, stable_table, alphas=(1.2,),
                                       n=2048, reps=120, seed=12, var_rtol=0.35,
                                       psi0_alphas=(1.2,))

    @pytest.mark.parametrize("grid_end, alphas", [(None, (1.2, 0.01)), (-1, (1.2,))],
                             ids=["alpha-below-grid", "grid-without-alpha-2"])
    def test_levy_clt_missing_target_before_any_draw(self, stable_table, monkeypatch,
                                                     grid_end, alphas):
        columns = ("alpha_grid", "lam", "lam_stderr", "sigma_sq", "sigma_sq_stderr")
        table = ri.LambdaTildeTable(*(getattr(stable_table, c)[:grid_end] for c in columns),
                                    reps=stable_table.reps, seed=stable_table.seed)
        draws = []
        monkeypatch.setattr(experiments, "derive_rng",
                            lambda *key: draws.append(key) or derive_rng(*key))
        with pytest.raises(ri.RangeError, match="outside the tabulated grid"):
            exp_levy_clt(table, alphas=alphas, n=64, reps=3)
        assert draws == []

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

    def test_local_mbm_small(self):
        rep = exp_local_mbm(n=2048, reps=60, seed=14, mean_tol=0.1,
                            order_frac=0.8)
        assert rep.passed
        assert_config_echoes_arguments(rep, exp_local_mbm, n=2048, reps=60, seed=14,
                                       mean_tol=0.1, order_frac=0.8)

    def test_local_mbm_grades_against_the_mean_limit(self):
        # invert_Lambda2 of the Gauss-Legendre mean of Lambda_2(0.3 + 0.4 t)
        rep = exp_local_mbm(n=256, reps=4, seed=14)
        verdict = rep.verdicts[0]
        assert verdict.target == pytest.approx(0.502933, abs=1e-6)
        assert verdict.observed == ri.invert_Lambda2(np.mean(rep.replications["R2"]))
        assert rep.aggregates["hbar"] == verdict.observed

    def test_local_mbm_reports_phase_seconds_beside_elapsed(self):
        rep = exp_local_mbm(n=256, reps=4, seed=14)
        doc = json.loads(rep.to_json())
        assert set(doc["phase_s"]) == {"sampler", "draws", "statistics"}
        assert min(rep.phase_s.values()) >= 0.0
        assert sum(rep.phase_s.values()) <= rep.elapsed_s
        assert_config_echoes_arguments(rep, exp_local_mbm, n=256, reps=4, seed=14)

    def test_local_mbm_mean_beyond_the_limit_range_reads_as_the_end(self):
        # at n=256 the mean R for H near 1 exceeds Lambda_2(1-), which no H attains
        rep = exp_local_mbm(n=256, reps=8, seed=3, h_span=(0.9, 0.99))
        assert np.mean(rep.replications["R2"]) > ri.Lambda_p(2, 0.999999)
        assert rep.verdicts[0].observed == rep.aggregates["hbar"] == 1.0
        assert not rep.verdicts[0].passed
