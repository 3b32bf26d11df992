import json
import os
import subprocess
import sys

import numpy as np
import pytest

import roughir as ri
from roughir import cli
from roughir.cli import main


@pytest.fixture()
def table_dir(tmp_path, variance_table, stable_table):
    """A table directory pre-seeded with the session tables, so estimate
    commands never fall back to slow auto-builds."""
    d = tmp_path / "tables"
    d.mkdir()
    ri.save_variance_table(variance_table, str(d / "gaussian.tsv"))
    ri.save_stable_table(stable_table, str(d / "stable.tsv"))
    return str(d)


def run(*argv):
    return main(list(argv))


def test_cli_import_leaves_scipy_stats_unloaded():
    # the estimators' interval quantile comes from the standard library;
    # scipy.stats alone would add most of a second to every CLI start
    src = os.path.dirname(os.path.dirname(os.path.abspath(ri.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, roughir.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def cold_inputs(tmp_path_factory):
    """A path file and small prebuilt tables for fresh CLI processes."""
    d = tmp_path_factory.mktemp("cold")
    grid = np.round(np.arange(0.05, 0.9501, 0.05), 10)
    s1 = np.where(grid < 0.75, 0.3, np.nan)
    s2 = 0.2 + 0.1 * grid
    ri.save_variance_table(ri.VarianceTable(grid, s1, 0.1 * s1, s2, 0.1 * s2, reps=100,
                                            path_len=256, seed=0), str(d / "gaussian.tsv"))
    ri.save_stable_table(ri.build_stable_table(reps=10_000, alpha_grid=[0.5, 1.0, 1.5, 2.0]),
                         str(d / "stable.tsv"))
    ri.write_path(ri.sim_fbm(1024, 0.6, 3), str(d / "fbm.tsv"), kind="fbm", seed=3)
    return d


@pytest.mark.parametrize("command", [
    ["simulate", "--kind", "fbm", "--h", "0.7", "--n", "512", "--seed", "1", "--out", "{d}/sim.tsv"],
    ["estimate", "--strict", "--method", "hurst", "--input", "{d}/fbm.tsv"],
    ["estimate", "--strict", "--method", "alpha", "--input", "{d}/fbm.tsv"],
    ["estimate", "--strict", "--method", "local", "--input", "{d}/fbm.tsv"],
], ids=["simulate", "hurst", "alpha", "local"])
def test_cli_commands_load_no_scipy(cold_inputs, command):
    # a fresh process pays for every import; none of these commands needs
    # scipy, which would add most of a second to each start
    argv = ["--table-dir", str(cold_inputs)] + [a.format(d=cold_inputs) for a in command]
    src = os.path.dirname(os.path.dirname(os.path.abspath(ri.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import json, sys; from roughir.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([code, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]


class TestEstimateOutputPinned:
    """Every line `roughir estimate` prints, in order, each value formatted
    from the library's own result on the same file and table."""

    DEGENERATE = ("diagnostic=degenerate (0/0 convention dominates; "
                  "constant or heavily quantized input)")

    @pytest.fixture(scope="class")
    def files(self, cold_inputs, tmp_path_factory):
        d = tmp_path_factory.mktemp("pinned")
        sine = ri.SampledPath(np.sin(2 * np.pi * np.linspace(0.0, 1.0, 1025)))
        for name, path in [("levy", ri.sim_levy_stable(1024, 1.2, seed=5)), ("sine", sine),
                           ("const", ri.SampledPath(np.full(64, 3.0))),
                           ("steep", ri.sim_fbm(8192, 0.97, seed=0))]:
            ri.write_path(path, str(d / f"{name}.tsv"))
        for name in ("fbm", "gaussian", "stable"):
            (d / f"{name}.tsv").write_bytes((cold_inputs / f"{name}.tsv").read_bytes())
        return d

    def estimate(self, d, capsys, method, name, *extra):
        """(exit code, stdout lines, stderr, head lines, path) of one estimate
        run; the head lines are those every run prints before its estimate."""
        f = str(d / f"{name}.tsv")
        out = d / "est.txt"
        if out.exists():
            out.unlink()
        code = run("--table-dir", str(d), "estimate", "--strict", "--method", method,
                   "--input", f, *extra, "--out", str(out))
        captured = capsys.readouterr()
        if code == 0:
            assert out.read_text() == captured.out
        else:
            assert not out.exists()
        path, _ = ri.read_path(f)
        stat = {"hurst": lambda: ri.r_pn(path, 2), "alpha": lambda: ri.r_tilde_2n(path),
                "local": lambda: ri.r_local(path, 0.5, 0.6)}[method]()
        head = [f"input={f}", f"n={path.n}", f"method={method}",
                f"statistic={stat.value:.17g}", f"terms={stat.terms}",
                f"zero_over_zero={stat.zero_over_zero}"]
        return code, captured.out.splitlines(), captured.err, head, path

    @staticmethod
    def interval(name, value, est):
        return [f"{name}={value:.6f}", f"stderr={est.stderr:.6f}", f"ci_low={est.ci_low:.6f}",
                f"ci_high={est.ci_high:.6f}", "confidence=0.95"]

    def test_hurst(self, files, capsys):
        code, lines, err, head, path = self.estimate(files, capsys, "hurst", "fbm")
        est = ri.estimate_H(path, ri.load_variance_table(str(files / "gaussian.tsv")))
        assert (code, err) == (0, "")
        assert lines == head + self.interval("h_hat", est.h_hat, est)

    @pytest.mark.parametrize("name, clamped", [("levy", False), ("sine", True)])
    def test_alpha(self, files, capsys, name, clamped):
        code, lines, err, head, path = self.estimate(files, capsys, "alpha", name)
        est = ri.estimate_alpha(path, ri.load_stable_table(str(files / "stable.tsv")))
        assert est.clamped == clamped
        diagnostic = ["diagnostic=clamped (statistic outside the tabulated range)"]
        assert (code, err) == (0, "")
        assert lines == head + self.interval("alpha_hat", est.alpha_hat, est) + \
            diagnostic * clamped

    @pytest.mark.parametrize("name", ["fbm", "sine"])
    def test_local(self, files, capsys, name):
        code, lines, err, head, path = self.estimate(files, capsys, "local", name)
        try:
            h_local = f"{ri.invert_Lambda2(ri.r_local(path, 0.5, 0.6).value):.6f}"
        except ri.RangeError as e:
            h_local = f"out-of-range ({e.low:.4f}, {e.high:.4f})"
        assert h_local.startswith("out-of-range") == (name == "sine")
        assert (code, err) == (0, "")
        assert lines == head + [f"h_local={h_local}"]

    @pytest.mark.parametrize("method", ["hurst", "alpha"])
    def test_degenerate(self, files, capsys, method):
        code, lines, err, head, _ = self.estimate(files, capsys, method, "const")
        assert (code, err) == (1, "error: statistic is 0/0-dominated; no roughness information\n")
        assert lines == head + [self.DEGENERATE]

    def test_hurst_out_of_grid(self, files, capsys):
        code, lines, err, head, path = self.estimate(files, capsys, "hurst", "steep")
        with pytest.raises(ri.InterpolationError) as exc:
            ri.estimate_H(path, ri.load_variance_table(str(files / "gaussian.tsv")))
        assert (code, err) == (1, f"error: {exc.value}\n")
        assert lines == head


class TestSimulate:
    def test_fbm_file_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run("simulate", "--kind", "fbm", "--h", "0.7", "--n", "1024",
                   "--seed", "1", "--out", str(a)) == 0
        assert run("simulate", "--kind", "fbm", "--h", "0.7", "--n", "1024",
                   "--seed", "1", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_h_nonzero_exit(self, tmp_path, capsys):
        code = run("simulate", "--kind", "fbm", "--h", "1.2", "--n", "64",
                   "--seed", "1", "--out", str(tmp_path / "x.tsv"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("kind=levy-stable\nn=512\nseed=3\nalpha=1.5\n")
        out = tmp_path / "p.tsv"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        path, meta = ri.read_path(str(out))
        assert meta["kind"] == "levy_stable"
        assert path.n == 512

    def test_config_refine_and_x0_match_the_flags(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("kind=diffusion\nn=64\nseed=3\npreset=mean-reverting\n"
                       "refine=16\nx0=5\n")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run("simulate", "--config", str(cfg), "--out", str(a)) == 0
        assert run("simulate", "--kind", "diffusion", "--n", "64", "--seed", "3",
                   "--diffusion", "mean-reverting", "--refine", "16", "--x0", "5",
                   "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("kind=levy-stable\nn=64\nalpha=1.5\nalpah=1.5\n")
        out = tmp_path / "x.tsv"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key(s) alpah ") and "Traceback" not in err
        assert not out.exists()

    def test_trend_preset(self, tmp_path):
        out = tmp_path / "t.tsv"
        assert run("simulate", "--kind", "brownian", "--n", "128", "--seed", "2",
                   "--trend", "smooth", "--out", str(out)) == 0
        path, _ = ri.read_path(str(out))
        assert path.values[0] == 0.0  # beta(0) = 0

    def test_every_kind_reachable(self, tmp_path):
        cases = [
            ("mbm", ["--h-start", "0.3", "--h-end", "0.7"]),
            ("multiscale-fbm", ["--band", "1:0.8", "--band", "1:0.4",
                                "--breaks", "32"]),
            ("diffusion", ["--diffusion", "mean-reverting", "--refine", "16"]),
            ("levy-compound", ["--a-weight", "1.0", "--rate", "4.0"]),
        ]
        for kind, extra in cases:
            out = tmp_path / f"{kind}.tsv"
            code = run("simulate", "--kind", kind, "--n", "128", "--seed", "3",
                       *extra, "--out", str(out))
            assert code == 0, kind
            path, meta = ri.read_path(str(out))
            assert path.n == 128
            assert meta["kind"] == kind.replace("-", "_")

    @pytest.mark.parametrize("kind, extra, params", [
        ("mbm", ["--h-start", "0.3", "--h-end", "0.7"], "H=0.0:0.3;1.0:0.7"),
        ("multiscale-fbm", ["--band", "1:0.8", "--band", "1:0.4", "--breaks", "32"],
         "breaks=32.0,sigmas=1.0;1.0,hursts=0.8;0.4"),
        ("multiscale-fbm", ["--band", "2:0.5"], "breaks=,sigmas=2.0,hursts=0.5"),
    ], ids=["mbm", "multiscale", "one-band"])
    def test_list_parameters_in_header(self, tmp_path, kind, extra, params):
        out = tmp_path / "x.tsv"
        assert run("simulate", "--kind", kind, "--n", "64", "--seed", "1", *extra,
                   "--out", str(out)) == 0
        assert ri.read_path(str(out))[1]["params"] == params

    @pytest.mark.parametrize("argv, config, flag", [
        (["--kind", "fbm", "--n", "64"], None, "--h"),
        (["--kind", "levy-stable", "--n", "64"], None, "--alpha"),
        (["--kind", "mbm", "--n", "64", "--h-start", "0.3"], None, "--h"),
        (["--kind", "multiscale-fbm", "--n", "64", "--band", "1x0.3"], None, "--band"),
        (["--kind", "multiscale-fbm", "--n", "64", "--band", "1:0.3", "--breaks", "abc"],
         None, "--breaks"),
        ([], "kind=fbm\nh=0.5\nn=abc\n", "--n"),
        ([], "kind=fbm\nh=0.5\nn=64\ntrend=bogus\n", "--trend"),
        ([], "kind=diffusion\nn=64\npreset=bogus\n", "--diffusion"),
    ])
    def test_missing_or_malformed_parameter_usage_error(self, tmp_path, capsys, argv,
                                                         config, flag):
        if config is not None:
            (tmp_path / "sim.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "sim.cfg")]
        out = tmp_path / "x.tsv"
        assert run("simulate", *argv, "--seed", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{flag} " in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--table-dir", "{d}", "tables", "--kind", "stable", "--reps", "10000", "--seed", "-5"],
    ["experiment", "--name", "trend-robustness", "--seed", "-1", "--n", "64", "--reps", "2"],
], ids=["tables", "experiment"])
def test_negative_seed_usage_error(tmp_path, capsys, argv):
    assert run(*[a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error: seeds and derivation keys must be nonnegative" in err
    assert "Traceback" not in err


def test_estimate_takes_no_seed(tmp_path, capsys):
    # a fallback table is built with its builder's seed, so estimate has none
    ri.write_path(ri.sim_fbm(64, 0.5, 1), str(tmp_path / "p.tsv"))
    assert run("--table-dir", str(tmp_path), "estimate", "--input",
               str(tmp_path / "p.tsv"), "--seed", "1") == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_jump_count_above_cap_usage_error(tmp_path, capsys):
    out = tmp_path / "x.tsv"
    assert run("simulate", "--kind", "levy-compound", "--n", "2048", "--stable-alpha", "1.66",
               "--stable-cutoff", "1e-5", "--stable-c", "2.7", "--out", str(out)) == 2
    assert "error: 5.39e+08 expected jumps" in capsys.readouterr().err
    assert not out.exists()


class TestEstimate:
    def test_hurst_round_trip(self, tmp_path, table_dir):
        f = tmp_path / "p.tsv"
        run("simulate", "--kind", "fbm", "--h", "0.5", "--n", "4096",
            "--seed", "4", "--out", str(f))
        code = run("--table-dir", table_dir, "estimate", "--input", str(f),
                   "--method", "hurst")
        assert code == 0

    def test_hurst_output_values(self, tmp_path, table_dir, capsys):
        f = tmp_path / "p.tsv"
        run("simulate", "--kind", "fbm", "--h", "0.5", "--n", "4096",
            "--seed", "4", "--out", str(f))
        capsys.readouterr()
        out = tmp_path / "est.txt"
        run("--table-dir", table_dir, "estimate", "--input", str(f), "--out", str(out))
        text = capsys.readouterr().out
        h_hat = float([l for l in text.splitlines() if l.startswith("h_hat=")][0]
                      .split("=")[1])
        assert abs(h_hat - 0.5) < 0.2
        assert out.read_text() == text

    def test_out_of_grid_hurst_verdict_failure(self, tmp_path, table_dir, capsys):
        # h_hat = 0.9765 lies beyond the variance grid: a verdict, not a usage error
        f = tmp_path / "p.tsv"
        ri.write_path(ri.sim_fbm(8192, 0.97, seed=0), str(f), kind="fbm")
        code = run("--table-dir", table_dir, "estimate", "--input", str(f))
        assert code == 1
        captured = capsys.readouterr()
        assert "statistic=" in captured.out
        assert "outside the tabulated grid" in captured.err

    def test_alpha_method(self, tmp_path, table_dir, capsys):
        f = tmp_path / "p.tsv"
        run("simulate", "--kind", "levy-stable", "--alpha", "1.2", "--n", "8192",
            "--seed", "5", "--out", str(f))
        assert run("--table-dir", table_dir, "estimate", "--input", str(f),
                   "--method", "alpha") == 0
        text = capsys.readouterr().out
        a_hat = float([l for l in text.splitlines() if l.startswith("alpha_hat=")][0]
                      .split("=")[1])
        assert abs(a_hat - 1.2) < 0.4

    def test_local_method(self, tmp_path, table_dir):
        f = tmp_path / "p.tsv"
        run("simulate", "--kind", "fbm", "--h", "0.6", "--n", "4096",
            "--seed", "6", "--out", str(f))
        assert run("--table-dir", table_dir, "estimate", "--input", str(f),
                   "--method", "local", "--t0", "0.5", "--window", "0.7") == 0

    def test_p_option_prints_raw_statistic(self, tmp_path, table_dir, capsys):
        f = tmp_path / "p.tsv"
        run("simulate", "--kind", "fbm", "--h", "0.5", "--n", "1024",
            "--seed", "8", "--out", str(f))
        assert run("--table-dir", table_dir, "estimate", "--input", str(f),
                   "--p", "1") == 0
        assert "r_p1=" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["hurst", "alpha"])
    def test_constant_file_verdict_failure(self, tmp_path, table_dir, capsys, method):
        f = tmp_path / "c.tsv"
        ri.write_path(ri.SampledPath(np.full(64, 3.0)), str(f), kind="data")
        code = run("--table-dir", table_dir, "estimate", "--input", str(f),
                   "--method", method)
        assert code == 1
        captured = capsys.readouterr()
        assert "0/0" in captured.err
        assert "diagnostic=degenerate" in captured.out

    def test_nan_file_parse_error(self, tmp_path, table_dir, capsys):
        f = tmp_path / "bad.tsv"
        f.write_text("0\t0.0\n0.5\tnan\n1\t1.0\n")
        code = run("--table-dir", table_dir, "estimate", "--input", str(f))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_strict_requires_tables(self, tmp_path, capsys):
        f = tmp_path / "p.tsv"
        run("simulate", "--kind", "fbm", "--h", "0.5", "--n", "1024",
            "--seed", "7", "--out", str(f))
        code = run("--table-dir", str(tmp_path / "none"), "estimate",
                   "--input", str(f), "--strict")
        assert code == 2
        assert "strict" in capsys.readouterr().err

    def test_missing_table_served_from_cache_with_warning(self, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.setitem(cli.AUTO, "stable", dict(reps=20_000))
        f = tmp_path / "p.tsv"
        ri.write_path(ri.sim_levy_stable(1024, 1.2, seed=3), str(f), kind="levy_stable")
        d = tmp_path / "tables"
        outputs = []
        for _ in range(2):
            assert run("--table-dir", str(d), "estimate", "--input", str(f),
                       "--method", "alpha") == 0
            captured = capsys.readouterr()
            assert "warning" in captured.err and "reduced" in captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert not (d / "stable.tsv").exists()
        assert len(list(d.iterdir())) == 1

    def test_fallback_table_shared_by_every_command_and_seed(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setitem(cli.AUTO, "stable", dict(reps=20_000))
        d = tmp_path / "tables"
        for seed in ("1", "2"):
            assert run("--table-dir", str(d), "experiment", "--name", "levy-clt",
                       "--seed", seed, "--n", "64", "--reps", "2",
                       "--alpha-list", "1.2") in (0, 1)
        f = tmp_path / "p.tsv"
        ri.write_path(ri.sim_levy_stable(1024, 1.2, seed=3), str(f), kind="levy_stable")
        assert run("--table-dir", str(d), "estimate", "--input", str(f),
                   "--method", "alpha") == 0
        assert "with seed" not in capsys.readouterr().err
        (cached,) = d.iterdir()
        assert cached.name.startswith("stable-reps20000-")
        assert "# seed=20240602" in cached.read_text().splitlines()


class TestTables:
    def test_rebuild_identical(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            assert run("tables", "--kind", "stable", "--reps", "20000",
                       "--seed", "9", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_seed_is_the_builders(self, tmp_path, capsys):
        out = tmp_path / "s.tsv"
        assert run("tables", "--kind", "stable", "--reps", "20000", "--out", str(out)) == 0
        assert "# seed=20240602" in out.read_text().splitlines()
        assert "seed=20240602)" in capsys.readouterr().out

    def test_out_elsewhere_creates_no_table_dir(self, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.delenv("ROUGHIR_TABLE_DIR", raising=False)
        out = tmp_path / "s.tsv"
        assert run("tables", "--kind", "stable", "--reps", "20000", "--out", str(out)) == 0
        assert out.exists()
        assert list(work.iterdir()) == []

    def test_failed_build_creates_no_table_dir(self, tmp_path, capsys):
        d = tmp_path / "tables"
        assert run("--table-dir", str(d), "tables", "--kind", "stable",
                   "--reps", "10000", "--seed", "-5") == 2
        assert "error:" in capsys.readouterr().err
        assert not d.exists()

    def test_zero_reps_rejected(self, tmp_path, capsys):
        assert run("tables", "--kind", "stable", "--reps", "0",
                   "--out", str(tmp_path / "s.tsv")) == 2
        assert "replications" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_reports_progress_per_cell(self, tmp_path, capsys):
        out = tmp_path / "s.tsv"
        assert run("tables", "--kind", "stable", "--reps", "10000", "--out", str(out)) == 0
        captured = capsys.readouterr()
        cells = [line for line in captured.err.splitlines() if line.startswith("stable cell ")]
        total = ri.stable.ALPHA_GRID_DEFAULT.size
        assert [line.split(" (")[0] for line in cells] == [
            f"stable cell {i}/{total}" for i in range(1, total + 1)]
        assert all(line.endswith(" s)") for line in cells)
        assert captured.out.splitlines() == [f"wrote {out} (kind=stable, reps=10000, seed=20240602)"]

    def test_gaussian_columns_positive(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert run("tables", "--kind", "gaussian", "--reps", "100",
                   "--path-len", "256", "--seed", "10", "--out", str(out)) == 0
        t = ri.load_variance_table(str(out))
        assert t.sigma2.min() > 0

    def test_stable_columns_bounded(self, tmp_path):
        out = tmp_path / "s.tsv"
        assert run("tables", "--kind", "stable", "--reps", "20000",
                   "--seed", "11", "--out", str(out)) == 0
        t = ri.load_stable_table(str(out))
        assert t.lam.min() >= 0.5
        assert t.lam.max() <= 1.0


class TestExperimentCommand:
    def test_clt_fbm_failed_estimates_still_report(self, tmp_path, capsys,
                                                   coarse_variance_table):
        d = tmp_path / "tables"
        d.mkdir()
        ri.save_variance_table(coarse_variance_table, str(d / "gaussian.tsv"))
        out = tmp_path / "rep.json"
        code = run("--table-dir", str(d), "experiment", "--name", "clt-fbm", "--h", "0.33",
                   "--n", "256", "--reps", "50", "--strict", "--out", str(out))
        assert code in (0, 1)
        assert "experiment clt-fbm:" in capsys.readouterr().out
        assert json.loads(out.read_text())["aggregates"]["H=0.33"]["estimates_failed"] > 0

    def test_smooth_limit_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run("experiment", "--name", "smooth-limit", "--out", str(out))
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_trend_small(self, capsys):
        code = run("experiment", "--name", "trend-robustness", "--n", "512",
                   "--reps", "10", "--seed", "3")
        assert code == 0

    def test_usage_error_exit_two(self):
        assert run("experiment", "--name", "not-an-experiment") == 2

    def test_report_echoes_given_options(self, tmp_path, table_dir, variance_table,
                                         capsys):
        out = tmp_path / "r.json"
        code = run("--table-dir", table_dir, "experiment", "--name", "clt-fbm",
                   "--strict", "--h", "0.5", "--n", "512", "--reps", "100",
                   "--seed", "5", "--out", str(out))
        assert code in (0, 1)  # seeded verdicts may fail at this size
        config = json.loads(out.read_text())["config"]
        assert {k: config[k] for k in ("h_values", "n", "reps", "seed", "conf")} == \
            {"h_values": [0.5], "n": 512, "reps": 100, "seed": 5, "conf": 0.95}
        assert config["table_reps"] == variance_table.reps

    @pytest.mark.parametrize("name, flag, value, least", [
        ("trend-robustness", "--n", "0", 1),
        ("trend-robustness", "--reps", "0", 1),
        # these take a sample variance over the replications
        ("clt-fbm", "--reps", "1", 2),
        ("diffusion-rate", "--reps", "1", 2),
        ("levy-clt", "--reps", "1", 2),
    ], ids=["--n", "--reps", "clt-fbm-reps-1", "diffusion-rate-reps-1", "levy-clt-reps-1"])
    def test_zero_size_reaches_experiment(self, table_dir, name, flag, value, least, capsys):
        assert run("--table-dir", table_dir, "experiment", "--name", name, "--strict",
                   flag, value) == 2
        assert f">= {least}" in capsys.readouterr().err


class TestEnvTableDir:
    def test_env_variable_respected(self, tmp_path, monkeypatch, variance_table,
                                    stable_table, capsys):
        d = tmp_path / "envtables"
        d.mkdir()
        ri.save_variance_table(variance_table, str(d / "gaussian.tsv"))
        monkeypatch.setenv("ROUGHIR_TABLE_DIR", str(d))
        f = tmp_path / "p.tsv"
        run("simulate", "--kind", "fbm", "--h", "0.5", "--n", "2048",
            "--seed", "12", "--out", str(f))
        assert run("estimate", "--input", str(f)) == 0
        # no auto-build warning: the env-resolved table was found
        assert "building" not in capsys.readouterr().err
