import os
import stat
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import roughir as ri
from roughir import tableio
from roughir.cli import main
from roughir.errors import ParseError

STABLE_FILE = ("# schema=roughir-table-v1\n# kind=stable\n# reps=20000\n# seed=4\n"
               "# monotone_violations=0\n"
               "alpha\tlambda\tlambda_stderr\tsigma_sq\tsigma_sq_stderr\tdlambda_dalpha\n"
               "1\t0.8\t0.001\t0.1\t0.01\t-0.2\n2\t0.7\t0.001\t0.1\t0.01\t-0.2\n")
GAUSSIAN_FILE = ("# schema=roughir-table-v1\n# kind=gaussian\n# reps=100\n# path_len=256\n"
                 "# seed=3\nH\tp\tsigma\tmc_stderr\n"
                 "0.4\t1\t0.1\t0.01\n0.4\t2\t0.2\t0.01\n0.6\t2\t0.3\t0.01\n")


class TestPathFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        p = ri.sim_fbm(257, 0.37, seed=5)
        fn = tmp_path / "path.tsv"
        ri.write_path(p, str(fn), kind="fbm", seed=5, params={"H": 0.37})
        q, meta = ri.read_path(str(fn))
        assert np.array_equal(p.values, q.values)
        assert meta["kind"] == "fbm"
        assert meta["seed"] == "5"
        assert meta["params"] == "H=0.37"
        assert meta["n"] == "257"

    @settings(deadline=None, max_examples=50)
    @given(values=arrays(np.float64, st.integers(2, 40),
                         elements=st.floats(allow_nan=False, allow_infinity=False)),
           kind=st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=12),
           seed=st.integers(0, 2**63 - 1),
           params=st.dictionaries(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
                                  st.one_of(st.integers(-10**9, 10**9),
                                            st.floats(allow_nan=False, allow_infinity=False)),
                                  max_size=4))
    def test_round_trip_property(self, values, kind, seed, params):
        with tempfile.TemporaryDirectory() as d:
            fn = os.path.join(d, "p.tsv")
            ri.write_path(ri.SampledPath(values), fn, kind=kind, seed=seed, params=params)
            back, meta = ri.read_path(fn)
        assert back.values.tobytes() == values.tobytes()
        header = {"n": str(values.size - 1), "kind": kind, "seed": str(seed)}
        if params:
            header["params"] = ",".join(f"{k}={v}" for k, v in params.items())
        assert meta == header

    def test_rewrite_is_identical(self, tmp_path):
        p = ri.sim_levy_stable(100, 1.5, seed=9)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        ri.write_path(p, str(a), kind="levy_stable", seed=9)
        ri.write_path(p, str(b), kind="levy_stable", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_row_reports_line(self, tmp_path):
        fn = tmp_path / "bad.tsv"
        fn.write_text("# n=2\n0\t0.0\n0.5\tnan\n1\t1.0\n")
        with pytest.raises(ParseError) as exc:
            ri.read_path(str(fn))
        assert exc.value.line == 3

    def test_malformed_row_reports_line(self, tmp_path):
        fn = tmp_path / "bad.tsv"
        fn.write_text("0\t0.0\nhello world\n")
        with pytest.raises(ParseError) as exc:
            ri.read_path(str(fn))
        assert exc.value.line == 2

    def test_header_count_mismatch(self, tmp_path):
        fn = tmp_path / "bad.tsv"
        fn.write_text("# n=5\n0\t0.0\n1\t1.0\n")
        with pytest.raises(ParseError, match="n=5"):
            ri.read_path(str(fn))

    def test_header_count_mismatch_precedes_time_check(self, tmp_path):
        fn = tmp_path / "bad.tsv"
        fn.write_text("# n=5\n0\t0.0\n0.3\t1.0\n")
        with pytest.raises(ParseError, match="n=5"):
            ri.read_path(str(fn))

    def test_off_grid_times_report_line(self, tmp_path):
        fn = tmp_path / "bad.tsv"
        fn.write_text("# kind=data\n0\t0.0\n0.1\t0.5\n0.7\t0.2\n5\t1.0\n")
        with pytest.raises(ParseError, match="1/3") as exc:
            ri.read_path(str(fn))
        assert exc.value.line == 3

    def test_reordered_rows_rejected(self, tmp_path):
        p = ri.sim_brownian(8, seed=2)
        fn = tmp_path / "p.tsv"
        ri.write_path(p, str(fn))
        lines = fn.read_text().splitlines()
        lines[4], lines[5] = lines[5], lines[4]  # rows j=2 and j=3
        fn.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            ri.read_path(str(fn))
        assert exc.value.line == 5

    @pytest.mark.parametrize("n", [1000, 2**15 + 1])
    def test_written_times_load(self, tmp_path, n):
        p = ri.sim_brownian(n, seed=n)
        fn = tmp_path / "p.tsv"
        ri.write_path(p, str(fn))
        q, _ = ri.read_path(str(fn))
        assert q.values.tobytes() == p.values.tobytes()


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_honour_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            ri.write_path(ri.sim_brownian(8, seed=1), str(tmp_path / "p.tsv"))
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "p.tsv").stat().st_mode) == mode


class TestTableFiles:
    def test_variance_round_trip(self, tmp_path):
        t = ri.build_variance_table(reps=100, path_len=256, seed=3,
                                    h_grid=[0.3, 0.5, 0.7, 0.8])
        fn = tmp_path / "g.tsv"
        ri.save_variance_table(t, str(fn))
        u = ri.load_variance_table(str(fn))
        assert np.array_equal(t.h_grid, u.h_grid)
        assert np.array_equal(t.sigma2, u.sigma2)
        assert np.array_equal(t.sigma2_stderr, u.sigma2_stderr)
        # p=1 column keeps its gap above H=3/4
        assert np.isnan(u.sigma1[-1])
        assert not np.isnan(u.sigma1[0])
        assert (u.reps, u.path_len, u.seed) == (100, 256, 3)

    def test_stable_round_trip(self, tmp_path):
        grid = np.round(np.arange(0.25, 2.01, 0.25), 10)
        t = ri.build_stable_table(reps=20_000, seed=4, alpha_grid=grid)
        fn = tmp_path / "s.tsv"
        ri.save_stable_table(t, str(fn))
        u = ri.load_stable_table(str(fn))
        assert np.array_equal(t.lam, u.lam)
        assert np.array_equal(t.sigma_sq, u.sigma_sq)
        assert np.array_equal(t.dlam, u.dlam)

    def test_rebuild_same_seed_identical_file(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for fn in (a, b):
            t = ri.build_variance_table(reps=100, path_len=128, seed=77,
                                        h_grid=[0.4, 0.6])
            ri.save_variance_table(t, str(fn))
        assert a.read_bytes() == b.read_bytes()

    def test_schema_checked(self, tmp_path):
        fn = tmp_path / "x.tsv"
        fn.write_text("# schema=other\n# kind=gaussian\nH\tp\n0.5\t2\n")
        with pytest.raises(ParseError, match="schema"):
            ri.load_variance_table(str(fn))

    @pytest.mark.parametrize("kind, old, new, line", [
        ("stable", "\t0.8\t", "\tabc\t", 7),             # non-numeric cell
        ("gaussian", "0.6\t2", "0.6\t3", 9),              # unknown p
        ("gaussian", "0.4\t2", "0.4\t2.5", 8),            # non-integer p
        ("gaussian", "0.4\t2\t0.2\t0.01\n0.6\t2\t0.3\t0.01\n", "", None),  # no p=2 rows
        ("stable", "\tdlambda_dalpha", "\tslope", None),  # missing column
        ("stable", "# reps=20000\n", "", None),            # missing metadata
        ("stable", "# seed=4\n", "# seed=four\n", None),
        ("gaussian", "# seed=3\n", "", None),
        ("gaussian", "# path_len=256\n", "", None),
    ])
    def test_malformed_table_parse_error(self, tmp_path, capsys, kind, old, new, line):
        good = STABLE_FILE if kind == "stable" else GAUSSIAN_FILE
        assert old in good
        fn = tmp_path / f"{kind}.tsv"
        fn.write_text(good.replace(old, new, 1))
        with pytest.raises(ParseError) as exc:
            tableio.KINDS[kind].load(str(fn))
        assert exc.value.line == line
        path = tmp_path / "p.tsv"
        ri.write_path(ri.sim_levy_stable(256, 1.5, seed=1), str(path), kind="levy_stable")
        method = "alpha" if kind == "stable" else "hurst"
        assert main(["--table-dir", str(tmp_path), "estimate", "--input", str(path),
                     "--method", method]) == 2
        assert str(exc.value) in capsys.readouterr().err

    def test_files_with_per_row_metadata_columns_load(self, tmp_path):
        # older writers repeated reps/path_len/seed in every row and could
        # add a quality_warning line
        fn = tmp_path / "s.tsv"
        fn.write_text(STABLE_FILE.replace("dlambda_dalpha\n", "dlambda_dalpha\treps\tseed\n")
                      .replace("-0.2\n", "-0.2\t20000\t4\n")
                      .replace("# seed=4\n", "# seed=4\n# quality_warning=low\n"))
        t = ri.load_stable_table(str(fn))
        assert np.array_equal(t.lam, [0.8, 0.7])
        assert (t.reps, t.seed) == (20000, 4)

    def test_kind_checked(self, tmp_path):
        grid = np.round(np.arange(0.5, 2.01, 0.5), 10)
        t = ri.build_stable_table(reps=20_000, seed=4, alpha_grid=grid)
        fn = tmp_path / "s.tsv"
        ri.save_stable_table(t, str(fn))
        with pytest.raises(ParseError, match="kind"):
            ri.load_variance_table(str(fn))


def _no_build(**build):
    raise AssertionError(f"unexpected table build {build}")


class TestTableCache:
    BUILD = dict(reps=20_000, seed=4)

    def test_builds_once_then_loads(self, tmp_path, monkeypatch):
        t = tableio.cached_table("stable", str(tmp_path), **self.BUILD)
        files = sorted(tmp_path.iterdir())
        assert len(files) == 1
        monkeypatch.setitem(tableio.KINDS, "stable",
                            tableio.KINDS["stable"]._replace(build=_no_build))
        u = tableio.cached_table("stable", str(tmp_path), **self.BUILD)
        assert np.array_equal(t.lam, u.lam)
        assert np.array_equal(t.sigma_sq, u.sigma_sq)
        assert sorted(tmp_path.iterdir()) == files

    def test_each_seed_gets_its_own_file(self, tmp_path):
        a = tableio.cached_table("stable", str(tmp_path), reps=20_000, seed=4)
        b = tableio.cached_table("stable", str(tmp_path), reps=20_000, seed=5)
        assert len(list(tmp_path.iterdir())) == 2
        assert not np.array_equal(a.lam_stderr, b.lam_stderr)

    def test_other_source_digest_never_served(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tableio, "_source_digest", lambda: "0" * 12)
        old = tableio.cached_table("stable", str(tmp_path), **self.BUILD)
        monkeypatch.setattr(tableio, "_source_digest", lambda: "1" * 12)
        built = []
        monkeypatch.setitem(tableio.KINDS, "stable", tableio.KINDS["stable"]._replace(
            build=lambda **build: built.append(build) or old))
        tableio.cached_table("stable", str(tmp_path), **self.BUILD)
        assert built == [self.BUILD]
        assert [f.name[-16:-4] for f in tmp_path.iterdir()] == ["1" * 12]

    def test_build_prunes_other_digests_of_same_settings(self, tmp_path, monkeypatch):
        keep = ["stable-reps20000-seed5-000000000000.tsv",  # other settings
                "gaussian-reps20000-seed4-000000000000.tsv",  # other kind
                "stable-reps20000-seed4-notes.tsv"]  # not a digest
        stale = ["stable-reps20000-seed4-000000000000.tsv",
                 "stable-reps20000-seed4-0123456789ab.tsv"]
        for name in keep + stale:
            (tmp_path / name).write_text("x\n")
        monkeypatch.setattr(tableio, "_source_digest", lambda: "f" * 12)
        tableio.cached_table("stable", str(tmp_path), **self.BUILD)
        fresh = "stable-reps20000-seed4-" + "f" * 12 + ".tsv"
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(keep + [fresh])
