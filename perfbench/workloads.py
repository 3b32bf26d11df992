"""The four benchmark workloads and the per-layer metrics their traces give.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  A workload builds its inputs in ``setup`` from
the run's seed, and ``run_round`` does one fixed amount of work, reporting
each op through ``record(latency_s, failed)`` and returning a digest of the
round's outputs.  Rounds of one run repeat the same work, so their digests
must agree.

``failures`` collects failed output checks that a correct program never
produces (a non-finite estimate, a table that does not survive a save and
load, a CLI answer that differs from the library's); any entry makes the
run incorrect and fails its op.  Inputs are chosen so that no op of a
correct program fails on any seed:

- estimate inputs keep the true H well inside the variance grid, so an
  error the library raises on them is a failed op.  The known out-of-grid
  defect is measured apart from the timed ops, by a fixed probe of paths
  at the grid edges (``known_defects``), and reported, not failed.
- a seeded experiment verdict is a 3-sigma or tolerance test that a
  correct program fails for a few seeds in a hundred, so failed verdicts
  are counted per experiment and reported, not failed.  The deterministic
  smooth-limit experiment must pass every verdict.
"""

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

import roughir.experiments as experiments
import roughir.gaussian as gaussian
import roughir.stable as stable
from roughir import (FbmSampler, MbmSampler, RangeError, RoughIRError,
                     SampledPath, SimSpec, VarianceTable, build_stable_table,
                     build_variance_table, derive_rng, estimate_alpha,
                     estimate_H, invert_Lambda2, lam, load_stable_table,
                     load_variance_table, p_increment_array, r_local,
                     read_path, save_stable_table, save_variance_table,
                     sigma_p_mc, sim_fbm, sim_levy_stable, simulate,
                     write_path)
from roughir.experiments import EXPERIMENT_NAMES, run_experiment
from roughir.stable import ALPHA_GRID_DEFAULT

from spans import SIZE, UNITS

ROOT = Path(__file__).resolve().parent.parent

# a statistic call on at least this many samples is "long" (n = 2^20 inputs)
LONG_SAMPLES = 100_000

CLI_COMMANDS = ("simulate", "estimate-hurst", "estimate-alpha", "estimate-local")

# reduced Monte Carlo tables built in setup by the workloads that need them
TABLES = {"variance": {"reps": 100, "path_len": 1024},
          "stable": {"reps": 50_000}}


def sub_seed(seed, *keys):
    """Independent 32-bit seed for one input stream of the run."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def reduced_tables(seed, sizes=TABLES):
    vt = build_variance_table(seed=sub_seed(seed, 1), **sizes["variance"])
    st = build_stable_table(seed=sub_seed(seed, 2), **sizes["stable"])
    return vt, st


# ----------------------------------------------------------------------
# spans inside the library: wrappers installed only for traced rounds

def _stat(args, result):
    return result.terms, args[0].n + 1


def _path_in(args, result):
    return args[0].n + 1, args[0].n + 1


def _sampler_n(args, result):
    return args[0].n, args[0].n


def _draws(args, result):
    return int(np.size(args[1])), None


def _euler_steps(args, result):
    n, refine, reps = args[0], args[4], args[6]
    return n * refine * reps, n + 1


PATCHES = [
    (gaussian, "r_pn", "statistics.r_pn", _stat),
    (experiments, "r_pn", "statistics.r_pn", _stat),
    (stable, "r_tilde_2n", "statistics.r_tilde_2n", _stat),
    (gaussian, "invert_Lambda2", "gaussian.invert_Lambda2", None),
    (experiments, "invert_Lambda2", "gaussian.invert_Lambda2", None),
    (VarianceTable, "sigma", "gaussian.VarianceTable.sigma", None),
    (gaussian, "sigma_p_mc", "gaussian.sigma_p_mc", None),
    (experiments, "estimate_H", "gaussian.estimate_H", _path_in),
    (experiments, "estimate_alpha", "stable.estimate_alpha", _path_in),
    (stable, "invert_lambda_tilde", "stable.invert_lambda_tilde", None),
    (stable, "sym_stable_from_uniform_exp", "stable.sym_stable_from_uniform_exp", _draws),
    (experiments, "sym_stable_from_uniform_exp", "stable.sym_stable_from_uniform_exp", _draws),
    (FbmSampler, "__init__", "simulate.FbmSampler.init", None),
    (FbmSampler, "sample_path", "simulate.FbmSampler.sample_path", _sampler_n),
    (MbmSampler, "__init__", "simulate.MbmSampler.init", None),
    (MbmSampler, "sample_path", "simulate.MbmSampler.sample_path", None),
    (experiments, "sim_diffusion_batch", "simulate.sim_diffusion_batch", _euler_steps),
    (experiments, "apply_trend", "simulate.apply_trend", _path_in),
    (gaussian, "derive_rng", "rng.derive_rng", None),
    (stable, "derive_rng", "rng.derive_rng", None),
    (experiments, "derive_rng", "rng.derive_rng", None),
]


def _short(s):
    return (s[SIZE] or 0) < LONG_SAMPLES


def _long(s):
    return (s[SIZE] or 0) >= LONG_SAMPLES


# metric -> (span name, statistic, scale, span filter).  "mean" is the mean
# duration, "self" the mean self time, "per_unit" total duration over total
# units (terms, samples, draws, steps, rows or grid cells).
SPAN_METRICS = {
    "increments.SampledPath.ns_per_sample": ("increments.SampledPath", "per_unit", 1e9, None),
    "increments.p_increment_array.ns_per_term": ("increments.p_increment_array", "per_unit", 1e9, None),
    "statistics.r_pn.short.ns_per_term": ("statistics.r_pn", "per_unit", 1e9, _short),
    "statistics.r_pn.long.ns_per_term": ("statistics.r_pn", "per_unit", 1e9, _long),
    "statistics.r_tilde_2n.short.ns_per_term": ("statistics.r_tilde_2n", "per_unit", 1e9, _short),
    "statistics.r_tilde_2n.long.ns_per_term": ("statistics.r_tilde_2n", "per_unit", 1e9, _long),
    "gaussian.estimate_H.short.self_ms": ("gaussian.estimate_H", "self", 1e3, _short),
    "gaussian.invert_Lambda2.us": ("gaussian.invert_Lambda2", "mean", 1e6, None),
    "gaussian.VarianceTable.sigma.us": ("gaussian.VarianceTable.sigma", "mean", 1e6, None),
    "stable.estimate_alpha.short.self_ms": ("stable.estimate_alpha", "self", 1e3, _short),
    "stable.invert_lambda_tilde.us": ("stable.invert_lambda_tilde", "mean", 1e6, None),
    "gaussian.sigma_p_mc.ms_per_cell": ("gaussian.sigma_p_mc", "mean", 1e3, None),
    "stable.build_stable_table.ms_per_cell": ("stable.build_stable_table", "per_unit", 1e3, None),
    "stable.sym_stable_from_uniform_exp.ns_per_draw": ("stable.sym_stable_from_uniform_exp", "per_unit", 1e9, None),
    "simulate.FbmSampler.sample_path.ns_per_sample": ("simulate.FbmSampler.sample_path", "per_unit", 1e9, None),
    "simulate.FbmSampler.init_ms": ("simulate.FbmSampler.init", "mean", 1e3, None),
    "rng.derive_rng.us": ("rng.derive_rng", "mean", 1e6, None),
    "simulate.sim_diffusion_batch.ns_per_step": ("simulate.sim_diffusion_batch", "per_unit", 1e9, None),
    "simulate.MbmSampler.init_s": ("simulate.MbmSampler.init", "mean", 1.0, None),
    "simulate.MbmSampler.sample_path.ms": ("simulate.MbmSampler.sample_path", "mean", 1e3, None),
    "simulate.apply_trend.ns_per_sample": ("simulate.apply_trend", "per_unit", 1e9, None),
    "tableio.save_variance_table.ms": ("tableio.save_variance_table", "mean", 1e3, None),
    "tableio.save_stable_table.ms": ("tableio.save_stable_table", "mean", 1e3, None),
    "tableio.load_variance_table.ms": ("tableio.load_variance_table", "mean", 1e3, None),
    "tableio.load_stable_table.ms": ("tableio.load_stable_table", "mean", 1e3, None),
    "pathio.read_path.ns_per_row": ("pathio.read_path", "per_unit", 1e9, None),
    "pathio.write_path.ns_per_row": ("pathio.write_path", "per_unit", 1e9, None),
}
SPAN_METRICS.update({f"experiments.{name}.s": (f"experiments.{name}", "mean", 1.0, None)
                     for name in EXPERIMENT_NAMES})
SPAN_METRICS.update({f"cli.{cmd}.ms": (f"cli.{cmd}", "mean", 1e3, None) for cmd in CLI_COMMANDS})


def span_metrics(tracer, rounds):
    """Per-layer metrics derivable from the spans alone.

    A metric whose span never occurred is left out: the workload does not
    exercise that layer.  Counts are per traced round."""
    self_t = tracer.self_times()
    spans = tracer.spans
    out = {}
    for metric, (name, stat, scale, where) in SPAN_METRICS.items():
        idx = tracer.select(name, where)
        if stat == "per_unit":
            idx = [i for i in idx if spans[i][UNITS] is not None]
        if not idx:
            continue
        if stat == "per_unit":
            units = sum(spans[i][UNITS] for i in idx)
            dur = sum(spans[i][2] - spans[i][1] for i in idx)
            out[metric] = dur / units * scale
        else:
            times = [self_t[i] if stat == "self" else spans[i][2] - spans[i][1] for i in idx]
            out[metric] = statistics.fmean(times) * scale
    calls = tracer.select("rng.derive_rng")
    if calls:
        out["rng.derive_rng.calls"] = len(calls) / rounds
    stat_idx = [i for i in tracer.select("statistics.r_pn") + tracer.select("statistics.r_tilde_2n")
                if spans[i][UNITS] is not None]
    if stat_idx:
        out["statistics.terms"] = sum(spans[i][UNITS] for i in stat_idx) / rounds
        long_idx = [i for i in stat_idx if _long(spans[i])]
        if long_idx:
            # computed, not measured: 8-byte samples read, second
            # increments written and psi terms written by each long call
            out["statistics.long.bytes_computed"] = sum(
                8 * (2 * spans[i][SIZE] - 2 + spans[i][UNITS]) for i in long_idx) / rounds
    return out


class Workload:
    """Shared state: the seed, the tracer, a private scratch directory, and
    the failed output checks and unexpected errors seen so far."""

    name = None
    config = {}
    min_ops = 11  # the tail latency needs ten samples beyond it

    def __init__(self, seed, tracer, workdir):
        self.seed = seed
        self.tracer = tracer
        self.workdir = Path(workdir)
        self.dir = None
        self.failures = set()

    def fresh_dir(self):
        self.close()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        return self.dir

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def unexpected(self, what):
        """An error no correct run raises: keep its traceback, fail the run."""
        self.failures.add(f"{what}: {traceback.format_exc(limit=3).strip()}")

    def components(self):
        """Extra component calls timed after the traced rounds."""

    def known_defects(self):
        """Known defects probed once after the rounds, untimed and not
        counted as ops: {probe name: outcome}."""
        return {}

    def layer_metrics(self, rounds):
        """Per-layer metrics the spans alone do not give."""
        return {}

    def summary(self):
        """Workload-specific facts for the result file."""
        return {}


# ----------------------------------------------------------------------
# estimate: in-process library calls with warm tables

class Estimate(Workload):
    name = "estimate"
    config = {
        "short_n": 4096, "long_n": 2**20,
        "short_fbm": 300, "short_stable": 100,
        "long_fbm": 2, "long_stable": 2, "long_repeats": 3,
        # At n = 4096 the H estimate has a standard deviation of 0.045 at
        # H = 0.3 and 0.034 at H = 0.8, so these true H stay more than four
        # deviations inside the variance grid [0.05, 0.95] and no estimate
        # leaves it.  (Above H = 0.955, circulant embedding at n = 2^20 also
        # has negative eigenvalues and FbmSampler falls back to a dense
        # Cholesky factor of n^2 doubles.)
        "h_range": [0.3, 0.8], "long_h_range": [0.3, 0.8],
        "alpha_range": [0.5, 2.0],
        "coverage_band": [0.85, 0.995],
        # ROADMAP item 4's out-of-grid defect: short fBm paths at true H
        # on and past the grid edges, estimated once per run, untimed
        "edge_probe": {"h_values": [0.02, 0.05, 0.95, 0.98], "paths": 8},
        "tables": TABLES,
    }
    # Ten rounds (about 17 s): the short ops are interpreter-bound, the code
    # the shared host's drift moves most, and over ten seeds of 12-second
    # runs op_p50_ms spread up to 0.21.
    min_ops = 10 * (config["short_fbm"] + config["short_stable"]
                    + (config["long_fbm"] + config["long_stable"]) * config["long_repeats"])

    def setup(self):
        c = self.config
        rng = np.random.default_rng([self.seed, 1])
        requests = []

        def add(kind, count, n, lo_hi, key, repeats=1):
            for i in range(count):
                truth = float(rng.uniform(*lo_hi))
                if kind == "fbm":
                    path = FbmSampler(n, truth).sample_path(derive_rng(self.seed, "fbm", key, i))
                else:
                    path = sim_levy_stable(n, truth, seed=sub_seed(self.seed, key, i))
                requests.extend([(kind, truth, path.values)] * repeats)

        add("fbm", c["short_fbm"], c["short_n"], c["h_range"], 1)
        add("stable", c["short_stable"], c["short_n"], c["alpha_range"], 2)
        add("fbm", c["long_fbm"], c["long_n"], c["long_h_range"], 3, c["long_repeats"])
        add("stable", c["long_stable"], c["long_n"], c["alpha_range"], 4, c["long_repeats"])
        self.requests = [requests[i] for i in rng.permutation(len(requests))]
        probe = c["edge_probe"]
        self.edge_paths = [(h, FbmSampler(c["short_n"], h).sample_path(
                                derive_rng(self.seed, "fbm", 5, k, i)).values)
                           for k, h in enumerate(probe["h_values"])
                           for i in range(probe["paths"])]
        self.vt, self.st = reduced_tables(self.seed)
        # warm lazy state (interpolator code paths, scipy.stats) once per estimator
        for estimate, table, (_, _, values) in ((estimate_H, self.vt, requests[0]),
                                                 (estimate_alpha, self.st,
                                                  requests[c["short_fbm"]])):
            try:
                estimate(SampledPath(values), table)
            except RoughIRError:
                pass

    def run_round(self, record):
        t, vt, st = self.tracer, self.vt, self.st
        digest = hashlib.sha256()
        covered = fbm_ok = clamped = 0
        for i, (kind, truth, values) in enumerate(self.requests):
            t.request = i
            t0 = perf_counter()
            try:
                path = t.call("increments.SampledPath", SampledPath, values,
                              units=values.size, size=values.size)
                if kind == "fbm":
                    est = t.call("gaussian.estimate_H", estimate_H, path, vt, size=values.size)
                    value = est.h_hat
                else:
                    est = t.call("stable.estimate_alpha", estimate_alpha, path, st,
                                 size=values.size)
                    value = est.alpha_hat
            except RoughIRError as e:
                record(perf_counter() - t0, True)
                digest.update(f"{i}:{type(e).__name__};".encode())
                continue
            except Exception:
                record(perf_counter() - t0, True)
                self.unexpected(f"request {i}")
                continue
            latency = perf_counter() - t0
            ok = all(math.isfinite(v) for v in (value, est.stderr, est.ci_low, est.ci_high))
            if not ok:
                self.failures.add(f"request {i}: non-finite estimate {est}")
            record(latency, not ok)
            digest.update(f"{i}:{value.hex()}:{est.stderr.hex()};".encode())
            if kind == "fbm":
                fbm_ok += 1
                covered += est.ci_low <= truth <= est.ci_high
            else:
                clamped += est.clamped
        self.coverage = covered / fbm_ok
        self.clamped = clamped
        lo, hi = self.config["coverage_band"]
        if not lo <= self.coverage <= hi:
            self.failures.add(f"95% CI coverage {self.coverage:.4f} of the true H "
                              f"outside [{lo}, {hi}] over {fbm_ok} fBm requests")
        return digest.hexdigest()

    def components(self):
        seen = set()
        for i, (kind, truth, values) in enumerate(self.requests):
            if id(values) in seen:
                continue
            seen.add(id(values))
            self.tracer.request = i
            self.tracer.call("increments.p_increment_array", p_increment_array, values, 2,
                             units=values.size - 2, size=values.size)

    def known_defects(self):
        errors = {}
        for h, values in self.edge_paths:
            try:
                estimate_H(SampledPath(values), self.vt)
            except RoughIRError as e:
                key = f"H={h} {type(e).__name__}"
                errors[key] = errors.get(key, 0) + 1
        self.edge_failed = sum(errors.values())
        return {"estimate_H at grid-edge H": {"calls": len(self.edge_paths),
                                              "failed": self.edge_failed,
                                              "errors": errors}}

    def layer_metrics(self, rounds):
        return {"stable.estimate_alpha.clamped": self.clamped,
                "gaussian.estimate_H.failed": self.edge_failed}

    def summary(self):
        return {"ci_coverage": self.coverage, "clamped_alpha_per_round": self.clamped}


# ----------------------------------------------------------------------
# tables: the Monte Carlo table builders and their persistence

class Tables(Workload):
    name = "tables"
    config = {"variance": {"reps": 100, "path_len": 4096},
              "stable": {"reps": 100_000},
              "anchor_stderrs": 5.0}

    def setup(self):
        self.fresh_dir()
        c = self.config
        # warm the FFT plans and generator paths with one cell of each builder
        sigma_p_mc(2, 0.5, seed=sub_seed(self.seed, 3), **c["variance"])
        build_stable_table(seed=sub_seed(self.seed, 4), alpha_grid=[1.95, 2.0], **c["stable"])

    def run_round(self, record):
        t, c = self.tracer, self.config
        cells, last = [], [0.0]

        def progress(i, total):
            now = perf_counter()
            cells.append(now - last[0])
            last[0] = now

        vfile, sfile = self.dir / "gaussian.tsv", self.dir / "stable.tsv"
        try:
            last[0] = perf_counter()
            vt = t.call("gaussian.build_variance_table", build_variance_table,
                        seed=sub_seed(self.seed, 1), progress=progress, **c["variance"])
            n_variance = len(cells)
            last[0] = perf_counter()
            st = t.call("stable.build_stable_table", build_stable_table,
                        seed=sub_seed(self.seed, 2), progress=progress,
                        units=ALPHA_GRID_DEFAULT.size, **c["stable"])
            t.call("tableio.save_variance_table", save_variance_table, vt, vfile)
            t.call("tableio.save_stable_table", save_stable_table, st, sfile)
            vt2 = t.call("tableio.load_variance_table", load_variance_table, vfile)
            st2 = t.call("tableio.load_stable_table", load_stable_table, sfile)
        except Exception:
            self.unexpected("table build")
            for latency in cells:
                record(latency, True)
            record(perf_counter() - last[0], True)
            return "failed"
        v_problems = self._check_variance(vt, vt2)
        s_problems = self._check_stable(st, st2)
        self.failures.update(v_problems + s_problems)
        for k, latency in enumerate(cells):
            record(latency, bool(v_problems if k < n_variance else s_problems))
        return hashlib.sha256(vfile.read_bytes() + sfile.read_bytes()).hexdigest()

    @staticmethod
    def _check_variance(vt, loaded):
        problems = []
        defined = vt.h_grid < 0.75
        for name in ("sigma2", "sigma2_stderr"):
            a = getattr(vt, name)
            if not (np.isfinite(a).all() and (a >= 0).all()):
                problems.append(f"variance table {name} has non-finite or negative entries")
        for name in ("sigma1", "sigma1_stderr"):
            a = getattr(vt, name)
            if not (np.isfinite(a[defined]).all() and (a[defined] >= 0).all()
                    and np.isnan(a[~defined]).all()):
                problems.append(f"variance table {name} is not finite and >= 0 for H < 3/4")
        same = all(np.array_equal(getattr(vt, f), getattr(loaded, f), equal_nan=True)
                   for f in ("h_grid", "sigma1", "sigma1_stderr", "sigma2", "sigma2_stderr"))
        same &= (vt.reps, vt.path_len, vt.seed) == (loaded.reps, loaded.path_len, loaded.seed)
        if not same:
            problems.append("variance table changed in a save/load round trip")
        return problems

    def _check_stable(self, st, loaded):
        problems = []
        for name in ("lam", "lam_stderr", "sigma_sq", "sigma_sq_stderr"):
            a = getattr(st, name)
            if not (np.isfinite(a).all() and (a >= 0).all()):
                problems.append(f"stable table {name} has non-finite or negative entries")
        if not np.isfinite(st.dlam).all():
            problems.append("stable table derivative has non-finite entries")
        i2 = int(np.argmin(np.abs(st.alpha_grid - 2.0)))
        k = self.config["anchor_stderrs"]
        gap = abs(st.lam_raw[i2] - lam(0.0))
        if gap > k * st.lam_stderr[i2]:
            problems.append(f"stable lambda~(2) = {st.lam_raw[i2]:.6f} is {gap:.2e} from "
                            f"lam(0), more than {k} stderrs ({st.lam_stderr[i2]:.2e})")
        fields = ("alpha_grid", "lam", "lam_stderr", "sigma_sq", "sigma_sq_stderr", "dlam")
        same = all(np.array_equal(getattr(st, f), getattr(loaded, f)) for f in fields)
        same &= (st.reps, st.seed, st.monotone_violations) == \
            (loaded.reps, loaded.seed, loaded.monotone_violations)
        if not same:
            problems.append("stable table changed in a save/load round trip")
        return problems


# ----------------------------------------------------------------------
# experiments: the six verification experiments at benchmark sizes

class Experiments(Workload):
    name = "experiments"
    # Reduced from the acceptance sizes so one round of all six takes about
    # 1.5 s; tolerances widened where fewer replications widen the noise.
    config = {
        "experiments": {
            "clt-fbm": {"h_values": [0.3, 0.7], "n": 4096, "reps": 100,
                        "var_rtol": 0.6, "coverage_band": [0.85, 1.0]},
            "diffusion-rate": {"ns": [512, 2048], "reps": 100, "refine": 16},
            "trend-robustness": {"h": 0.6, "n": 1024, "pairs": 50},
            "levy-clt": {"alphas": [1.2], "n": 2048, "reps": 100, "var_rtol": 0.6,
                         "psi0_alphas": [1.2]},
            "smooth-limit": {},
            "local-mbm": {"n": 1024, "reps": 50, "order_frac": 0.75},
        },
        "tables": TABLES,
    }
    # Sixteen rounds (about 24 s) put the tail latency in the slowest
    # experiment's samples and average out more of the shared host's
    # drift, which moves these ops more than the other workloads' ops:
    # over ten seeds, wall_s spread 0.29 at eleven rounds and 0.09-0.17
    # at twenty.
    min_ops = 16 * len(EXPERIMENT_NAMES)

    def setup(self):
        self.vt, self.st = reduced_tables(self.seed)
        self.verdicts_failed = {}

    def run_round(self, record):
        digest = hashlib.sha256()
        for k, name in enumerate(EXPERIMENT_NAMES):
            options = dict(self.config["experiments"][name])
            if name != "smooth-limit":
                options["seed"] = sub_seed(self.seed, 10, k)
            self.tracer.request = name
            t0 = perf_counter()
            try:
                rep = self.tracer.call(f"experiments.{name}", run_experiment, name,
                                       variance_table=self.vt, stable_table=self.st,
                                       **options)
            except RoughIRError as e:
                record(perf_counter() - t0, True)
                self.verdicts_failed[name] = 1
                digest.update(f"{name}:{type(e).__name__};".encode())
                continue
            except Exception:
                record(perf_counter() - t0, True)
                self.unexpected(f"experiment {name}")
                continue
            latency = perf_counter() - t0
            problems = [f"experiment {name}: verdict {v.name!r} observed {v.observed}"
                        for v in rep.verdicts if not math.isfinite(v.observed)]
            if name == "smooth-limit" and not rep.passed:
                problems.append(f"experiment {name} (no randomness) failed a verdict: "
                                f"{[v for v in rep.verdicts if not v.passed]}")
            self.failures.update(problems)
            record(latency, bool(problems))
            self.verdicts_failed[name] = sum(not v.passed for v in rep.verdicts)
            digest.update(json.dumps([name, rep.config, [asdict(v) for v in rep.verdicts],
                                      rep.aggregates, rep.replications],
                                     sort_keys=True, default=float).encode())
        return digest.hexdigest()

    def layer_metrics(self, rounds):
        return {f"experiments.{name}.verdicts_failed": n
                for name, n in self.verdicts_failed.items()}

    def summary(self):
        return {"verdicts_failed": self.verdicts_failed}


# ----------------------------------------------------------------------
# cli-cold: one fresh `python -m roughir.cli` process per op

IMPORT_PROBE = ("import time; t = time.perf_counter(); import roughir; "
                "print(time.perf_counter() - t)")


class CliCold(Workload):
    name = "cli-cold"
    # The CLI's answers are compared with the library's on the same table
    # files, so small tables serve; they keep set-up short.
    config = {"n": 4096, "h_range": [0.3, 0.8], "alpha_range": [0.5, 2.0],
              "t0": 0.5, "window": 0.6,
              "tables": {"variance": {"reps": 100, "path_len": 256},
                         "stable": {"reps": 20_000}},
              "import_samples": 3, "component_repeats": 5}
    # with 22 samples or more the tail is not below the median
    min_ops = 22

    def setup(self):
        d = self.fresh_dir()
        c, n = self.config, self.config["n"]
        tables = d / "tables"
        tables.mkdir()
        vt, st = reduced_tables(self.seed, c["tables"])
        save_variance_table(vt, tables / "gaussian.tsv")
        save_stable_table(st, tables / "stable.tsv")
        rng = np.random.default_rng([self.seed, 4])
        h, alpha, h_sim = (float(rng.uniform(*c[k])) for k in ("h_range", "alpha_range", "h_range"))
        fbm_seed, stable_seed, sim_seed = (sub_seed(self.seed, k) for k in (5, 6, 7))
        self.fbm_file, self.stable_file = d / "fbm.tsv", d / "stable.tsv"
        write_path(sim_fbm(n, h, fbm_seed), self.fbm_file, kind="fbm", seed=fbm_seed,
                   params={"H": h})
        write_path(sim_levy_stable(n, alpha, seed=stable_seed), self.stable_file,
                   kind="levy_stable", seed=stable_seed, params={"alpha": alpha})
        ref = d / "simulate-reference.tsv"
        write_path(simulate(SimSpec("fbm", n, sim_seed, {"H": h_sim})), ref,
                   kind="fbm", seed=sim_seed, params={"H": h_sim})
        self.sim_reference = ref.read_bytes()
        self.sim_out = d / "simulated.tsv"
        self.expected = self._expected(tables)

        head = [sys.executable, "-m", "roughir.cli", "--table-dir", str(tables)]
        est = head + ["estimate", "--strict", "--method"]
        self.argv = {
            "simulate": head + ["simulate", "--kind", "fbm", "--n", str(n), "--h", repr(h_sim),
                                "--seed", str(sim_seed), "--out", str(self.sim_out)],
            "estimate-hurst": est + ["hurst", "--input", str(self.fbm_file)],
            "estimate-alpha": est + ["alpha", "--input", str(self.stable_file)],
            "estimate-local": est + ["local", "--input", str(self.fbm_file),
                                     "--t0", str(c["t0"]), "--window", str(c["window"])],
        }
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.exit_nonzero = {}

    def _expected(self, tables):
        """(exit code, printed line) the CLI must give, from the library."""
        fbm, _ = read_path(self.fbm_file)
        stable_path, _ = read_path(self.stable_file)
        try:
            est = estimate_H(fbm, load_variance_table(tables / "gaussian.tsv"))
            hurst = (0, f"h_hat={est.h_hat:.6f}")
        except RangeError:
            hurst = (1, None)
        except RoughIRError:
            hurst = (2, None)
        est = estimate_alpha(stable_path, load_stable_table(tables / "stable.tsv"))
        stat = r_local(fbm, self.config["t0"], self.config["window"])
        try:
            local = f"h_local={invert_Lambda2(stat.value):.6f}"
        except RangeError as e:
            local = f"h_local=out-of-range ({e.low:.4f}, {e.high:.4f})"
        return {"simulate": (0, None), "estimate-hurst": hurst,
                "estimate-alpha": (0, f"alpha_hat={est.alpha_hat:.6f}"),
                "estimate-local": (0, local)}

    def run_round(self, record):
        digest = hashlib.sha256()
        for cmd in CLI_COMMANDS:
            self.tracer.request = cmd
            t0 = perf_counter()
            proc = self.tracer.call(f"cli.{cmd}", subprocess.run, self.argv[cmd],
                                    capture_output=True, text=True, env=self.env,
                                    cwd=ROOT, timeout=120)
            latency = perf_counter() - t0
            code, line = self.expected[cmd]
            agrees = proc.returncode == code and (line is None or line in proc.stdout.splitlines())
            if cmd == "simulate" and code == proc.returncode == 0:
                agrees = self.sim_out.read_bytes() == self.sim_reference
            if not agrees:
                self.failures.add(f"cli {cmd} gave exit {proc.returncode} and "
                                  f"{proc.stdout.strip()!r} {proc.stderr.strip()!r}; "
                                  f"the library gives exit {code} and {line!r}")
            self.exit_nonzero[cmd] = int(proc.returncode != 0)
            record(latency, proc.returncode != 0 or not agrees)
            out = (proc.stdout + proc.stderr).replace(str(self.dir), "<dir>")
            digest.update(f"{cmd}:{proc.returncode}:{out};".encode())
        return digest.hexdigest()

    def components(self):
        t, c = self.tracer, self.config
        rows = c["n"] + 1
        tables = self.dir / "tables"
        copy = self.dir / "copy.tsv"
        for _ in range(c["component_repeats"]):
            for f in (self.fbm_file, self.stable_file):
                path, _ = t.call("pathio.read_path", read_path, f, units=rows, size=rows)
                t.call("pathio.write_path", write_path, path, copy, units=rows, size=rows)
            t.call("tableio.load_variance_table", load_variance_table, tables / "gaussian.tsv")
            t.call("tableio.load_stable_table", load_stable_table, tables / "stable.tsv")
        self.import_s = []
        for _ in range(c["import_samples"]):
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                                  text=True, env=self.env, cwd=ROOT, timeout=120, check=True)
            self.import_s.append(float(proc.stdout))

    def layer_metrics(self, rounds):
        out = {f"cli.{cmd}.exit_nonzero": n for cmd, n in self.exit_nonzero.items()}
        out["cli.import.ms"] = statistics.median(self.import_s) * 1e3
        return out

    def summary(self):
        return {"expected": self.expected}


WORKLOADS = {w.name: w for w in (Estimate, Tables, Experiments, CliCold)}
