"""Run one roughir benchmark workload and print its metrics.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The workload's inputs come from --seed.
Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S, and
set-up time is the median.  Then
rounds of the workload's fixed work repeat until at least --seconds have
passed and enough ops have completed for the tail latency.  Every output is
checked; rounds of one run must produce identical digests.  Known
defects are probed once after the rounds, apart from the counted ops.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced rounds (the traced-over-untraced median
round time gives trace.overhead_ratio), then times component calls, and
prints the per-layer metrics.  Either way the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it print each metric with its unit.  A result file with
provenance (and, when traced, every span) goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# A set-up of a fraction of a second repeats until this much time has
# passed, so its median is not one moment of the shared host's drift.
SETUP_MIN_S = 2.0
# Later changes confirm a claimed gain on this seed as well, one that was
# not used while the change was written.
HELD_OUT_SEED = 90210
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# One BLAS/OpenMP thread, within the cap of nproc: on a shared host a second
# thread waits on whichever vCPU a neighbour slows, which made the dense
# factor slower and its timing noisier than one thread did.
BLAS_THREADS = 1


def cap_threads():
    """Set the BLAS/OpenMP pools to BLAS_THREADS (before numpy loads); return nproc."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Ops:
    """Latency and outcome of every op, in order."""

    def __init__(self):
        self.latencies = []
        self.failed = 0

    def __call__(self, latency, failed=False):
        self.latencies.append(latency)
        self.failed += bool(failed)


def run_rounds(wl, tracer, patches, seconds, trace):
    """Repeat rounds; with trace, alternate untraced and traced ones."""
    ops = Ops()
    walls = {False: [], True: []}
    digests = []
    start = perf_counter()
    traced = False
    while True:
        t0 = perf_counter()
        if traced:
            with tracer.patched(patches), tracer.active():
                digests.append(wl.run_round(ops))
        else:
            digests.append(wl.run_round(ops))
        walls[traced].append(perf_counter() - t0)
        enough = perf_counter() - start >= seconds and len(ops.latencies) >= wl.min_ops
        if enough and (not trace or walls[True]):
            break
        traced = trace and not traced
    return ops, walls, digests, perf_counter() - start


def tail(latencies):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib():
    """Peak resident memory of this process or of its largest child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def provenance(args, nproc, config, setup_repeats):
    import numpy
    import scipy
    src = ROOT / "src" / "roughir"
    h = hashlib.sha256()
    for f in sorted(src.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():  # an exported source tree may not be a git repository
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                         "--", "src"], check=True, capture_output=True,
                                        text=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "setup_repeats": setup_repeats,
        "config": config, "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "git_rev": rev, "git_dirty": dirty, "source_sha256": h.hexdigest(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "roughir" / "__init__.py").is_file():
        print(f"perfbench: no roughir package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (numpy must load after the thread cap)
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer, OUT / "work")
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
            t0 = perf_counter()
            wl.setup()
            setup_s.append(perf_counter() - t0)
        ops, walls, digests, elapsed = run_rounds(wl, tracer, workloads.PATCHES,
                                                  args.seconds, args.trace)
        if args.trace:
            with tracer.active():
                wl.components()
        defects = wl.known_defects()
    finally:
        wl.close()

    attempted, lat = len(ops.latencies), ops.latencies
    if len(set(digests)) != 1:
        wl.failures.add(f"rounds of one run gave {len(set(digests))} different digests")
    tail_ms, tail_pct = tail(lat)
    tail_ms *= 1e3
    if args.trace:
        measured = workloads.span_metrics(tracer, len(walls[True]))
        measured.update(wl.layer_metrics(len(walls[True])))
        measured["trace.overhead_ratio"] = (statistics.median(walls[True])
                                            / statistics.median(walls[False]) - 1.0)
        measured["failed_ratio"] = ops.failed / attempted
        declared = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls[False]),
            "ops_per_s": attempted / elapsed,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_ms,
            "peak_rss_mib": peak_rss_mib(),
        }
        declared = spec["end_to_end"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a per-layer metric of a layer this workload never calls is written as
    # 0 (as a cache-hit count is 0 where the cache is bypassed) and listed
    not_exercised = [m["name"] for m in declared if m["name"] not in measured]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    correct = not wl.failures

    result = {
        "provenance": provenance(args, nproc, wl.config, len(setup_s)),
        "correct": correct, "attempted": attempted, "failed": ops.failed,
        "failed_ratio": ops.failed / attempted,
        "failures": sorted(wl.failures),
        "digest": digests[0],
        "round_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "setup_s": setup_s, "elapsed_s": elapsed,
        "op_tail": {"ms": tail_ms, "percentile": tail_pct, "samples": attempted},
        "metrics": metrics, "not_exercised": not_exercised,
        "known_defects": defects, "workload": wl.summary(),
    }
    if args.trace:
        result["spans"] = tracer.dump()
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {ops.failed} failed "
          f"(failed_ratio {ops.failed / attempted:.4f}), correct={correct}")
    for f in sorted(wl.failures):
        print(f"  check failed: {f}")
    for probe, outcome in defects.items():
        print(f"known defect, probed untimed and not counted as ops: {probe}: {outcome}")
    print(f"digest {digests[0]}")
    print(f"op_tail_ms is p{tail_pct:.2f} of {attempted} samples")
    for name, m in metrics.items():
        flag = "  (not exercised)" if name in not_exercised else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{flag}")
    print(f"result file {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
