"""Command-line front end: estimate | simulate | tables | experiment.

Exit codes: 0 success / all verdicts pass, 1 verdict failure, 2 usage or
parse errors.  Limit tables are <kind>.tsv in --table-dir (or
$ROUGHIR_TABLE_DIR, default ./roughir-tables); a missing one is replaced by
a reduced cached table with a warning unless --strict requires it.
"""

import argparse
import os
import sys

import numpy as np

from . import tableio
from .errors import InterpolationError, RangeError, RoughIRError
from .experiments import EXPERIMENT_NAMES, run_experiment
from .gaussian import estimate_H, invert_Lambda2
from .pathio import _atomic_write, read_path, write_path
from .simulate import SIM_KINDS, SimSpec, simulate
from .stable import estimate_alpha
from .statistics import r_local, r_pn, r_tilde_2n

EXIT_OK, EXIT_VERDICT, EXIT_USAGE = 0, 1, 2

# build settings of the reduced tables served when <kind>.tsv is missing,
# and the replication counts below which a `roughir tables` build warns
AUTO = {"gaussian": dict(reps=300, path_len=2048), "stable": dict(reps=200_000)}
PRODUCTION_REPS = {"gaussian": 1000, "stable": 100_000}

TREND_PRESETS = {
    "none": None,
    "smooth": (lambda t: 2.0 + np.sin(2.0 * np.pi * t), lambda t: t * t),
    "linear": (lambda t: 1.0, lambda t: t),
}


def _table_dir(args):
    return args.table_dir or os.environ.get("ROUGHIR_TABLE_DIR") or "roughir-tables"


def _load_or_build(kind, args):
    d = _table_dir(args)
    fn = os.path.join(d, f"{kind}.tsv")
    if os.path.exists(fn):
        return tableio.KINDS[kind].load(fn)
    if args.strict:
        raise RoughIRError(f"--strict given but no prebuilt {kind} table at {fn}")
    print(f"warning: no prebuilt {kind} table at {fn}; using a reduced one with seed "
          f"{args.seed}, building it on first use and caching it in {d} "
          "(run `roughir tables` for full precision)", file=sys.stderr)
    return tableio.cached_table(kind, d, seed=args.seed, **AUTO[kind])


def _print_summary(stat, out):
    out.append(f"statistic={stat.value:.17g}")
    out.append(f"terms={stat.terms}")
    out.append(f"zero_over_zero={stat.zero_over_zero}")
    if stat.degenerate:
        out.append("diagnostic=degenerate (0/0 convention dominates; "
                   "constant or heavily quantized input)")


def _verdict_failure(out, message):
    print("\n".join(out))
    print(f"error: {message}", file=sys.stderr)
    return EXIT_VERDICT


def cmd_estimate(args):
    path, meta = read_path(args.input)
    out = [f"input={args.input}", f"n={path.n}", f"method={args.method}"]
    if args.p != 2:
        out.append(f"r_p{args.p}={r_pn(path, args.p).value:.17g}")
    if args.method != "local":
        stat = r_pn(path, 2) if args.method == "hurst" else r_tilde_2n(path)
        _print_summary(stat, out)
        if stat.degenerate:
            return _verdict_failure(out, "statistic is 0/0-dominated; no roughness information")
    if args.method == "hurst":
        try:
            est = estimate_H(path, _load_or_build("gaussian", args), conf=args.confidence)
        except (RangeError, InterpolationError) as e:
            return _verdict_failure(out, e)
        out += [f"h_hat={est.h_hat:.6f}", f"stderr={est.stderr:.6f}",
                f"ci_low={est.ci_low:.6f}", f"ci_high={est.ci_high:.6f}",
                f"confidence={est.confidence}"]
    elif args.method == "alpha":
        est = estimate_alpha(path, _load_or_build("stable", args), conf=args.confidence)
        out += [f"alpha_hat={est.alpha_hat:.6f}", f"stderr={est.stderr:.6f}",
                f"ci_low={est.ci_low:.6f}", f"ci_high={est.ci_high:.6f}",
                f"confidence={est.confidence}"]
        if est.clamped:
            out.append("diagnostic=clamped (statistic outside the tabulated range)")
    else:  # local
        stat = r_local(path, args.t0, args.window)
        _print_summary(stat, out)
        try:
            out.append(f"h_local={invert_Lambda2(stat.value):.6f}")
        except RangeError as e:
            out.append(f"h_local=out-of-range ({e.low:.4f}, {e.high:.4f})")
    text = "\n".join(out)
    print(text)
    if args.out:
        _atomic_write(args.out, text + "\n")
    return EXIT_OK


def _read_config(filename):
    opts = {}
    with open(filename) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            k, _, v = line.partition("=")
            opts[k.strip()] = v.strip()
    return opts


def _build_spec(args):
    cfg = _read_config(args.config) if args.config else {}
    kind = args.kind or cfg.get("kind")
    if kind is None:
        raise RoughIRError("simulate needs --kind or a config file with kind=")
    kind = kind.replace("-", "_")
    n = args.n or int(cfg.get("n", 0))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    params = {}
    if kind == "fbm":
        params["H"] = args.h if args.h is not None else float(cfg["h"])
    elif kind == "mbm":
        h0 = args.h_start if args.h_start is not None else cfg.get("h_start")
        h1 = args.h_end if args.h_end is not None else cfg.get("h_end")
        if h0 is not None and h1 is not None:
            params["H"] = [[0.0, float(h0)], [1.0, float(h1)]]
        else:
            params["H"] = args.h if args.h is not None else float(cfg["h"])
    elif kind == "multiscale_fbm":
        bands = args.band or [s.strip() for s in cfg.get("bands", "").split(";") if s.strip()]
        if not bands:
            raise RoughIRError("multiscale needs --band sigma:H (repeatable)")
        sigmas, hursts = [], []
        for b in bands:
            s, _, h = b.partition(":")
            sigmas.append(float(s))
            hursts.append(float(h))
        breaks_text = args.breaks if args.breaks is not None else cfg.get("breaks", "")
        breaks = [float(x) for x in breaks_text.split(",") if x.strip()]
        params.update(breaks=breaks, sigmas=sigmas, hursts=hursts)
    elif kind == "diffusion":
        params["preset"] = args.diffusion or cfg.get("preset", "brownian")
        if args.refine:
            params["refine"] = args.refine
        if args.x0 is not None:
            params["x0"] = args.x0
    elif kind == "levy_stable":
        params["alpha"] = args.alpha if args.alpha is not None else float(cfg["alpha"])
        params["scale"] = args.scale if args.scale is not None else float(cfg.get("scale", 1.0))
    elif kind == "levy_compound":
        params["a_weight"] = args.a_weight if args.a_weight is not None \
            else float(cfg.get("a_weight", 0.0))
        for key, flag in (("rate", args.rate), ("jump_scale", args.jump_scale),
                          ("stable_alpha", args.stable_alpha),
                          ("stable_c", args.stable_c),
                          ("stable_cutoff", args.stable_cutoff)):
            v = flag if flag is not None else cfg.get(key)
            if v is not None:
                params[key] = float(v)
    elif kind == "brownian":
        if args.scale is not None:
            params["scale"] = args.scale
    trend = TREND_PRESETS[args.trend or cfg.get("trend", "none")]
    return SimSpec(kind=kind, n=n, seed=seed, params=params, trend=trend)


def cmd_simulate(args):
    spec = _build_spec(args)
    path = simulate(spec)
    file_params = {k: v for k, v in spec.params.items()
                   if np.isscalar(v) or isinstance(v, str)}
    write_path(path, args.out, kind=spec.kind, seed=spec.seed, params=file_params)
    print(f"wrote {args.out} (kind={spec.kind}, n={spec.n}, seed={spec.seed})")
    return EXIT_OK


def cmd_tables(args):
    d = _table_dir(args)
    os.makedirs(d, exist_ok=True)
    fn = args.out or os.path.join(d, f"{args.kind}.tsv")
    build = {"seed": args.seed}
    if args.reps is not None:
        build["reps"] = args.reps
    if args.kind == "gaussian":
        build["path_len"] = args.path_len
    kind = tableio.KINDS[args.kind]
    table = kind.build(**build)
    kind.save(table, fn)
    if table.reps < PRODUCTION_REPS[args.kind]:
        print(f"warning: {table.reps} replications is low for a production table",
              file=sys.stderr)
    print(f"wrote {fn} (kind={args.kind}, reps={table.reps}, seed={args.seed})")
    return EXIT_OK


def cmd_experiment(args):
    options = {}
    kwargs = {}
    if args.name != "smooth-limit":
        options["seed"] = args.seed
    if args.name in ("clt-fbm", "levy-clt", "trend-robustness", "local-mbm") and args.n:
        options["n"] = args.n
    if args.reps:
        key = "pairs" if args.name == "trend-robustness" else "reps"
        if args.name != "smooth-limit":
            options[key] = args.reps
    if args.name == "clt-fbm":
        kwargs["variance_table"] = _load_or_build("gaussian", args)
        if args.h:
            options["h_values"] = args.h
        if args.confidence != 0.95:
            options["conf"] = args.confidence
    elif args.name == "levy-clt":
        kwargs["stable_table"] = _load_or_build("stable", args)
        if args.alpha_list:
            options["alphas"] = args.alpha_list
    report = run_experiment(args.name, **kwargs, **options)
    print("\n".join(report.summary_lines()))
    if args.out:
        report.write(args.out)
        print(f"report written to {args.out}")
    return EXIT_OK if report.passed else EXIT_VERDICT


def build_parser():
    ap = argparse.ArgumentParser(prog="roughir",
                                 description="increment-ratio roughness statistics")
    ap.add_argument("--table-dir", default=None,
                    help="directory of limit tables (default $ROUGHIR_TABLE_DIR "
                         "or ./roughir-tables)")
    sub = ap.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate H or alpha from a path file")
    est.add_argument("--input", required=True)
    est.add_argument("--method", choices=("hurst", "alpha", "local"), default="hurst")
    est.add_argument("--p", type=int, default=2, help="increment order for display")
    est.add_argument("--t0", type=float, default=0.5)
    est.add_argument("--window", type=float, default=0.6,
                     help="window exponent for method=local")
    est.add_argument("--confidence", type=float, default=0.95)
    est.add_argument("--seed", type=int, default=0, help="seed for auto-built tables")
    est.add_argument("--strict", action="store_true",
                     help="fail instead of auto-building missing tables")
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="simulate a process to a path file")
    sim.add_argument("--kind", choices=[k.replace("_", "-") for k in SIM_KINDS])
    sim.add_argument("--config", default=None, help="flat key=value config file")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--h", type=float, default=None)
    sim.add_argument("--h-start", type=float, default=None)
    sim.add_argument("--h-end", type=float, default=None)
    sim.add_argument("--band", action="append", default=None, metavar="SIGMA:H")
    sim.add_argument("--breaks", default=None, help="comma-separated band breakpoints")
    sim.add_argument("--diffusion", choices=("brownian", "mean-reverting"), default=None)
    sim.add_argument("--refine", type=int, default=None)
    sim.add_argument("--x0", type=float, default=None)
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--scale", type=float, default=None)
    sim.add_argument("--a-weight", type=float, default=None)
    sim.add_argument("--rate", type=float, default=None)
    sim.add_argument("--jump-scale", type=float, default=None)
    sim.add_argument("--stable-alpha", type=float, default=None)
    sim.add_argument("--stable-c", type=float, default=None)
    sim.add_argument("--stable-cutoff", type=float, default=None)
    sim.add_argument("--trend", choices=sorted(TREND_PRESETS), default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    tab = sub.add_parser("tables", help="build and persist a limit table")
    tab.add_argument("--kind", choices=("gaussian", "stable"), required=True)
    tab.add_argument("--reps", type=int, default=None)
    tab.add_argument("--path-len", type=int, default=4096)
    tab.add_argument("--seed", type=int, default=20240601)
    tab.add_argument("--out", default=None)
    tab.set_defaults(func=cmd_tables)

    exp = sub.add_parser("experiment", help="run a named verification experiment")
    exp.add_argument("--name", choices=EXPERIMENT_NAMES, required=True)
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--reps", type=int, default=None)
    exp.add_argument("--seed", type=int, default=1000)
    exp.add_argument("--h", type=float, action="append", default=None)
    exp.add_argument("--alpha-list", type=float, action="append", default=None)
    exp.add_argument("--confidence", type=float, default=0.95)
    exp.add_argument("--strict", action="store_true")
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (RoughIRError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
