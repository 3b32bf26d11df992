"""Command-line front end: estimate | simulate | tables | experiment.

Exit codes: 0 success / all verdicts pass, 1 verdict failure, 2 usage or
parse errors.  Limit tables are <kind>.tsv in --table-dir (or
$ROUGHIR_TABLE_DIR, default ./roughir-tables); a missing one is replaced by
a reduced cached table with a warning unless --strict requires it.
"""

import argparse
import inspect
import os
import sys
import time

from . import tableio
from .errors import RangeError, RoughIRError
from .experiments import EXPERIMENT_NAMES, EXPERIMENTS, run_experiment
from .gaussian import estimate_H, invert_Lambda2
from .pathio import _atomic_write, read_path, write_path
from .simulators import DIFFUSION_PRESETS, SIM_KINDS, TREND_PRESETS, SimSpec, simulate, simulator
from .stable import estimate_alpha
from .statistics import r_local, r_pn, r_tilde_2n

EXIT_OK, EXIT_VERDICT, EXIT_USAGE = 0, 1, 2

# build settings of the reduced tables served when <kind>.tsv is missing,
# and the replication counts below which a `roughir tables` build warns
AUTO = {"gaussian": dict(reps=300, path_len=2048), "stable": dict(reps=200_000)}
PRODUCTION_REPS = {"gaussian": 1000, "stable": 100_000}


def _accepted(fn, **given):
    """The given options that are not None and that fn's signature names."""
    names = inspect.signature(fn).parameters
    return {k: v for k, v in given.items() if v is not None and k in names}


def _table_dir(args):
    return args.table_dir or os.environ.get("ROUGHIR_TABLE_DIR") or "roughir-tables"


def _load_or_build(kind, args):
    d = _table_dir(args)
    fn = os.path.join(d, f"{kind}.tsv")
    if os.path.exists(fn):
        return tableio.KINDS[kind].load(fn)
    if args.strict:
        raise RoughIRError(f"--strict given but no prebuilt {kind} table at {fn}")
    print(f"warning: no prebuilt {kind} table at {fn}; using a reduced one, "
          f"building it on first use and caching it in {d} "
          "(run `roughir tables` for full precision)", file=sys.stderr)
    return tableio.cached_table(kind, d, **AUTO[kind])


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
    if args.method == "local":
        stat = r_local(path, args.t0, args.window)
        _print_summary(stat, out)
        try:
            out.append(f"h_local={invert_Lambda2(stat.value):.6f}")
        except RangeError as e:
            out.append(f"h_local=out-of-range ({e.low:.4f}, {e.high:.4f})")
    else:
        hurst = args.method == "hurst"
        stat = r_pn(path, 2) if hurst else r_tilde_2n(path)
        _print_summary(stat, out)
        if stat.degenerate:
            return _verdict_failure(out, "statistic is 0/0-dominated; no roughness information")
        estimator, kind = (estimate_H, "gaussian") if hurst else (estimate_alpha, "stable")
        try:
            est = estimator(path, _load_or_build(kind, args), conf=args.confidence)
        except RangeError as e:
            return _verdict_failure(out, e)
        out += [f"{'h' if hurst else 'alpha'}_hat={est.value:.6f}", f"stderr={est.stderr:.6f}",
                f"ci_low={est.ci_low:.6f}", f"ci_high={est.ci_high:.6f}",
                f"confidence={est.confidence}"]
        if est.clamped:
            out.append("diagnostic=clamped (statistic outside the tabulated range)")
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


def _bands(value):
    """(sigmas, hursts) of 'sigma:H' bands: a list, or one ';'-joined string."""
    bands = [b.split(":") for b in (value.split(";") if isinstance(value, str) else value)
             if b.strip()]
    if not bands or any(len(b) != 2 for b in bands):
        raise ValueError("expected one or more sigma:H bands")
    return [float(s) for s, _ in bands], [float(h) for _, h in bands]


def _build_spec(args):
    cfg = _read_config(args.config) if args.config else {}
    used = set()

    def read(name, convert=float, default=None, key=None, choices=None):
        """--name, else the config line <key>= (key defaults to name), else
        default, then checked and converted; None when absent.  A malformed
        value raises RoughIRError naming the flag."""
        used.add(key or name)
        value = getattr(args, name)
        value = cfg.get(key or name, default) if value is None else value
        if value is None:
            return None
        try:
            if choices is not None and value not in choices:
                raise ValueError(f"expected one of {', '.join(choices)}")
            return convert(value)
        except ValueError as e:
            raise RoughIRError(f"bad --{name.replace('_', '-')} value {value!r}: {e}") from None

    def needs(name):
        flag, key = {"H": ("h", "h"), "sigmas": ("band", "bands"),
                     "hursts": ("band", "bands")}.get(name, (name, name))
        return RoughIRError(f"simulate needs --{flag} or a config line {key}=")

    kind, n = read("kind", lambda v: v.replace("-", "_")), read("n", int)
    h, h0, h1 = read("h"), read("h_start"), read("h_end")
    sigmas, hursts = read("band", _bands, key="bands") or (None, None)
    given = dict(
        n=n, H=h if None in (h0, h1) else [[0.0, h0], [1.0, h1]],
        breaks=read("breaks", lambda t: [float(x) for x in t.split(",") if x.strip()], ""),
        sigmas=sigmas, hursts=hursts,
        preset=read("diffusion", str, key="preset", choices=DIFFUSION_PRESETS),
        refine=read("refine", int),
        **{k: read(k) for k in ("x0", "alpha", "scale", "a_weight", "rate", "jump_scale",
                                "stable_alpha", "stable_c", "stable_cutoff")})
    trend = TREND_PRESETS[read("trend", str, "none", choices=TREND_PRESETS)]
    seed = read("seed", int, 0)
    unknown = sorted(set(cfg) - used)
    if unknown:
        raise RoughIRError(f"unknown config key(s) {', '.join(unknown)} in {args.config}")
    if kind is None:
        raise needs("kind")
    fn = simulator(kind)
    params = _accepted(fn, **given)  # a flag reaches the simulators that name its parameter
    for name, p in inspect.signature(fn).parameters.items():
        if p.default is p.empty and name not in params and name != "seed":
            raise needs(name)
    return SimSpec(kind=kind, n=params.pop("n"), seed=seed, params=params, trend=trend)


def cmd_simulate(args):
    spec = _build_spec(args)
    path = simulate(spec)
    write_path(path, args.out, kind=spec.kind, seed=spec.seed, params=spec.params)
    print(f"wrote {args.out} (kind={spec.kind}, n={spec.n}, seed={spec.seed})")
    return EXIT_OK


def cmd_tables(args):
    kind = tableio.KINDS[args.kind]
    start = time.perf_counter()

    def progress(i, total):
        print(f"{args.kind} cell {i}/{total} ({time.perf_counter() - start:.1f} s)",
              file=sys.stderr)

    table = kind.build(**_accepted(kind.build, seed=args.seed, reps=args.reps,
                                   path_len=args.path_len, progress=progress))
    fn = args.out
    if fn is None:  # made only once the build has succeeded
        d = _table_dir(args)
        os.makedirs(d, exist_ok=True)
        fn = os.path.join(d, f"{args.kind}.tsv")
    kind.save(table, fn)
    if table.reps < PRODUCTION_REPS[args.kind]:
        print(f"warning: {table.reps} replications is low for a production table",
              file=sys.stderr)
    print(f"wrote {fn} (kind={args.kind}, reps={table.reps}, seed={table.seed})")
    return EXIT_OK


def cmd_experiment(args):
    fn = EXPERIMENTS[args.name]
    tables = {key: _load_or_build(kind, args) for key, kind in
              _accepted(fn, variance_table="gaussian", stable_table="stable").items()}
    options = _accepted(fn, seed=args.seed, n=args.n, reps=args.reps, pairs=args.reps,
                        h_values=args.h, alphas=args.alpha_list, conf=args.confidence)
    report = run_experiment(args.name, **tables, **options)
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
    est.add_argument("--strict", action="store_true",
                     help="fail instead of auto-building missing tables")
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="simulate a process to a path file")
    sim.add_argument("--kind", choices=[k.replace("_", "-") for k in SIM_KINDS])
    sim.add_argument("--config", default=None, help="flat key=value config file")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    for flag in ("--h", "--h-start", "--h-end"):
        sim.add_argument(flag, type=float)
    sim.add_argument("--band", action="append", default=None, metavar="SIGMA:H")
    sim.add_argument("--breaks", default=None, help="comma-separated band breakpoints")
    sim.add_argument("--diffusion", choices=DIFFUSION_PRESETS, default=None)
    sim.add_argument("--refine", type=int, default=None)
    for flag in ("--x0", "--alpha", "--scale", "--a-weight", "--rate", "--jump-scale",
                 "--stable-alpha", "--stable-c", "--stable-cutoff"):
        sim.add_argument(flag, type=float)
    sim.add_argument("--trend", choices=sorted(TREND_PRESETS), default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    tab = sub.add_parser("tables", help="build and persist a limit table")
    tab.add_argument("--kind", choices=tableio.KINDS, required=True)
    tab.add_argument("--reps", type=int, default=None)
    tab.add_argument("--path-len", type=int, default=None)
    tab.add_argument("--seed", type=int, default=None, help="default: the builder's seed")
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
