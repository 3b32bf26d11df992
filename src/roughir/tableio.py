"""Persistence of the Monte Carlo limit tables.

One self-describing delimited text format for both table kinds:

    # schema=roughir-table-v1
    # kind=gaussian|stable
    # <key>=<value> ...
    <tab-separated column header>
    <tab-separated rows, 17 significant digits>

Rebuilding with the same seed reproduces the file byte for byte.
"""

import math

import numpy as np

from .errors import ParseError
from .gaussian import VarianceTable
from .pathio import _atomic_write
from .stable import LambdaTildeTable

SCHEMA = "roughir-table-v1"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write(filename, kind, meta, columns, rows):
    lines = [f"# schema={SCHEMA}", f"# kind={kind}"]
    lines += [f"# {k}={v}" for k, v in meta.items()]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    _atomic_write(filename, "\n".join(lines) + "\n")


def _read(filename):
    meta = {}
    columns = None
    rows = []
    with open(filename) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                k, _, v = body.partition("=")
                meta[k.strip()] = v.strip()
                continue
            if columns is None:
                columns = line.split("\t")
                continue
            parts = line.split("\t")
            if len(parts) != len(columns):
                raise ParseError(f"row has {len(parts)} fields, header has {len(columns)}",
                                 line=lineno)
            rows.append(parts)
    if meta.get("schema") != SCHEMA:
        raise ParseError(f"not a {SCHEMA} file (schema={meta.get('schema')!r})", line=None)
    if columns is None or not rows:
        raise ParseError("table file has no data rows", line=None)
    return meta, columns, rows


def save_variance_table(table, filename, extra_meta=None):
    cols = ["H", "p", "sigma", "mc_stderr", "reps", "path_len", "seed"]
    rows = []
    for p, sig, se in ((1, table.sigma1, table.sigma1_stderr),
                       (2, table.sigma2, table.sigma2_stderr)):
        for H, s, e in zip(table.h_grid, sig, se):
            if math.isnan(s):
                continue
            rows.append((float(H), p, float(s), float(e),
                         table.reps, table.path_len, table.seed))
    meta = {"reps": table.reps, "path_len": table.path_len, "seed": table.seed}
    meta.update(extra_meta or {})
    _write(filename, "gaussian", meta, cols, rows)


def load_variance_table(filename):
    meta, cols, rows = _read(filename)
    if meta.get("kind") != "gaussian":
        raise ParseError(f"expected a gaussian table, got kind={meta.get('kind')!r}", line=None)
    ih, ip, isg, ise = (cols.index(c) for c in ("H", "p", "sigma", "mc_stderr"))
    by_p = {1: {}, 2: {}}
    for r in rows:
        by_p[int(r[ip])][float(r[ih])] = (float(r[isg]), float(r[ise]))
    grid = np.array(sorted(by_p[2]))
    s2 = np.array([by_p[2][h][0] for h in grid])
    s2e = np.array([by_p[2][h][1] for h in grid])
    s1 = np.array([by_p[1].get(h, (math.nan, math.nan))[0] for h in grid])
    s1e = np.array([by_p[1].get(h, (math.nan, math.nan))[1] for h in grid])
    return VarianceTable(grid, s1, s1e, s2, s2e,
                         reps=int(meta["reps"]), path_len=int(meta["path_len"]),
                         seed=int(meta["seed"]))


def save_stable_table(table, filename, extra_meta=None):
    cols = ["alpha", "lambda", "lambda_stderr", "sigma_sq", "sigma_sq_stderr",
            "dlambda_dalpha", "reps", "seed"]
    rows = [(float(a), float(l), float(le), float(s), float(se), float(d),
             table.reps, table.seed)
            for a, l, le, s, se, d in zip(table.alpha_grid, table.lam,
                                          table.lam_stderr, table.sigma_sq,
                                          table.sigma_sq_stderr, table.dlam)]
    meta = {"reps": table.reps, "seed": table.seed,
            "monotone_violations": table.monotone_violations}
    meta.update(extra_meta or {})
    _write(filename, "stable", meta, cols, rows)


def load_stable_table(filename):
    meta, cols, rows = _read(filename)
    if meta.get("kind") != "stable":
        raise ParseError(f"expected a stable table, got kind={meta.get('kind')!r}", line=None)
    idx = {c: cols.index(c) for c in
           ("alpha", "lambda", "lambda_stderr", "sigma_sq", "sigma_sq_stderr",
            "dlambda_dalpha")}
    data = np.array([[float(r[idx[c]]) for c in idx] for r in rows])
    order = np.argsort(data[:, 0])
    data = data[order]
    return LambdaTildeTable(data[:, 0], data[:, 1], data[:, 2], data[:, 3],
                            data[:, 4], data[:, 5],
                            reps=int(meta["reps"]), seed=int(meta["seed"]),
                            monotone_violations=int(meta.get("monotone_violations", 0)))
