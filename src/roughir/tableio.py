"""Persistence and caching of the Monte Carlo limit tables.

One self-describing delimited text format for both table kinds:

    # schema=roughir-table-v1
    # kind=gaussian|stable
    # <key>=<value> ...
    <tab-separated column header>
    <tab-separated rows, 17 significant digits>

Rebuilding with the same seed reproduces the file byte for byte.  KINDS
is the one map from a table kind to its builder, saver and loader.
"""

import functools
import hashlib
import math
import os
from collections import namedtuple
from pathlib import Path

import numpy as np

from .errors import ParseError
from .gaussian import VarianceTable, build_variance_table
from .pathio import _atomic_write
from .stable import LambdaTildeTable, build_stable_table

SCHEMA = "roughir-table-v1"
VARIANCE_COLUMNS = ("H", "p", "sigma", "mc_stderr")
STABLE_COLUMNS = ("alpha", "lambda", "lambda_stderr", "sigma_sq", "sigma_sq_stderr",
                  "dlambda_dalpha")


def _write(filename, kind, meta, columns, rows):
    lines = [f"# schema={SCHEMA}", f"# kind={kind}"]
    lines += [f"# {k}={v}" for k, v in meta.items()]
    lines.append("\t".join(columns))
    lines += ["\t".join(f"{v:.17g}" for v in row) for row in rows]
    _atomic_write(filename, "\n".join(lines) + "\n")


def _read(filename, kind, columns, meta_keys):
    """The integer metadata meta_keys and (line number, floats of columns)
    per data row of a kind table file."""
    meta = {}
    header = None
    rows = []
    with open(filename) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                k, _, v = line[1:].partition("=")
                meta[k.strip()] = v.strip()
            elif header is None:
                header = line.split("\t")
            else:
                rows.append((lineno, line.split("\t")))
    if meta.get("schema") != SCHEMA:
        raise ParseError(f"not a {SCHEMA} file (schema={meta.get('schema')!r})", line=None)
    if meta.get("kind") != kind:
        raise ParseError(f"expected a {kind} table, got kind={meta.get('kind')!r}", line=None)
    if not rows:
        raise ParseError("table file has no data rows", line=None)
    missing = [c for c in columns if c not in header]
    if missing:
        raise ParseError(f"missing column(s) {', '.join(missing)}", line=None)
    try:
        ints = {k: int(meta[k]) for k in meta_keys}
    except KeyError as e:
        raise ParseError(f"missing '# {e.args[0]}=' metadata line", line=None) from None
    except ValueError as e:
        raise ParseError(f"bad metadata value: {e}", line=None) from None
    idx = [header.index(c) for c in columns]
    data = []
    for lineno, parts in rows:
        try:
            if len(parts) != len(header):
                raise ValueError(f"row has {len(parts)} fields, header has {len(header)}")
            data.append((lineno, [float(parts[i]) for i in idx]))
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from None
    return ints, data


def save_variance_table(table, filename):
    rows = []
    for p, sig, se in ((1, table.sigma1, table.sigma1_stderr),
                       (2, table.sigma2, table.sigma2_stderr)):
        for H, s, e in zip(table.h_grid, sig, se):
            if not math.isnan(s):
                rows.append((H, p, s, e))
    meta = {"reps": table.reps, "path_len": table.path_len, "seed": table.seed}
    _write(filename, "gaussian", meta, VARIANCE_COLUMNS, rows)


def load_variance_table(filename):
    ints, rows = _read(filename, "gaussian", VARIANCE_COLUMNS, ("reps", "path_len", "seed"))
    by_p = {1: {}, 2: {}}
    for lineno, (h, p, s, e) in rows:
        if p not in by_p:
            raise ParseError(f"unknown p={p:g} (expected 1 or 2)", line=lineno)
        by_p[int(p)][h] = (s, e)
    if not by_p[2]:
        raise ParseError("no p=2 rows", line=None)
    grid = np.array(sorted(by_p[2]))
    s1, s1e = np.array([by_p[1].get(h, (math.nan, math.nan)) for h in grid]).T
    s2, s2e = np.array([by_p[2][h] for h in grid]).T
    return VarianceTable(grid, s1, s1e, s2, s2e, **ints)


def save_stable_table(table, filename):
    rows = zip(table.alpha_grid, table.lam, table.lam_stderr, table.sigma_sq,
               table.sigma_sq_stderr, table.dlam)
    meta = {"reps": table.reps, "seed": table.seed,
            "monotone_violations": table.monotone_violations}
    _write(filename, "stable", meta, STABLE_COLUMNS, rows)


def load_stable_table(filename):
    ints, rows = _read(filename, "stable", STABLE_COLUMNS,
                       ("reps", "seed", "monotone_violations"))
    data = np.array([values for _, values in rows])
    return LambdaTildeTable(*data[np.argsort(data[:, 0])].T, **ints)


TableKind = namedtuple("TableKind", "build save load")
KINDS = {
    "gaussian": TableKind(build_variance_table, save_variance_table, load_variance_table),
    "stable": TableKind(build_stable_table, save_stable_table, load_stable_table),
}


@functools.cache
def _source_digest():
    """12-hex digest of the package's *.py sources, read on first use."""
    h = hashlib.sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        h.update(source.name.encode() + b"\0" + source.read_bytes())
    return h.hexdigest()[:12]


def cached_table(kind, directory, **build):
    """Load the kind table built with **build from directory, building and
    saving it there first if missing.  The file name carries the kind,
    every build parameter and a digest of the package sources, so a table
    built by other code or with other settings is never served.  Building
    deletes the files of the same kind and settings under other digests."""
    tag = "-".join(f"{k}{v}" for k, v in sorted(build.items()))
    fn = os.path.join(directory, f"{kind}-{tag}-{_source_digest()}.tsv")
    if os.path.exists(fn):
        return KINDS[kind].load(fn)
    table = KINDS[kind].build(**build)
    os.makedirs(directory, exist_ok=True)
    KINDS[kind].save(table, fn)
    for old in Path(directory).glob(f"{kind}-{tag}-{'[0-9a-f]' * 12}.tsv"):
        if old.name != os.path.basename(fn):
            old.unlink()
    return table
