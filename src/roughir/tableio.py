"""Persistence and caching of the Monte Carlo limit tables.

Both table kinds are files in pathio's text format:

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
import re
from collections import namedtuple
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .gaussian import VarianceTable, _check_sigma_p, build_variance_table
from .pathio import read_rows, write_rows
from .stable import LambdaTildeTable, build_stable_table

SCHEMA = "roughir-table-v1"
VARIANCE_COLUMNS = ("H", "p", "sigma", "mc_stderr")
STABLE_COLUMNS = ("alpha", "lambda", "lambda_stderr", "sigma_sq", "sigma_sq_stderr")


def _read(filename, kind, columns, meta_keys):
    """The integer metadata meta_keys and (line number, floats of columns)
    per data row of a kind table file."""
    meta, lines = read_rows(filename)
    if meta.get("schema") != SCHEMA:
        raise ParseError(f"not a {SCHEMA} file (schema={meta.get('schema')!r})", line=None)
    if meta.get("kind") != kind:
        raise ParseError(f"expected a {kind} table, got kind={meta.get('kind')!r}", line=None)
    if len(lines) < 2:
        raise ParseError("table file has no data rows", line=None)
    (_, header), *rows = lines
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
            values = [float(parts[i]) for i in idx]
            bad = [c for c, v in zip(columns, values) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"non-finite {', '.join(bad)}")
            data.append((lineno, values))
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from None
    return ints, data


def _table(cls, *columns, **ints):
    """cls(*columns, **ints), where breaking a rule of the table is a ParseError."""
    try:
        return cls(*columns, **ints)
    except DomainError as e:
        raise ParseError(str(e), line=None) from None


def save_variance_table(table, filename):
    rows = []
    for p, sig, se in ((1, table.sigma1, table.sigma1_stderr),
                       (2, table.sigma2, table.sigma2_stderr)):
        for H, s, e in zip(table.h_grid, sig, se):
            if not math.isnan(s):
                rows.append((H, p, s, e))
    meta = {"schema": SCHEMA, "kind": "gaussian", "reps": table.reps,
            "path_len": table.path_len, "seed": table.seed}
    write_rows(filename, meta, rows, header=VARIANCE_COLUMNS)


def load_variance_table(filename):
    ints, rows = _read(filename, "gaussian", VARIANCE_COLUMNS, ("reps", "path_len", "seed"))
    by_p = {1: {}, 2: {}}
    for lineno, (h, p, s, e) in rows:
        try:
            _check_sigma_p(p, h)  # the builders' rule: p is 1 or 2, and p=1 needs H < 3/4
        except DomainError as err:
            raise ParseError(str(err), line=lineno) from None
        if h in by_p[int(p)]:
            raise ParseError(f"repeated row H={h:g}, p={p:g}", line=lineno)
        by_p[int(p)][h] = (s, e)
    if not by_p[2]:
        raise ParseError("no p=2 rows", line=None)
    for lineno, (h, p, _, _) in rows:
        if p == 1 and h not in by_p[2]:
            raise ParseError(f"row H={h:g}, p=1 has no p=2 row at its H", line=lineno)
    grid = np.array(sorted(by_p[2]))
    s1, s1e = np.array([by_p[1].get(h, (math.nan, math.nan)) for h in grid]).T
    s2, s2e = np.array([by_p[2][h] for h in grid]).T
    return _table(VarianceTable, grid, s1, s1e, s2, s2e, **ints)


def save_stable_table(table, filename):
    rows = zip(table.alpha_grid, table.lam, table.lam_stderr, table.sigma_sq,
               table.sigma_sq_stderr)
    meta = {"schema": SCHEMA, "kind": "stable", "reps": table.reps, "seed": table.seed,
            "monotone_violations": table.monotone_violations}
    write_rows(filename, meta, rows, header=STABLE_COLUMNS)


def load_stable_table(filename):
    ints, rows = _read(filename, "stable", STABLE_COLUMNS,
                       ("reps", "seed", "monotone_violations"))
    lines, data = zip(*sorted(rows, key=lambda row: row[1][0]))  # by alpha
    data = np.array(data).T
    step = np.diff(data[:2])  # the alpha steps and the lambda steps
    # the rules that a row breaks, named with its line; the table checks the rest
    for bad, rule in ((step[0] == 0, "repeated alpha"),  # sorted alphas never fall
                      (step[1] > 0, "lambda rises with alpha; the limit curve is nonincreasing")):
        if bad.any():
            raise ParseError(rule, line=lines[bad.argmax() + 1])
    return _table(LambdaTildeTable, *data, **ints)


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
    deletes the files of the same kind and settings under other digests,
    and the <kind>-<settings>-seed<k>-<digest>.tsv files that older code
    wrote per command seed."""
    tag = "-".join(f"{k}{v}" for k, v in sorted(build.items()))
    fn = os.path.join(directory, f"{kind}-{tag}-{_source_digest()}.tsv")
    if os.path.exists(fn):
        return KINDS[kind].load(fn)
    table = KINDS[kind].build(**build)
    os.makedirs(directory, exist_ok=True)
    KINDS[kind].save(table, fn)
    stale = re.compile(re.escape(f"{kind}-{tag}-") + r"(seed[0-9]+-)?[0-9a-f]{12}\.tsv")
    for old in Path(directory).iterdir():
        if stale.fullmatch(old.name) and old.name != os.path.basename(fn):
            old.unlink()
    return table
