"""The one text format of path files, limit tables and experiment appendices:
`# key=value` header lines, then tab-separated rows of numbers written with
17 significant digits, which round-trips IEEE doubles exactly.  A path file
has t<TAB>value rows; row j of a path with n+1 rows is sampled at t = j/n.
"""

import math
import os
import tempfile

import numpy as np

from .errors import ParseError
from .increments import SampledPath

SEP = "\t"  # between the fields of a row
# largest accepted |t*n - j| for row j of n+1 rows: a thousandth of a grid step
T_TOL = 1e-3


def _atomic_write(filename, text):
    d = os.path.dirname(os.path.abspath(filename))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        umask = os.umask(0)  # mkstemp makes 0600; give the mode open() would
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, filename)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows(filename, meta, rows, header=None):
    """Write meta as `# key=value` lines, then the optional column header and the rows."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    if header is not None:
        lines.append(SEP.join(header))
    lines += [SEP.join([f"{v:.17g}" for v in row]) for row in rows]
    _atomic_write(filename, "\n".join(lines) + "\n")


def read_rows(filename):
    """(meta, [(1-based line number, fields)]) of a file in this format."""
    meta = {}
    with open(filename) as f:
        return meta, list(_data_rows(f, meta))


def _data_rows(lines, meta):
    """Stripped data lines as (line number, fields split at tabs), skipping blank
    lines and `#` lines without `=`; other `#` lines fill meta.  read_path streams
    these, so that a long path is never held in memory as strings."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif line:
            yield lineno, line.split(SEP)


def write_path(path, filename, kind="data", seed=None, params=None):
    """Write a SampledPath with its provenance header."""
    meta = {"n": path.n, "kind": kind}
    if seed is not None:
        meta["seed"] = seed
    if params:
        meta["params"] = ",".join(f"{k}={v}" for k, v in params.items())
    # Python floats format faster than numpy scalars, to the same digits
    write_rows(filename, meta, zip(path.times().tolist(), path.values.tolist()))


def read_path(filename):
    """Read a path file; returns (SampledPath, header dict).

    Malformed or non-finite rows, and rows whose time is not j/n, raise
    ParseError carrying the 1-based line number.
    """
    meta, times, values, linenos = {}, [], [], []
    with open(filename) as f:
        for lineno, parts in _data_rows(f, meta):
            if len(parts) != 2:
                raise ParseError(f"expected 't<TAB>value', got {SEP.join(parts)!r}", line=lineno)
            try:
                t = float(parts[0])
                v = float(parts[1])
            except ValueError:
                raise ParseError(f"non-numeric row {SEP.join(parts)!r}", line=lineno) from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ParseError(f"non-finite sample {SEP.join(parts)!r}", line=lineno)
            times.append(t)
            values.append(v)
            linenos.append(lineno)
    if len(values) < 2:
        raise ParseError("file holds fewer than 2 samples", line=None)
    if "n" in meta:
        try:
            n = int(meta["n"])
        except ValueError:
            raise ParseError(f"header n={meta['n']!r} is not an integer", line=None) from None
        if n + 1 != len(values):
            raise ParseError(f"header says n={n} but file has {len(values)} rows", line=None)
    n = len(values) - 1
    off = np.flatnonzero(np.abs(np.asarray(times) * n - np.arange(n + 1)) > T_TOL)
    if off.size:
        j = int(off[0])
        raise ParseError(f"row {j} has time {times[j]!r}, expected {j}/{n} on the sampling grid",
                         line=linenos[j])
    return SampledPath(np.asarray(values)), meta
