"""Path file format: `# key=value` header lines, then t<TAB>value rows.

Values are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Row j of a path with n+1 rows is sampled at t = j/n.
"""

import math
import os
import tempfile

import numpy as np

from .errors import ParseError
from .increments import SampledPath

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


def format_params(params):
    return ",".join(f"{k}={v}" for k, v in params.items())


def write_path(path, filename, kind="data", seed=None, params=None):
    """Write a SampledPath with its provenance header."""
    lines = [f"# n={path.n}", f"# kind={kind}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    if params:
        lines.append(f"# params={format_params(params)}")
    t = path.times()
    for tt, v in zip(t, path.values):
        lines.append(f"{tt:.17g}\t{v:.17g}")
    _atomic_write(filename, "\n".join(lines) + "\n")


def read_path(filename):
    """Read a path file; returns (SampledPath, header dict).

    Malformed or non-finite rows, and rows whose time is not j/n, raise
    ParseError carrying the 1-based line number.
    """
    meta = {}
    times, values, linenos = [], [], []
    with open(filename) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    meta[k.strip()] = v.strip()
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected 't<TAB>value', got {line!r}", line=lineno)
            try:
                t = float(parts[0])
                v = float(parts[1])
            except ValueError:
                raise ParseError(f"non-numeric row {line!r}", line=lineno) from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ParseError(f"non-finite sample {line!r}", line=lineno)
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
