"""Compare two sets of untraced result files, e.g. a parent commit and a change.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds BENCH_<workload>_seed<n>_trace0.json files (copies of
perfbench/out/ after runs of one commit).  For every workload and
end-to-end metric it prints both medians, their quartile spreads and the
change as a share of the first median, and flags a change worse than the
metric's bound in BENCHMARK.json.  For every seed run on both sides it
reports whether the determinism digests agree; a changed digest is
reported, never failed, since a new summation order may move last bits.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: result}} from one directory of result files."""
    runs = {}
    for f in sorted(Path(directory).glob("BENCH_*_trace0.json")):
        r = json.loads(f.read_text())
        p = r["provenance"]
        runs.setdefault(p["workload"], {})[p["seed"]] = r
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(before, after, spec):
    lines = []
    for workload in sorted(set(before) & set(after)):
        b, a = before[workload], after[workload]
        lines.append(f"{workload}: {len(b)} runs before, {len(a)} after")
        for m in spec["end_to_end"]:
            vb = [r["metrics"][m["name"]]["value"] for r in b.values()]
            va = [r["metrics"][m["name"]]["value"] for r in a.values()]
            mb, ma = statistics.median(vb), statistics.median(va)
            change = (ma - mb) / mb
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            lines.append(f"  {m['name']:14s} {mb:12.6g} -> {ma:12.6g} {m['unit']:5s} "
                         f"{change:+.3f} (spreads {spread(vb):.3f} / {spread(va):.3f})"
                         + ("  WORSE THAN BOUND" if worse else ""))
        for seed in sorted(set(b) & set(a)):
            same = b[seed]["digest"] == a[seed]["digest"]
            lines.append(f"  seed {seed}: digest {'same' if same else 'CHANGED'}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(load(argv[0]), load(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
