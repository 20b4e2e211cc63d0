"""Compare two sets of benchmark results: a base (parent commit) and a change.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out`` appended; only untraced runs
are read.  Run both sides with the same settings, one workload and seed
at a time, alternating which side runs first.  The i-th base run of a
workload is paired with its i-th new run.

For each workload and end-to-end metric the verdict is, in this order:

* ``better``: at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side), and the medians differ, in the
  change's favour, by more than the base runs' quartile spread;
* ``worse``: the change's median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the quartile spread of either side, as a share of its
  median, is wider than the bound, and not every change run reads better
  than every base run;
* ``unchanged``: otherwise.

Each cell prints the verdict and the ratio new/base with the base median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict[str, list[dict]]:
    """Untraced run metrics per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec["metrics"])
    return runs


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    gain = sign * (mn - mb)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > quartile_spread(base):
        return "better"
    if -gain > bound * abs(mb):
        return "worse"
    spread = max(quartile_spread(v) / abs(statistics.median(v) or 1.0) for v in (base, new))
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_path, new_path, spec: dict) -> list[str]:
    base, new = load(base_path), load(new_path)
    metrics = spec["end_to_end"]
    width = 30
    lines = [
        f"{'workload':12s} {'pairs':>5s}  "
        + " ".join(f"{m['name'] + ' (' + m['unit'] + ')':{width}s}" for m in metrics)
    ]
    for w in (w["name"] for w in spec["workloads"]):
        if w not in base or w not in new:
            lines.append(f"{w:12s} {'-':>5s}  missing from {'base' if w not in base else 'new'}")
            continue
        cells = []
        for m in metrics:
            b = [r[m["name"]] for r in base[w]]
            n = [r[m["name"]] for r in new[w]]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:.3f}x" if mb else "n/a"
            cell = f"{verdict(b, n, m['better'], m['bound'])} {ratio} of {mb:.4g}"
            cells.append(f"{cell:{width}s}")
        pairs = min(len(base[w]), len(new[w]))
        lines.append(f"{w:12s} {pairs:5d}  " + " ".join(cells))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    print("\n".join(compare(argv[0], argv[1], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
