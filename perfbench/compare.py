"""Compare two result sets of the benchmark.

    python3 perfbench/run.py --compare PARENT CHANGE

Each side is a directory of ``result-*.json`` files (or one such file).
For every workload and metric the table gives each side's median and
quartiles, the ratio of the medians (change / parent) and a verdict:

* better: the change wins at least 9 in 10 of the runs paired by seed
  (ties count for neither) and the medians differ by more than the
  parent's quartile distance, or every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than the
  metric's bound, and the spread allows telling (or every change run is
  worse than every parent run);
* unresolved: the spread between quartiles, as a share of the median,
  is wider than the bound, or a side has fewer than three runs;
* unchanged: otherwise, and whenever both sides read the same values.

End-to-end metrics take their bound from BENCHMARK.json; ``failed_frac``
has bound 0.  Per-layer metrics and the wall-clock twins of the
reference-time metrics have no bound: they are better, worse (the same
pair rule, in the other direction) or unresolved.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: runs a side needs before its spread means anything
MIN_RUNS = 3


def load(path):
    p = Path(path)
    files = sorted(p.glob("result-*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        with open(f) as fh:
            runs.append(json.load(fh))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a_runs, b_runs, higher_better, bound):
    """a_runs/b_runs: {seed: value} for the parent and the change."""
    a = list(a_runs.values())
    b = list(b_runs.values())
    if sorted(a) == sorted(b):
        return "unchanged"
    if min(len(a), len(b)) < MIN_RUNS:
        return "unresolved"
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if higher_better else -1.0

    def gain(x, y):  # > 0 when y is better than x
        return sign * (y - x)

    seeds = sorted(set(a_runs) & set(b_runs))
    pairs = ([(a_runs[s], b_runs[s]) for s in seeds] if seeds
             else list(zip(sorted(a), sorted(b))))
    wins = sum(gain(x, y) > 0 for x, y in pairs)
    losses = sum(gain(x, y) < 0 for x, y in pairs)
    all_better = all(gain(x, y) > 0 for x in a for y in b)
    all_worse = all(gain(x, y) < 0 for x in a for y in b)
    moved = abs(bm - am) > (a3 - a1)
    worse_by = -gain(am, bm) / abs(am) if am else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    if (pairs and wins >= 0.9 * len(pairs) and moved) or all_better:
        return "better"
    if bound is None:
        if (pairs and losses >= 0.9 * len(pairs) and moved) or all_worse:
            return "worse"
        return "unresolved"
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound:
        return "unresolved"
    return "unchanged"


def compare(spec, path_a, path_b) -> int:
    runs_a, runs_b = load(path_a), load(path_b)
    if not runs_a or not runs_b:
        print("no result files found")
        return 2
    metrics = {m["name"]: (m["better"] == "higher", m.get("bound"), m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"]}
    metrics["failed_frac"] = (False, 0.0, "frac")
    # wall-clock twins of the gated reference-time metrics, without a bound
    metrics.update({"verified_per_s": (True, None, "1/s"),
                    "instance_p50_s": (False, None, "s"),
                    "instance_p90_s": (False, None, "s")})
    workloads = sorted({r["workload"] for r in runs_a + runs_b})
    print(f"{'workload':12s} {'metric':40s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'ratio':>8s}  verdict")
    for wl in workloads:
        for trace in (0, 1):
            a = [r for r in runs_a if r["workload"] == wl and r["trace"] == trace]
            b = [r for r in runs_b if r["workload"] == wl and r["trace"] == trace]
            if not a or not b:
                continue
            for name in a[0]["metrics"]:
                if name not in metrics:
                    continue
                higher, bound, unit = metrics[name]
                av = {r["seed"]: r["metrics"][name]["value"] for r in a}
                bv = {r["seed"]: r["metrics"][name]["value"] for r in b
                      if name in r["metrics"]}
                if not bv:
                    continue
                a1, am, a3 = quartiles(list(av.values()))
                b1, bm, b3 = quartiles(list(bv.values()))
                ratio = bm / am if am else float("nan")
                v = verdict(av, bv, higher, bound)
                print(f"{wl:12s} {name:40s} {_side(am, a1, a3):>32s} "
                      f"{_side(bm, b1, b3):>32s} {ratio:8.4f}  {v} "
                      f"({unit}, n={len(av)}/{len(bv)})")
    return 0


def _side(median, q1, q3):
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"
