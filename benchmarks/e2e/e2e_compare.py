"""``run.py compare A.json B.json``: is B a regression against A?

A and B are result files written by ``run.py --json`` (A the parent or
the first A/A set, B the change or the second).  One row per workload and
end-to-end metric:

- ``worse`` / ``better``: B's median moved by more than the metric's bound;
- ``same``: it did not;
- ``unresolved``: A's own spread (quartile distance over median) is wider
  than the bound, so the bound cannot be applied — unless every run of B
  reads better than every run of A, which still counts as ``better``.

Every per-layer metric marked ``exact`` must read the same in every traced
run of both files.  Exits non-zero on any ``worse`` or exact mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

METRICS = json.loads((Path(__file__).resolve().parent / "metrics.json")
                     .read_text())


def verdict(metric: dict, a: list, b: list) -> str:
    """Classify B against A for one end-to-end metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    if metric["bound"] == 0:  # failed_frac, result_err: any rise is worse
        return ("worse" if b_med > a_med else
                "better" if b_med < a_med else "same")
    worse_by = sign * (b_med - a_med) / abs(a_med)
    if len(a) >= 2:
        q1, _, q3 = statistics.quantiles(a, n=4)
        if (q3 - q1) / abs(a_med) > metric["bound"]:
            all_better = (max(b) < min(a) if sign > 0 else min(b) > max(a))
            return "better" if all_better else "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    return "better" if worse_by < -metric["bound"] else "same"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    bad = 0
    print(f"{'workload':20s} {'metric':24s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s}  verdict")
    for name, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"].get(name)
        if b_entry is None:
            continue
        for metric in METRICS["end_to_end"]:
            a = a_entry["end_to_end"].get(metric["name"])
            b = b_entry["end_to_end"].get(metric["name"])
            if not a or not b:
                continue
            v = verdict(metric, a["values"], b["values"])
            bad += v == "worse"
            change = (b["median"] / a["median"] - 1.0) if a["median"] else 0.0
            print(f"{name:20s} {metric['name']:24s} {a['median']:12.5g} "
                  f"{b['median']:12.5g} {change:+8.1%}  {v}")
        for metric in METRICS["per_layer"]:
            if not metric["exact"]:
                continue
            values = {v for entry in (a_entry, b_entry)
                      for v in entry["per_layer"].get(
                          metric["name"], {}).get("values", ())}
            if len(values) > 1:
                bad += 1
                print(f"{name:20s} {metric['name']:24s} exact metric differs: "
                      f"{sorted(values)}")
    print("regression" if bad else "no regression")
    return 1 if bad else 0
