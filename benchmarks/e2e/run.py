#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                     # every workload, once
    python3 benchmarks/e2e/run.py --runs 3 --traced --json out.json
    python3 benchmarks/e2e/run.py --only sedov_hydro,campaign_sweep --seed 7
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --update-reference

Each run of a workload is one fresh subprocess (``e2e_protocol.py``) with
a pinned allocator environment; this file launches them, rolls the runs
up into medians and quartiles, prints every metric by name with its unit
and writes the result file ``compare`` reads.

``--workload NAME --seed N --seconds S --trace 0|1`` is the form the
benchmark driver calls (see BENCHMARK.json): one workload, one run, and a
last stdout line holding ``correct``/``attempted``/``failed``/``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
METRICS = json.loads((HERE / "metrics.json").read_text())
WORKLOAD_NAMES = ("cosmo_full_serial", "sedov_hydro", "dist2_clustered",
                  "campaign_sweep")
REFERENCE_SEEDS = (42, 7)  # default and held-out
RUN_SECONDS = 20  # == BENCHMARK.json run_seconds

#: freed arrays go back to the heap, not to the kernel: without this the
#: same pass swings 4x on first-touch page faults of fresh mmaps (README)
PINNED_ENV = {"MALLOC_MMAP_MAX_": "0",
              "MALLOC_TRIM_THRESHOLD_": "200000000000",
              "MALLOC_ARENA_MAX": "1"}

#: metrics the driver contract cannot carry as end-to-end metrics (they
#: read 0 on a healthy run); it gets them as correct/attempted/failed
ZERO_WHEN_HEALTHY = ("failed_frac", "result_err")


def spawn(workload: str, seed: int, scale: str, seconds: float,
          trace: int) -> dict:
    """One run: a fresh pinned subprocess; a noisy run is rerun once."""
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "e2e_protocol.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    for attempt in (1, 2):
        proc = subprocess.run(cmd, env={**os.environ, **PINNED_ENV},
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        record = json.loads(proc.stdout.splitlines()[-1])
        record["attempts"] = attempt
        if not record["noisy"]:
            break
    try:
        workdir.parent.rmdir()  # the worker removed its own directory
    except OSError:
        pass  # another run is still using it
    return record


# -- provenance ---------------------------------------------------------------
def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a bare checkout: nothing to stamp
    out = subprocess.run(["git", "-C", str(ROOT), *args],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _dirty(path: str = ".") -> bool | None:
    status = _git("status", "--porcelain", "--", path)
    return None if status is None else bool(status)


def _host() -> dict:
    def first(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": first("/proc/cpuinfo", "model name"),
            "mem_total": first("/proc/meminfo", "MemTotal"),
            "platform": platform.platform()}


def provenance(args, records: list) -> dict:
    return {
        "commit": _git("rev-parse", "HEAD"), "dirty": _dirty(),
        "host": _host(), "python": platform.python_version(),
        "program": records[0]["program"] if records else None,
        "allocator_env": PINNED_ENV, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "runs": args.runs,
        "sizes": {r["workload"]: r["size"] for r in records},
    }


# -- roll-up and report -------------------------------------------------------
def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def roll_up(records: list, declared: list) -> dict:
    """Per-metric values over runs with median and quartiles; a declared
    metric a workload never produced reads 0 (its layer did no work)."""
    out = {}
    for m in declared:
        values = [r["metrics"].get(m["name"], 0) for r in records]
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                          "q3": q3, "values": values}
    return out


def print_report(name: str, entry: dict) -> None:
    runs, traced = entry["runs"], entry["traced_runs"]
    print(f"\n== {name}: {len(runs)} run(s), {len(traced)} traced ==")
    for r in runs + traced:
        if r["failed_checks"]:
            print(f"  FAILED CHECKS (trace {r['trace']}): "
                  f"{', '.join(r['failed_checks'])}")
    if runs:
        n = runs[0]["samples"]
        print(f"samples in the first run: {n['timed_passes']} timed passes, "
              f"{n['step_s']} steps, {n['setup_s']} set-ups")
        print(f"{'metric':34s} {'unit':6s} {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s}")
        for metric, s in entry["end_to_end"].items():
            print(f"{metric:34s} {s['unit']:6s} {s['median']:14.6g} "
                  f"{s['q1']:14.6g} {s['q3']:14.6g}")
    if not traced:
        return
    print("-- per-layer metrics (median over traced runs) --")
    for metric, s in entry["per_layer"].items():
        print(f"{metric:46s} {s['unit']:6s} {s['median']:14.6g}")
    b = traced[0]["budget"]
    wall = b["traced_wall_s"]
    print(f"-- layer budget on track {b['track']!r}: "
          f"traced pass {wall:.4f} s --")
    rows = sorted(b["layers"].items(), key=lambda kv: -kv[1])
    rows += [("driver_self", b["driver_self_s"]),
             ("unattributed", b["unattributed_s"])]
    for key, sec in rows:
        print(f"  {key:44s} {sec:10.4f} s {100 * sec / wall:6.1f} %")
    total = sum(sec for _, sec in rows)
    print(f"  {'sum':44s} {total:10.4f} s {100 * total / wall:6.1f} %")
    if entry["per_layer"]["bench.trace_overhead_frac"]["median"] >= 0.05:
        print("  FLAG: trace overhead >= 5%: layer numbers flagged")
    if traced[0]["varying"]:
        print(f"  FLAG: exact metrics varied: {traced[0]['varying']}")
    if traced[0]["missing_targets"]:
        print(f"  FLAG: targets not found: {traced[0]['missing_targets']}")


def contract_line(entry: dict, trace: int) -> str:
    """The driver's result object: BENCHMARK.json's metrics for this mode."""
    if trace:
        records, rolled = entry["traced_runs"], entry["per_layer"]
        names = [m["name"] for m in METRICS["per_layer"]]
    else:
        records, rolled = entry["runs"], entry["end_to_end"]
        names = [m["name"] for m in METRICS["end_to_end"]
                 if m["name"] not in ZERO_WHEN_HEALTHY]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return json.dumps({
        "correct": failed == 0 and all(r["result_err"] == 0 for r in records),
        "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": rolled[n]["median"],
                        "unit": rolled[n]["unit"]} for n in names},
    })


def update_reference() -> int:
    if _dirty("src") is not False:
        print("refusing: src/ has uncommitted changes (or this is not a git "
              "checkout); the reference must describe a committed program",
              file=sys.stderr)
        return 1
    path = HERE / "reference.json"
    path.write_text("{}\n")  # runs below must not compare to the old one
    reference: dict = {}
    for name in WORKLOAD_NAMES:
        for seed in REFERENCE_SEEDS:
            record = spawn(name, seed, "full", 0, 0)
            if record["failed"]:
                print(f"refusing: {name} seed {seed} fails "
                      f"{record['failed_checks']}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = record["stats"]
    reference["_provenance"] = {"commit": _git("rev-parse", "HEAD"),
                                "program": record["program"]}
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from e2e_compare import main as compare_main
        return compare_main(argv[1:])

    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="driver form: this workload only, result line last")
    ap.add_argument("--only", default=",".join(WORKLOAD_NAMES),
                    help="comma-separated workloads (default: all four)")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="seconds each run measures (after pass 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver form: 0 = end-to-end run, 1 = traced run")
    ap.add_argument("--traced", action="store_true",
                    help="after the untraced runs, one traced run each")
    ap.add_argument("--runs", type=int, default=1,
                    help="subprocess runs per workload, kept per run")
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--json", type=Path, help="write the result file here")
    ap.add_argument("--update-reference", action="store_true",
                    help="rewrite reference.json (refuses on a dirty src/)")
    args = ap.parse_args(argv)
    if args.update_reference:
        return update_reference()

    names = [args.workload] if args.workload else args.only.split(",")
    unknown = set(names) - set(WORKLOAD_NAMES)
    if unknown:
        ap.error(f"unknown workload(s): {sorted(unknown)}")
    plain_runs = 0 if (args.workload and args.trace) else args.runs
    traced_runs = (args.runs if (args.workload and args.trace)
                   else int(args.traced))

    result = {"workloads": {}}
    records = []
    for name in names:
        entry = {
            "runs": [spawn(name, args.seed, args.scale, args.seconds, 0)
                     for _ in range(plain_runs)],
            "traced_runs": [spawn(name, args.seed, args.scale,
                                  args.seconds, 1)
                            for _ in range(traced_runs)],
        }
        records += entry["runs"] + entry["traced_runs"]
        entry["end_to_end"] = (roll_up(entry["runs"], METRICS["end_to_end"])
                               if entry["runs"] else {})
        entry["per_layer"] = (roll_up(entry["traced_runs"],
                                      METRICS["per_layer"])
                              if entry["traced_runs"] else {})
        result["workloads"][name] = entry
        print_report(name, entry)
    result["provenance"] = provenance(args, records)
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    failed = sum(r["failed"] for r in records)
    if args.workload:
        print(contract_line(result["workloads"][args.workload], args.trace))
        return 0
    print(f"\n{len(records)} run(s), {failed} failed operation(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
