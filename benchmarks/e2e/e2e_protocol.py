"""One run of one workload, inside the subprocess ``run.py`` launches.

Run protocol (README, "Run protocol"): pass 0 is an untimed full pass of
the same inputs — it faults the heap to its high-water mark and finishes
imports and lazy set-up; program caches are then reset; then come the
measured passes.  With ``--trace 0`` they are timed passes with tracing
off, repeated until ``--seconds`` have been measured; the end-to-end
metrics are medians over them.  With ``--trace 1`` pass 0 and one pass of
each cycle run under the benchmark's wrappers; a cycle is one untraced
pass, one wrapped pass and, on the two driver workloads, one pass under
the program's own ``Observatory`` tracer.  The per-layer metrics come from
the wrapped passes, the two overhead gauges from the ratio to the untraced
passes, and every metric marked ``exact`` must read the same in pass 0 and
in each wrapped pass.

Prints one JSON record on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: passes (cycles) repeat until this many have run *and* --seconds have
#: elapsed
MIN_PASSES = {"full": 2, "smoke": 1}
#: besides its own set-up, each timed pass times extra set-ups until they
#: add up to this many seconds (at most MAX_EXTRA_SETUPS): one for the
#: simulation workloads, fifty for the sub-millisecond constructors of
#: dist2_clustered and campaign_sweep, whose single samples jitter by 20 %
EXTRA_SETUP_S = {"full": 0.05, "smoke": 0.0}
MAX_EXTRA_SETUPS = 50
#: reference tolerances: relative, and absolute for statistics near zero
RTOL, ATOL = 1e-6, 1e-9
#: more minor page faults than this in a timed pass mark the run noisy:
#: the allocator pinning leaked (pinned passes fault tens of pages, unpinned
#: ones thousands, at ~0.1 ms of sys CPU each on this class of VM)
NOISY_MINOR_FAULTS = 1000
METRICS = json.loads((HERE / "metrics.json").read_text())


def deviation(value: float, ref: float) -> float:
    """0 when ``value`` matches ``ref`` within tolerance, else the relative
    deviation."""
    err = abs(value - ref)
    if err <= ATOL + RTOL * abs(ref):
        return 0.0
    return err / max(abs(ref), ATOL)


def stats_error(stats: dict, ref: dict) -> float:
    """Largest deviation of any statistic (a missing one counts as 1)."""
    return max((deviation(stats[k], ref[k]) if k in stats else 1.0
                for k in ref), default=0.0)


def _usage() -> tuple:
    """(user + sys CPU of this process and its reaped children, sys CPU of
    this process, minor page faults of this process), microsecond clocks."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            own.ru_stime, own.ru_minflt)


def one_pass(wl, seed, size, workdir, *, extra_setup_s=0.0, observe=None,
             wrapped=False) -> dict:
    """Time extra set-ups for ``extra_setup_s``, then set up, run and
    finish one pass.

    With ``wrapped`` the pass proper (last set-up, run, finish) executes
    under the benchmark's wrappers and the result carries the layer
    figures of its spans merged over those its result fields publish.
    """
    from e2e_trace import Recorder, installed, summarize

    setup_s = []
    while sum(setup_s) < extra_setup_s and len(setup_s) < MAX_EXTRA_SETUPS:
        t = time.perf_counter()
        wl.setup(seed, size, workdir)
        setup_s.append(time.perf_counter() - t)
    gc.collect()  # the extra set-ups' drivers: same heap for every pass
    recorder = Recorder() if wrapped else None
    with installed(recorder) if wrapped else nullcontext():
        (cpu0, sys0, flt0), t0 = _usage(), time.perf_counter()
        ctx = wl.setup(seed, size, workdir, observe)
        t1 = time.perf_counter()
        wl.run(ctx)
        t2, (cpu1, sys1, flt1) = time.perf_counter(), _usage()
        result = wl.finish(ctx)
        t3 = time.perf_counter()
    setup_s.append(t1 - t0)
    out = {
        "setup_s": setup_s, "run_wall_s": t2 - t1, "pass_wall_s": t3 - t0,
        "cpu_s": cpu1 - cpu0, "sys_frac": (sys1 - sys0) / (t2 - t0),
        "minor_faults": flt1 - flt0, "result": result,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if wrapped:
        totals, out["per_track"] = summarize(recorder)
        out["layer"] = {**result.layer, **totals}
        out["missing"] = recorder.missing
    # the drivers and their hooks form reference cycles, so a finished
    # pass's arrays live until the cycle collector happens to run; the next
    # pass then allocates beside them, the heap grows into guest memory
    # never touched before, and each such page fault costs 2-30 ms of sys
    # CPU here (README, "Run protocol").  Collect now, outside every timed
    # region.
    del ctx
    gc.collect()
    return out


def _correctness(passes: list, pass0: dict, reference: dict | None) -> dict:
    """Fold steps/jobs, invariant checks and the statistics comparison of
    every measured pass into attempted/failed/result_err."""
    attempted = failed = 0
    result_err = 0.0
    failed_checks = set()
    for p in passes:
        r = p["result"]
        checks = dict(r.checks)
        err = stats_error(r.stats, pass0["result"].stats)
        checks["repeats_pass0"] = err == 0.0
        if reference is not None:
            ref_err = stats_error(r.stats, reference)
            checks["matches_reference"] = ref_err == 0.0
            err = max(err, ref_err)
        result_err = max(result_err, err)
        attempted += r.attempted + len(checks)
        failed += r.failed + sum(not ok for ok in checks.values())
        failed_checks.update(k for k, ok in checks.items() if not ok)
    return {"attempted": attempted, "failed": failed,
            "result_err": result_err, "failed_checks": sorted(failed_checks)}


def _program() -> dict:
    """What ran: library versions and the backend the hot loops resolved to
    (``REPRO_BACKEND`` included) — the provenance only this process knows."""
    import numpy
    import scipy
    from repro.backend import numba_available, resolve_backend

    numba_version = None
    if numba_available():
        import numba
        numba_version = numba.__version__
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": numba_version, "jit_available": numba_available(),
            "resolved_backend": resolve_backend(),
            "cpu_affinity": sorted(os.sched_getaffinity(0))}


def _median(values) -> float:
    return float(statistics.median(values))


def _overhead(traced: list, plain: list) -> float:
    return _median([t["run_wall_s"] / p["run_wall_s"] - 1.0
                    for t, p in zip(traced, plain)])


def run_workload(name: str, seed: int, scale: str, seconds: float,
                 trace: bool, workdir: Path) -> dict:
    """Execute the protocol for one workload; returns the run record."""
    from e2e_workloads import WORKLOADS
    from repro.core.gravity.pm import clear_green_cache
    from repro.observe import Observatory

    wl = WORKLOADS[name]
    size = wl.sizes[scale]
    workdir.mkdir(parents=True, exist_ok=True)

    t = time.perf_counter()
    pass0 = one_pass(wl, seed, size, workdir, wrapped=trace)
    warmup_s = time.perf_counter() - t
    clear_green_cache()
    gc.collect()

    plain, wrapped, observed = [], [], []
    t_start = time.perf_counter()
    while (len(plain) < MIN_PASSES[scale]
           or time.perf_counter() - t_start < seconds):
        plain.append(one_pass(wl, seed, size, workdir,
                              extra_setup_s=EXTRA_SETUP_S[scale]))
        if trace:
            wrapped.append(one_pass(wl, seed, size, workdir, wrapped=True))
            if wl.observe_pass:
                observed.append(one_pass(wl, seed, size, workdir,
                                         observe=Observatory(tracing=True)))

    reference = None
    if scale == "full":
        ref_all = json.loads((HERE / "reference.json").read_text())
        reference = ref_all.get(name, {}).get(str(seed))
    record = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "size": size, "program": _program(),
        "stats": plain[0]["result"].stats,
        **_correctness(plain + wrapped + observed, pass0, reference),
    }
    faults = _median([p["minor_faults"] for p in plain])
    record["noisy"] = faults > NOISY_MINOR_FAULTS
    bench = {"bench.cpu_sys_frac": _median([p["sys_frac"] for p in plain]),
             "bench.minor_faults_per_pass": faults,
             "bench.warmup_s": warmup_s, "bench.timed_passes": len(plain)}
    if trace:
        _per_layer(record, wl, pass0, plain, wrapped, observed, bench)
    else:
        _end_to_end(record, plain, bench)
    return record


def _end_to_end(record: dict, plain: list, bench: dict) -> None:
    """The eight end-to-end metrics: medians over the timed passes."""
    steps = [s for p in plain for s in p["result"].step_s]
    setups = [s for p in plain for s in p["setup_s"]]
    record["metrics"] = {
        "setup_s": _median(setups),
        "run_wall_s": _median([p["run_wall_s"] for p in plain]),
        "step_s_p50": _median(steps),
        "particle_updates_per_s": _median(
            [p["result"].particle_steps / p["run_wall_s"] for p in plain]),
        "cpu_s": _median([p["cpu_s"] for p in plain]),
        "peak_rss_mb": plain[-1]["peak_rss_mb"],
        "failed_frac": record["failed"] / record["attempted"],
        "result_err": record["result_err"],
    }
    record["samples"] = {"timed_passes": len(plain), "step_s": len(steps),
                         "setup_s": len(setups),
                         "run_wall_s": [p["run_wall_s"] for p in plain]}
    record["bench"] = bench


def _per_layer(record: dict, wl, pass0: dict, plain: list, wrapped: list,
               observed: list, bench: dict) -> None:
    """Per-layer metrics (medians over the wrapped passes), the overhead
    gauges, the layer budget and the exact-repeat check."""
    from e2e_trace import budget

    layer = {k: _median([p["layer"].get(k, 0) for p in wrapped])
             for k in sorted(set().union(*(p["layer"] for p in wrapped)))}
    layer.update(bench)
    # each traced pass against the untraced pass of its own cycle, so the
    # host's drift between cycles cancels
    layer["bench.trace_overhead_frac"] = _overhead(wrapped, plain)
    layer["observe.tracing_overhead_frac"] = (
        _overhead(observed, plain) if observed else 0.0)

    first = wrapped[0]
    b = budget(first["per_track"], first["pass_wall_s"],
               first["run_wall_s"] if wl.rank_threads else None)
    if wl.rank_threads:
        layer["parallel.distributed_sim.driver_self_s"] = b["driver_self_s"]
    else:
        layer["core.simulation.unattributed_frac"] = (
            b["unattributed_s"] / b["traced_wall_s"])

    # exact metrics must repeat bit for bit between pass 0 and every
    # wrapped pass of this run; one that does not is a failed check
    exact = [m["name"] for m in METRICS["per_layer"] if m["exact"]]
    varying = sorted(k for k in exact if len(
        {p["layer"].get(k, 0) for p in [pass0] + wrapped}) > 1)
    record["attempted"] += 1
    if varying:
        record["failed"] += 1
        record["failed_checks"].append("exact_counts_repeat")
    record.update(metrics=layer, budget=b, varying=varying,
                  missing_targets=first["missing"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for the whole run (README, "Run protocol"): two GIL-bound
    # threads on two vCPUs burn 1.8x the CPU of the same threads on one,
    # and their wall follows whichever vCPU the host has descheduled
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        record = run_workload(args.workload, args.seed, args.scale,
                              args.seconds, bool(args.trace), args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
