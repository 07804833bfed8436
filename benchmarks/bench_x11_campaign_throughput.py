"""X11: many-universe campaign throughput (universes/hour).

Two measurements on the pooled campaign execution engine:

1. **Saturation curve** — universes/hour vs offered load at a fixed
   worker-pool size.  Throughput rises with offered jobs until the pool
   saturates, then flattens; an overload point with a bounded queue and
   the ``reject`` policy shows admission control shedding the excess
   instead of queueing unboundedly.

2. **Cache-hit ablation** — the same repeated-cosmology sweep run cold
   (empty artifact cache) and warm (cache retained from the cold pass).
   The warm pass hits every artifact (linear power quadratures, IC
   realizations, PM Green's tables).  The final particle states must be
   bit-identical between the passes — the cache is a pure perf layer.

Full-mode acceptance: warm throughput >= 1.5x cold on the repeated
sweep.
"""

import time

from repro.campaign import ArtifactCache, CampaignEngine, SimJob, expand_sweep
from repro.core.gravity.pm import clear_green_cache
from repro.observe import Observatory

from conftest import FULL, print_table, scaled

N_WORKERS = scaled(4, 2)
N_PER_DIM = scaled(6, 4)
OFFERED_LOADS = scaled((1, 2, 4, 8, 16), (1, 2, 4))
#: repeated-cosmology sweep: every (sigma8, seed) pair appears once, so a
#: warm cache hits every artifact while a cold one builds each exactly once
SWEEP_SIGMA8 = scaled([0.70, 0.72, 0.74, 0.76, 0.78, 0.80, 0.82, 0.84],
                      [0.76, 0.81])
SWEEP_SEEDS = scaled([1], [1, 2])


def _job(i: int, seed: int = 1) -> SimJob:
    return SimJob(name=f"load-{i}", tenant=f"tenant{i % 3}", seed=seed,
                  n_per_dim=N_PER_DIM, pm_grid=8)


def _throughput_at(offered: int) -> dict:
    clear_green_cache()
    engine = CampaignEngine(n_workers=N_WORKERS, max_queue=2 * offered + 1)
    report = engine.run([_job(i, seed=i + 1) for i in range(offered)])
    assert report.n_failed == 0
    return {
        "offered": offered,
        "completed": report.n_completed,
        "universes_per_hour": report.universes_per_hour,
        "wall_s": report.wall_seconds,
    }


def _overload_shedding(offered: int) -> dict:
    """Bounded queue + reject policy under the highest offered load."""
    clear_green_cache()
    engine = CampaignEngine(n_workers=N_WORKERS, max_queue=2,
                            policy="reject")
    report = engine.run([_job(i, seed=i + 1) for i in range(offered)])
    return {
        "offered": offered,
        "admitted": report.n_submitted - report.n_rejected,
        "rejected": report.n_rejected,
        "completed": report.n_completed,
    }


def _sweep_jobs() -> list:
    return expand_sweep(
        {"n_per_dim": N_PER_DIM, "pm_grid": 8, "tenant": "sweep"},
        {"sigma8": SWEEP_SIGMA8, "seed": SWEEP_SEEDS},
    )


def _ablation_pass(cache: ArtifactCache) -> dict:
    engine = CampaignEngine(n_workers=N_WORKERS, cache=cache,
                            observe=Observatory(),
                            max_queue=len(SWEEP_SIGMA8) * len(SWEEP_SEEDS))
    report = engine.run(_sweep_jobs())
    assert report.n_failed == 0
    return {
        "universes_per_hour": report.universes_per_hour,
        "wall_s": report.wall_seconds,
        "hashes": {r.job.name: r.state_hash for r in report.results},
        "cache": report.cache_stats,
    }


def test_x11_campaign_throughput(benchmark):
    out = {}

    def run():
        out["curve"] = [_throughput_at(n) for n in OFFERED_LOADS]
        out["overload"] = _overload_shedding(max(OFFERED_LOADS) * 2)

        clear_green_cache()
        cache = ArtifactCache()
        t0 = time.perf_counter()
        out["cold"] = _ablation_pass(cache)
        out["cold"]["pass_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        out["warm"] = _ablation_pass(cache)  # same cache, now hot
        out["warm"]["pass_s"] = time.perf_counter() - t0
        out["warm_speedup"] = (out["warm"]["universes_per_hour"]
                               / out["cold"]["universes_per_hour"])
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"X11: saturation curve ({N_WORKERS} workers, "
        f"{N_PER_DIM}^3 x2 particles/universe)",
        ["Offered", "Completed", "Universes/h", "Wall (s)"],
        [(p["offered"], p["completed"], f"{p['universes_per_hour']:.0f}",
          f"{p['wall_s']:.2f}") for p in out["curve"]],
    )
    ov = out["overload"]
    print(f"overload (queue=2, reject): offered {ov['offered']} -> "
          f"admitted {ov['admitted']}, shed {ov['rejected']}")
    n_sweep = len(SWEEP_SIGMA8) * len(SWEEP_SEEDS)
    print_table(
        f"X11: cache ablation ({n_sweep}-job repeated-cosmology sweep)",
        ["Pass", "Universes/h", "Wall (s)", "Hits", "Misses"],
        [(name, f"{out[name]['universes_per_hour']:.0f}",
          f"{out[name]['wall_s']:.2f}", out[name]["cache"]["hits"],
          out[name]["cache"]["misses"]) for name in ("cold", "warm")],
    )
    print(f"warm/cold throughput: {out['warm_speedup']:.2f}x")
    benchmark.extra_info.update({
        "curve": out["curve"], "warm_speedup": out["warm_speedup"],
        "cold_uph": out["cold"]["universes_per_hour"],
        "warm_uph": out["warm"]["universes_per_hour"],
    })

    # cached runs are bit-identical to cold runs — always asserted
    assert out["warm"]["hashes"] == out["cold"]["hashes"]
    # the cold pass built each artifact exactly once...
    n_cosmo = len(SWEEP_SIGMA8)
    assert out["cold"]["cache"]["misses"] == n_cosmo + n_sweep + 1
    # ... and the warm pass hit everything
    assert out["warm"]["cache"]["misses"] == out["cold"]["cache"]["misses"]
    assert out["warm"]["cache"]["hits"] >= \
        out["cold"]["cache"]["hits"] + 3 * n_sweep
    # admission control shed the overload instead of queueing it
    assert ov["rejected"] > 0
    assert ov["completed"] == ov["admitted"]

    if FULL:
        # acceptance: warm cache >= 1.5x throughput on the repeated sweep
        assert out["warm_speedup"] >= 1.5
        # the pool saturates: top-of-curve throughput beats single-job
        assert out["curve"][-1]["universes_per_hour"] >= \
            1.5 * out["curve"][0]["universes_per_hour"]
