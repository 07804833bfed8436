"""X7: active-set subcycling (Section IV-A force-split kick scheduling).

Sweeps imposed rung distributions — a *uniform* scatter of deep-rung
particles and a spatially *clustered* blob (the realistic case: deep
rungs live in collapsed structures) — and compares full-evaluation vs
active-set subcycling on wall time, streamed pair counts, and long-range
FFT evaluations.  Rungs are imposed by stubbing the timestep criterion so
both modes integrate the identical schedule and the comparison is purely
the evaluation strategy.

Full-mode acceptance: on the clustered configuration with active fraction
<= 25%, the active-set path is >= 2x faster per PM step.
"""

import time

import numpy as np

from repro.core.particles import Particles, Species
from repro.core.simulation import Simulation, SimulationConfig

from conftest import FULL, print_table, scaled

DEEP_RUNG = 4
DEEP_FRACTION = 0.12


def _lattice_gas(n_per_dim, box, u0=20.0, jitter=0.3, seed=6):
    rng = np.random.default_rng(seed)
    spacing = box / n_per_dim
    coords = (np.arange(n_per_dim) + 0.5) * spacing
    gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
    pos = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    pos = np.mod(pos + rng.uniform(-jitter, jitter, pos.shape) * spacing, box)
    n = len(pos)
    return Particles(
        pos=pos,
        vel=rng.normal(scale=5.0, size=(n, 3)),
        mass=np.full(n, 1.0e9),
        species=np.full(n, int(Species.GAS), dtype=np.int8),
        u=np.full(n, u0),
    )


def _deep_set(pos, box, mode, seed=8):
    """Indices forced onto the deep rung: random scatter or spatial blob."""
    n = len(pos)
    k = max(int(round(DEEP_FRACTION * n)), 1)
    if mode == "uniform":
        rng = np.random.default_rng(seed)
        return np.sort(rng.choice(n, size=k, replace=False))
    # clustered: the k particles nearest a reference point (periodic metric)
    center = np.array([0.3, 0.6, 0.4]) * box
    d = pos - center
    d -= box * np.round(d / box)
    r2 = np.einsum("na,na->n", d, d)
    return np.sort(np.argsort(r2)[:k])


def _run_once(n_per_dim, box, deep_idx, active_set, n_pm_steps):
    parts = _lattice_gas(n_per_dim, box)
    cfg = SimulationConfig(
        box=box, pm_grid=12, a_init=0.3, a_final=0.4, n_pm_steps=n_pm_steps,
        max_rung=DEEP_RUNG, rung_margin=0, active_set=active_set,
    )
    sim = Simulation(cfg, parts)
    imposed = np.zeros(len(parts), dtype=np.int16)
    imposed[deep_idx] = DEEP_RUNG
    # identical schedule in both modes, no mid-step promotion churn
    sim._assign_rungs = lambda dp_da, vsig, da: imposed.copy()
    t0 = time.perf_counter()
    records = sim.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "n_fft": sim.pm.n_evaluations,
        "n_pairs": sum(r.subcycle.n_pairs for r in records),
        "active_fraction": float(np.mean(
            [r.subcycle.mean_active_fraction for r in records]
        )),
        "pos": sim.particles.pos,
        "u": sim.particles.u,
    }


def test_x7_active_set_sweep(benchmark):
    n_per_dim = scaled(10, 5)
    n_pm_steps = scaled(2, 1)
    box = 20.0
    out = {}

    def run():
        parts_probe = _lattice_gas(n_per_dim, box)
        for mode in ("uniform", "clustered"):
            deep = _deep_set(parts_probe.pos, box, mode)
            full_eval = _run_once(n_per_dim, box, deep, False, n_pm_steps)
            active = _run_once(n_per_dim, box, deep, True, n_pm_steps)
            # both strategies integrate the same trajectories
            np.testing.assert_allclose(active["pos"], full_eval["pos"],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(active["u"], full_eval["u"],
                                       rtol=1e-12, atol=1e-12)
            out[mode] = {
                "n": len(parts_probe),
                "full_wall_s": full_eval["wall_s"],
                "active_wall_s": active["wall_s"],
                "speedup": full_eval["wall_s"] / active["wall_s"],
                "full_pairs": full_eval["n_pairs"],
                "active_pairs": active["n_pairs"],
                "pair_reduction": full_eval["n_pairs"]
                / max(active["n_pairs"], 1),
                "full_fft": full_eval["n_fft"],
                "active_fft": active["n_fft"],
                "active_fraction": active["active_fraction"],
            }
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"X7: active-set subcycling ({out['uniform']['n']} gas particles, "
        f"{DEEP_FRACTION:.0%} on rung {DEEP_RUNG})",
        ["Rung layout", "Full (s)", "Active (s)", "Speedup", "Pair red.",
         "FFTs full/active", "Active frac"],
        [
            (mode, f"{r['full_wall_s']:.2f}", f"{r['active_wall_s']:.2f}",
             f"{r['speedup']:.1f}x", f"{r['pair_reduction']:.1f}x",
             f"{r['full_fft']}/{r['active_fft']}",
             f"{r['active_fraction']:.2f}")
            for mode, r in out.items()
        ],
    )
    benchmark.extra_info.update(out)

    for r in out.values():
        # the kick split holds long-range FFTs at n_steps + 1 in BOTH modes
        assert r["full_fft"] == r["active_fft"] == n_pm_steps + 1
        assert r["active_pairs"] < r["full_pairs"]
        assert r["active_fraction"] <= 0.25

    if FULL:
        # acceptance: >= 2x subcycle speedup on the clustered layout
        assert out["clustered"]["speedup"] >= 2.0
