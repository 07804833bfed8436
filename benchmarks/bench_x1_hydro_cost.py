"""X1 (Section VI-B text): hydrodynamics costs ~16x over gravity-only.

Regenerates the comparison two ways: (a) the calibrated campaign model
(196 h vs ~12 h at Frontier-E scale) and (b) a real measured mini-run of
the same configuration with hydro on and off — the measured ratio will be
smaller (no subgrid subcycling pressure at toy resolution) but must show
hydro costing several times gravity-only, in the same direction.
"""

import time
import tracemalloc

import numpy as np

from repro.cosmology import PLANCK18, zeldovich_ics
from repro.core.particles import Particles, make_gas_dm_pair
from repro.core.simulation import Simulation, SimulationConfig
from repro.perfmodel import hydro_vs_gravity_cost_ratio

from conftest import FULL, print_table, scaled


def test_x1_model_ratio(benchmark):
    r = benchmark.pedantic(hydro_vs_gravity_cost_ratio, rounds=1, iterations=1)
    print_table(
        "X1: hydro vs gravity-only (campaign model)",
        ["Run", "Wall clock (h)"],
        [
            ("hydro (Frontier-E)", f"{r['hydro_hours']:.1f}"),
            ("gravity-only", f"{r['gravity_only_hours']:.1f}"),
            ("ratio", f"{r['ratio']:.1f}x (paper ~16x)"),
        ],
    )
    benchmark.extra_info.update(r)
    assert 14.0 < r["ratio"] < 18.0
    assert r["gravity_only_hours"] < 13.5  # "just under 12 hours"


def test_x1_measured_minisim_ratio(benchmark):
    import time

    def run():
        box = 20.0
        ics = zeldovich_ics(scaled(7, 5), box, PLANCK18, a_init=0.25, seed=4)

        def make(hydro):
            if hydro:
                parts = make_gas_dm_pair(
                    ics.positions, ics.velocities, ics.particle_mass,
                    PLANCK18.omega_b, PLANCK18.omega_m, u_init=20.0, box=box,
                )
            else:
                n = len(ics.positions)
                parts = Particles(
                    pos=ics.positions.copy(), vel=ics.velocities.copy(),
                    mass=np.full(n, ics.particle_mass),
                    species=np.zeros(n, dtype=np.int8),
                )
            cfg = SimulationConfig(
                box=box, pm_grid=14, a_init=0.25, a_final=0.4, n_pm_steps=2,
                cosmo=PLANCK18, hydro=hydro, max_rung=2,
            )
            return Simulation(cfg, parts)

        out = {}
        for mode in (True, False):
            sim = make(mode)
            t0 = time.perf_counter()
            sim.run()
            out["hydro" if mode else "gravity"] = time.perf_counter() - t0
        return out

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = times["hydro"] / times["gravity"]
    print_table(
        "X1: measured mini-sim cost",
        ["Run", "Seconds", "Ratio"],
        [
            ("hydro (2 species)", f"{times['hydro']:.1f}", ""),
            ("gravity-only (1 species)", f"{times['gravity']:.1f}",
             f"{ratio:.1f}x"),
        ],
    )
    benchmark.extra_info["measured_ratio"] = ratio
    # direction + magnitude: hydro costs several times gravity-only even at
    # toy scale (the paper's 16x includes deep feedback subcycling).  At
    # smoke size the timing ratio is noise-dominated; only check direction.
    if FULL:
        assert ratio > 2.0
    else:
        assert ratio > 1.0


def test_x1_hydro_force_evaluation_speedup(benchmark):
    """Per-subcycle hydro force cost: pair engine vs the pre-engine path.

    The pre-engine strategy (what the seed's ``_hydro_derivs`` did every
    subcycle) runs each CRKSPH stage standalone: every stage gets a fresh
    ``PairBatch``, so displacements and base kernels are re-derived per
    stage, and every reduction is a buffered ``np.add.at`` scatter (the
    batch's plan is swapped for one that scatters, and the CRK moments'
    fused reduction is patched to use it).  The engine threads one
    ``PairBatch`` per tile through all stages.

    Both legs consume the same pair list, built once outside the timed
    region: list acquisition (fresh build vs cached query) is
    ``bench_x6``'s first leg, and a ratio that also times a fresh build
    moves with the list builder rather than with the stages this test is
    named for.  Acceptance: >= 1.2x, from 1.4-1.7x recorded over six FULL
    runs (2.4-2.5x over three once the CRK moments, which both legs call,
    reduce in one pass: 62 -> 39 ms staged, 36 -> 16 ms engine; 2.5-2.6x
    once the engine streams 8192-row tiles, parent 2.5-3.0x).  The engine
    leg's traced peak per directed pair row is recorded beside the times:
    260 B at FULL size (23.6k rows, so one tile and one force chunk are a
    third of the list), 525 B when every stage held the whole list.
    """
    import repro.core.sph.crk as crk_mod
    from repro.core.sph import (
        compute_corrections,
        compute_density,
        compute_number_density,
        corrected_kernel_pairs,
        crksph_derivatives,
        get_kernel,
        make_pair_batch,
    )
    from repro.core.sph.eos import IdealGasEOS
    from repro.core.sph.hydro import update_smoothing_lengths
    from repro.core.sph.viscosity import (
        MonaghanViscosity,
        balsara_switch,
        velocity_divergence_curl,
    )
    from repro.tree import PairRows, neighbor_pairs

    rng = np.random.default_rng(0)
    n, box = scaled(1000, 400), 10.0
    pos = rng.uniform(0, box, size=(n, 3))
    vel = rng.normal(scale=3.0, size=(n, 3))
    mass = np.full(n, 1.0)
    u = np.full(n, 25.0)
    kernel = get_kernel("wendland_c4")
    h = np.full(n, 1.5 * box / n ** (1 / 3))
    for _ in range(3):
        rows = PairRows.measured(pos, *neighbor_pairs(pos, h, box=box), box)
        _, vol = compute_number_density(make_pair_batch(rows, h, kernel))
        h = update_smoothing_lengths(vol, n_target=40, h_old=h)
    pi, pj = neighbor_pairs(pos, h, box=box)

    def best_of(fn, repeats=5):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    class AddAtPlan:
        """A reduction plan whose sums are buffered ``np.add.at`` scatters."""

        def __init__(self, ids, n_out):
            self.ids, self.num_segments = ids, n_out

        def sum(self, values):
            v = np.asarray(values)
            out = np.zeros((self.num_segments,) + v.shape[1:], dtype=v.dtype)
            np.add.at(out, self.ids, v)
            return out

    def stage_batch():
        """One stage's own batch: geometry and base kernel derived anew."""
        b = make_pair_batch(PairRows.measured(pos, pi, pj, box), h, kernel)
        b.seg = AddAtPlan(b.pi, n)
        return b

    eos = IdealGasEOS()
    viscosity = MonaghanViscosity()

    def naive_subcycle():
        """The seed's per-subcycle hydro evaluation, stage by stage."""
        _, vol = compute_number_density(stage_batch())
        corr = compute_corrections(vol, stage_batch())
        rho = compute_density(stage_batch(), mass, corr)
        pressure = eos.pressure(rho, u)
        cs = eos.sound_speed(rho, u)
        # G_ij = grad_i W^R_ij - grad_j W^R_ji, both orientations on every
        # directed row
        b = stage_batch()
        dx, hj = b.dx, h[pj]
        _, g_ij = corrected_kernel_pairs(corr, pi, dx, b.w_i, b.gw_i)
        _, g_ji = corrected_kernel_pairs(
            corr, pj, -dx, kernel.w(b.r, hj),
            -kernel.dw_dr(b.r, hj)[:, None] * b.unit)
        g_pair = g_ij - g_ji
        dv = vel[pi] - vel[pj]
        h_ij = 0.5 * (h[pi] + h[pj])
        c_ij = 0.5 * (cs[pi] + cs[pj])
        rho_ij = 0.5 * (rho[pi] + rho[pj])
        div_v, curl_v = velocity_divergence_curl(vel, vol, stage_batch())
        f = balsara_switch(div_v, curl_v, cs, h)
        pi_visc = viscosity.pi_pair(viscosity.mu_pair(dx, dv, h_ij), c_ij,
                                    rho_ij, limiter=0.5 * (f[pi] + f[pj]))
        q_ij = 0.25 * rho[pi] * rho[pj] * pi_visc
        pbar = 0.5 * (pressure[pi] + pressure[pj]) + q_ij
        vv = vol[pi] * vol[pj]
        pair_force = (vv * pbar)[:, None] * g_pair
        accel = np.zeros((n, 3))
        np.add.at(accel, pi, -pair_force / mass[pi, None])
        du_dt = np.zeros(n)
        np.add.at(du_dt, pi, 0.5 * vv * pbar
                  * np.einsum("pa,pa->p", dv, g_pair) / mass[pi])
        vsig = np.zeros(n)
        mu = viscosity.mu_pair(dx, dv, h_ij)
        np.maximum.at(vsig, pi, c_ij - 2.0 * np.minimum(mu, 0.0))
        return accel, du_dt, vsig

    def naive_with_add_at_scatters():
        """Run the staged flow with the moments reducing through the
        scattering plan too."""
        fused = crk_mod.segment_sum_csr
        try:
            crk_mod.segment_sum_csr = lambda plan, values: plan.sum(values)
            return naive_subcycle()
        finally:
            crk_mod.segment_sum_csr = fused

    def engine_subcycle():
        crksph_derivatives(pos, vel, mass, u, h, pi, pj, kernel, box=box)

    def engine_bytes_per_row():
        """Traced peak of one engine evaluation above what is live at
        entry, per directed pair row."""
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            engine_subcycle()
            return (tracemalloc.get_traced_memory()[1] - entry) / len(pi)
        finally:
            tracemalloc.stop()

    def run():
        return {"naive_s": best_of(naive_with_add_at_scatters),
                "engine_s": best_of(engine_subcycle),
                "engine_peak_bytes_per_row": engine_bytes_per_row()}

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = r["naive_s"] / r["engine_s"]
    print_table(
        "X1: per-subcycle hydro force evaluation",
        ["Strategy", "Seconds"],
        [
            ("staged stages + add.at scatters (pre-engine)",
             f"{r['naive_s']:.4f}"),
            ("shared batch + segment reductions (engine)",
             f"{r['engine_s']:.4f}"),
            ("speedup", f"{speedup:.1f}x"),
            ("engine traced peak per pair row",
             f"{r['engine_peak_bytes_per_row']:.0f} B"),
        ],
    )
    benchmark.extra_info.update(r)
    benchmark.extra_info["speedup"] = speedup
    if FULL:
        assert speedup >= 1.2
