"""X2 (Section IV-B2): warp splitting vs naive leaf-pair kernels.

The ablation behind the paper's key kernel optimization: identical
numerical results with lower register pressure, far less global memory
traffic (replaced by register shuffles), and leaf-level (not per-pair)
atomics — measured on the lane-accurate executor for the four CRK-HACC
kernels (the ``core`` pair functions, FLOPs counted on them) plus the
Lennard-Jones and Coulomb pair energies the paper cites as the method's
generality claim, on both warp widths (32 and 64).
"""

import numpy as np

from repro.gpusim import (
    H100_SXM5,
    MI250X_GCD,
    coulomb_kernel,
    crk_coefficient_kernel,
    execute_leaf_pair_naive,
    execute_leaf_pair_warpsplit,
    hydro_force_kernel,
    lennard_jones_kernel,
    short_range_gravity_kernel,
    sph_density_kernel,
)

from conftest import print_table


def _setup(n, seed=0):
    """Two overlapping leaves of ``n`` particles, with every field the
    kernels read (the hydro force reads the CRK corrections too)."""
    rng = np.random.default_rng(seed)
    pos_i = rng.uniform(0, 1, (n, 3))
    pos_j = rng.uniform(0, 1, (n, 3)) + 0.25
    state = {
        "h": np.full(n, 0.5),
        "m": rng.uniform(1, 2, n),
        "vol": rng.uniform(0.9, 1.1, n) * 1e-3,
        "rho": rng.uniform(0.8, 1.2, n),
        "pressure": rng.uniform(0.5, 2.0, n),
        "cs": rng.uniform(1.0, 2.0, n),
        "balsara": rng.uniform(0, 1, n),
        "vel": rng.normal(0, 1, (n, 3)),
        "a": rng.uniform(0.9, 1.1, n),
        "b": rng.normal(0, 0.1, (n, 3)),
        "grad_a": rng.normal(0, 0.1, (n, 3)),
        "grad_b": rng.normal(0, 0.1, (n, 3, 3)),
        "type": np.ones(n),
        "q": rng.choice([-1.0, 1.0], n),
    }
    return pos_i, pos_j, state


KERNELS = {
    "sph_density": sph_density_kernel(),
    "short_range_gravity": short_range_gravity_kernel(1.0, 0.01),
    "crk_coefficients": crk_coefficient_kernel(),
    "hydro_force": hydro_force_kernel(),
    # §IV-B2: "generalizes to ... Lennard-Jones or Coulomb potentials"
    "lennard_jones": lennard_jones_kernel(epsilon=1.0, sigma=1.0, r_cut=2.0),
    "coulomb": coulomb_kernel(k_e=1.0, softening=0.01),
}


def test_x2_warp_splitting_ablation(benchmark):
    n = 128
    pos_i, pos_j, state = _setup(n)
    results = {}

    def run():
        for name, kern in KERNELS.items():
            for device in (MI250X_GCD, H100_SXM5):
                si = {k: state[k] for k in kern.fields_i}
                sj = {k: state[k] for k in kern.fields_j}
                phi_s, _, cs = execute_leaf_pair_warpsplit(
                    kern, pos_i, si, pos_j, sj, device
                )
                phi_n, _, cn = execute_leaf_pair_naive(
                    kern, pos_i, si, pos_j, sj, device
                )
                results[(name, device.vendor)] = (phi_s, phi_n, cs, cn, kern)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for (name, vendor), (phi_s, phi_n, cs, cn, kern) in results.items():
        np.testing.assert_allclose(phi_s, phi_n, rtol=1e-9)  # identical physics
        rel = np.abs(phi_s - phi_n).max() / max(np.abs(phi_n).max(), 1e-300)
        rows.append(
            (
                name,
                vendor,
                kern.stages.h.flops + kern.stages.combine.flops,
                f"{rel:.1e}",
                f"{cn.global_load_bytes / cs.global_load_bytes:.1f}x",
                f"{kern.register_estimate(False)} -> {kern.register_estimate(True)}",
                cs.shuffles,
                f"{cs.atomics} vs {cn.atomics}",
            )
        )
    print_table(
        "X2: warp splitting vs naive (traffic reduction, registers, shuffles)",
        ["Kernel", "Warp", "FLOP/pair", "Split vs naive", "Mem traffic saved",
         "Registers naive->split", "Shuffles", "Atomics (split vs naive)"],
        rows,
    )

    for (name, vendor), (phi_s, phi_n, cs, cn, kern) in results.items():
        # (1) register usage reduced
        assert kern.register_estimate(True) < kern.register_estimate(False)
        # (2) global memory traffic much lower
        assert cs.global_load_bytes < 0.25 * cn.global_load_bytes
        # (3) shuffles do the communication instead
        assert cs.shuffles > 0 and cn.shuffles == 0
        # (4) atomics localized to per-leaf/tile reductions, never per
        # pair (one atomic per component of phi)
        n_pairs = len(phi_s) * len(phi_s)
        assert cs.atomics < 0.1 * n_pairs * phi_s[0].size
        # (5) identical FLOP-weighted physics
        assert abs(cs.fp32_transcendental - cn.fp32_transcendental) <= max(
            cs.fp32_transcendental, cn.fp32_transcendental
        )
    benchmark.extra_info["n_configs"] = len(results)


def _activity_layouts(n, frac, seed=1):
    """Clustered-rung vs scattered activity masks at the same fraction.

    Clustered = one contiguous block (deep-rung particles sharing a halo
    core, the common adaptive-timestep layout); scattered = the same count
    spread uniformly (worst case for predication-only divergence claims)."""
    rng = np.random.default_rng(seed)
    k = max(1, int(round(frac * n)))
    clustered = np.zeros(n, dtype=bool)
    start = rng.integers(0, n - k + 1)
    clustered[start:start + k] = True
    scattered = np.zeros(n, dtype=bool)
    scattered[rng.choice(n, size=k, replace=False)] = True
    return {"clustered": clustered, "scattered": scattered}


def test_x2_active_compaction_divergence(benchmark):
    """Clustered-rung divergence ablation: predication vs compaction.

    Mixed-rung substeps activate only a fraction of each leaf.  Predication
    issues every tile with inactive lanes masked (divergence waste);
    compaction gathers the active rows into dense tiles.  The ablation
    sweeps activity fraction x layout, asserting compaction recovers lane
    efficiency and cuts issued tiles regardless of how the active rungs are
    laid out in the leaf."""
    from repro.gpusim import OpCounters, active_compaction_stats

    n = 128
    pos_i, pos_j, state = _setup(n)
    kern = KERNELS["hydro_force"]
    si = {k: state[k] for k in kern.fields_i}
    sj = {k: state[k] for k in kern.fields_j}
    device = MI250X_GCD
    results = {}

    def run():
        for frac in (0.125, 0.25, 0.5):
            for layout, active in _activity_layouts(n, frac).items():
                c_pred, c_comp = OpCounters(), OpCounters()
                phi_p, _, _ = execute_leaf_pair_warpsplit(
                    kern, pos_i, si, pos_j, sj, device, c_pred,
                    active_i=active,
                )
                phi_c, _, _ = execute_leaf_pair_warpsplit(
                    kern, pos_i, si, pos_j, sj, device, c_comp,
                    active_i=active, compact=True,
                )
                model = active_compaction_stats(
                    [n], [int(active.sum())], device.warp_size
                )
                results[(frac, layout)] = (phi_p, phi_c, c_pred, c_comp,
                                           model, active)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for (frac, layout), (phi_p, phi_c, cp, cc, model, active) in (
            results.items()):
        rows.append((
            f"{frac:.3f}", layout,
            f"{cp.lane_efficiency:.2f} -> {cc.lane_efficiency:.2f}",
            f"{cp.issued_lane_ops / cc.issued_lane_ops:.2f}x",
            f"{model['issue_reduction']:.2f}x",
        ))
    print_table(
        "X2b: mixed-rung divergence — predication vs compaction (MI250X)",
        ["Active frac", "Layout", "Lane eff pred -> comp",
         "Issue reduction", "Model issue reduction"],
        rows,
    )

    half = device.warp_size // 2
    for (frac, layout), (phi_p, phi_c, cp, cc, model, active) in (
            results.items()):
        # same physics on the active rows, zeros elsewhere
        np.testing.assert_allclose(phi_c, phi_p, rtol=1e-12, atol=1e-13)
        assert np.all(phi_p[~active] == 0.0)
        # same useful lanes; compaction never issues more
        assert cc.active_lane_ops == cp.active_lane_ops
        assert cc.issued_lane_ops <= cp.issued_lane_ops
        assert cc.lane_efficiency >= cp.lane_efficiency
        # at sparse activity compaction must cut issue substantially,
        # for clustered AND scattered layouts alike
        if frac <= 0.25:
            assert cc.issued_lane_ops < 0.6 * cp.issued_lane_ops
            assert cc.lane_efficiency > 1.5 * cp.lane_efficiency
        # executor agrees with the analytic tile model
        n_tiles_j = -(-len(pos_j) // half)
        assert cp.issued_lane_ops == (
            model["issued_tiles_predicated"] * n_tiles_j * half * half
        )
        assert cc.issued_lane_ops == (
            model["issued_tiles_compacted"] * n_tiles_j * half * half
        )
    # scattered activity hurts predication as much as clustered (lane
    # masking is per-lane), so compaction's win is layout-independent
    for frac in (0.125, 0.25, 0.5):
        cp_c = results[(frac, "clustered")][2]
        cp_s = results[(frac, "scattered")][2]
        assert cp_c.issued_lane_ops == cp_s.issued_lane_ops
    benchmark.extra_info["n_configs"] = len(results)
