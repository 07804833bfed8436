#!/usr/bin/env python
"""One GPU-resident PM step, kernel by kernel (paper Sections IV-A/IV-B).

Walks the exact device-side execution model of CRK-HACC on the simulated
GPU: build the chaining mesh + coarse-leaf tree on the host, upload the
overloaded rank once, run warp-split interaction kernels over the
interaction list for several subcycles (updating fields device-side,
growing leaf boxes, filtering to active leaves), and download only the
final results — then read the rocprof-style counters back out.

Run:  python examples/gpu_resident_step.py
"""

import numpy as np

from repro.gpusim import (
    FIELD_SHAPES,
    H100_SXM5,
    MI250X_GCD,
    GPUResidentSolver,
    OccupancyModel,
    execute_leaf_pair_naive,
    execute_leaf_pair_warpsplit,
    hydro_force_kernel,
    sph_density_kernel,
    warp_splitting_occupancy_gain,
)
from repro.tree import build_chaining_mesh, build_interaction_list, build_leaf_set


def main():
    rng = np.random.default_rng(4)
    n, box, h = 2000, 6.0, 0.35
    pos = rng.uniform(0, box, (n, 3))
    mass = rng.uniform(0.8, 1.2, n)

    # host side: tree build, once per PM step
    # coarse leaves of O(100) particles: the paper sizes leaves to fill
    # half-warps — tiny leaves would waste lanes to padding
    mesh = build_chaining_mesh(pos, 2.0, origin=0.0, extent=box, periodic=False)
    leaves = build_leaf_set(pos, mesh, max_leaf=128)
    ilist = build_interaction_list(leaves, mesh, pad=h, box=None)
    print(f"tree: {leaves.n_leaves} leaves, {len(ilist)} leaf-pair interactions")

    # device side: upload once, run subcycles without leaving the GPU
    device = MI250X_GCD
    solver = GPUResidentSolver(device)
    h2d = solver.upload(pos, {"m": mass, "h": np.full(n, h)})
    print(f"H->D upload: {h2d / 1e6:.2f} MB (once per PM step)")

    kern = sph_density_kernel()
    device_bytes = 0
    n_subcycles = 4
    for s in range(n_subcycles):
        # deeper subcycles touch fewer leaves (adaptive rungs)
        active = np.ones(leaves.n_leaves, dtype=bool)
        if s > 0:
            active[:] = False
            active[:: 2**s] = True
        res = solver.run_interaction_list(
            kern, leaves, ilist, active_leaves=active, download=False
        )
        device_bytes += res.counters.bytes_moved
        print(f"  subcycle {s}: {res.n_leaf_pairs:5d} active leaf pairs, "
              f"{res.counters.flops / 1e6:7.1f} MFLOP, "
              f"lane efficiency {res.counters.lane_efficiency * 100:5.1f}%")

    final = solver.run_interaction_list(kern, leaves, ilist)
    device_bytes += final.counters.bytes_moved
    frac = solver.transfer_fraction(device_bytes)
    print(f"D->H download: {final.d2h_bytes / 1e6:.2f} MB")
    print(f"host-transfer fraction of device traffic: {frac * 100:.1f}% "
          f"(GPU-resident design keeps this small)")

    # the warp-splitting story on one heavy kernel
    heavy = hydro_force_kernel()
    idx_i = leaves.particles_in_leaf(0)
    idx_j = leaves.particles_in_leaf(min(1, leaves.n_leaves - 1))
    state = {k: rng.uniform(0.5, 2.0, (n,) + FIELD_SHAPES.get(k, ()))
             for k in heavy.fields_i}
    si = {k: state[k][idx_i] for k in heavy.fields_i}
    sj = {k: state[k][idx_j] for k in heavy.fields_j}
    _, _, cs = execute_leaf_pair_warpsplit(
        heavy, pos[idx_i], si, pos[idx_j], sj, device
    )
    _, _, cn = execute_leaf_pair_naive(
        heavy, pos[idx_i], si, pos[idx_j], sj, device
    )
    gain = warp_splitting_occupancy_gain(heavy, device, OccupancyModel())
    print("\nwarp splitting on the CRKSPH hydro-force kernel:")
    print(f"  global traffic: {cn.global_load_bytes / max(cs.global_load_bytes, 1):.1f}x "
          f"less with splitting ({cs.shuffles} register shuffles instead)")
    print(f"  registers/thread: {gain['naive']['registers']} -> "
          f"{gain['split']['registers']}")
    print(f"  resident warps: {gain['naive']['resident_warps']} -> "
          f"{gain['split']['resident_warps']} "
          f"(occupancy {gain['naive']['occupancy'] * 100:.0f}% -> "
          f"{gain['split']['occupancy'] * 100:.0f}%)")

    # cross-vendor check (paper Fig. 6 left)
    for dev in (MI250X_GCD, H100_SXM5):
        s2 = GPUResidentSolver(dev)
        s2.upload(pos, {"m": mass, "h": np.full(n, h)})
        r = s2.run_interaction_list(kern, leaves, ilist)
        wall = r.counters.flops / (0.3 * dev.peak_fp32_flops)  # 30%-of-peak run
        print(f"  {dev.vendor:<7} pass: {r.counters.flops / 1e6:7.1f} MFLOP -> "
              f"utilization {r.utilization(dev, wall) * 100:.0f}% at that pace")


if __name__ == "__main__":
    main()
