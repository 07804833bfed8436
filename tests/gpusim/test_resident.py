"""GPU-resident solver tests: whole interaction lists on the device."""

import numpy as np
import pytest

from repro.gpusim import (
    MI250X_GCD,
    GPUResidentSolver,
    sph_density_kernel,
)
from repro.tree import (
    build_chaining_mesh,
    build_interaction_list,
    build_leaf_set,
)


@pytest.fixture(scope="module")
def tree_setup():
    rng = np.random.default_rng(9)
    box = 4.0
    pos = rng.uniform(0, box, (600, 3))
    mass = rng.uniform(1, 2, 600)
    h = 0.4
    mesh = build_chaining_mesh(pos, 1.0, origin=0.0, extent=box, periodic=False)
    leaves = build_leaf_set(pos, mesh, max_leaf=48)
    ilist = build_interaction_list(leaves, mesh, pad=h, box=None)
    return box, pos, mass, h, leaves, ilist


def direct_density(pos, mass, h):
    out = np.zeros(len(pos))
    for j in range(len(pos)):
        d = pos - pos[j]
        r = np.sqrt((d**2).sum(axis=1))
        q = np.clip(r / h, 0, 1)
        u = 1 - q
        w = np.where(
            r < h, 495 / (32 * np.pi) / h**3 * u**6 * (1 + 6 * q + 35 / 3 * q**2), 0
        )
        out += mass[j] * w
    return out


class TestResidentSolver:
    def test_density_pass_matches_direct_sum(self, tree_setup):
        """Tree interaction lists + warp-split execution = exact direct sum
        (interaction lists cover all pairs; warp splitting is bit-exact)."""
        box, pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        result = solver.run_interaction_list(
            sph_density_kernel(), leaves, ilist
        )
        np.testing.assert_allclose(
            result.phi, direct_density(pos, mass, h), rtol=1e-10
        )

    def test_requires_upload(self, tree_setup):
        box, pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        with pytest.raises(RuntimeError, match="resident"):
            solver.run_interaction_list(sph_density_kernel(), leaves, ilist)

    def test_transfer_accounting(self, tree_setup):
        """Upload once, run many passes: host traffic stays a small
        fraction of device bytes touched (the GPU-resident design)."""
        box, pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        h2d = solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        assert h2d == pos.nbytes + mass.nbytes + pos[:, 0].nbytes

        kern = sph_density_kernel()
        device_bytes = 0
        for _ in range(5):  # five subcycles, no re-upload
            res = solver.run_interaction_list(kern, leaves, ilist,
                                              download=False)
            device_bytes += res.counters.bytes_moved
        # one final download
        res = solver.run_interaction_list(kern, leaves, ilist)
        device_bytes += res.counters.bytes_moved
        assert solver.transfer_fraction(device_bytes) < 0.2

    def test_device_side_field_update(self, tree_setup):
        """update_field changes results without any host transfer."""
        box, pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        kern = sph_density_kernel()
        r1 = solver.run_interaction_list(kern, leaves, ilist, download=False)
        h2d_before = solver.total_h2d_bytes
        solver.update_field("m", mass * 2.0)
        r2 = solver.run_interaction_list(kern, leaves, ilist, download=False)
        assert solver.total_h2d_bytes == h2d_before  # no new upload
        np.testing.assert_allclose(r2.phi, 2.0 * r1.phi, rtol=1e-12)

    def test_active_leaf_filtering_reduces_work(self, tree_setup):
        box, pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        kern = sph_density_kernel()
        active = np.zeros(leaves.n_leaves, dtype=bool)
        active[: leaves.n_leaves // 4] = True
        full = solver.run_interaction_list(kern, leaves, ilist)
        part = solver.run_interaction_list(kern, leaves, ilist,
                                           active_leaves=active)
        assert part.n_leaf_pairs < full.n_leaf_pairs
        assert part.counters.flops < full.counters.flops
        # inactive-leaf particles receive nothing
        inactive_particles = np.concatenate(
            [leaves.particles_in_leaf(l) for l in range(leaves.n_leaves)
             if not active[l]]
        )
        np.testing.assert_allclose(part.phi[inactive_particles], 0.0)

    def test_utilization_estimate(self, tree_setup):
        box, pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        res = solver.run_interaction_list(sph_density_kernel(), leaves, ilist)
        # if the device ran at 30% of peak, this wall time would result:
        wall = res.counters.flops / (0.3 * MI250X_GCD.peak_fp32_flops)
        assert res.utilization(MI250X_GCD, wall) == pytest.approx(0.3)
        assert res.utilization(MI250X_GCD, 0.0) == 0.0
