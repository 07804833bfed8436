"""Mixed-rung lane activity: predication vs active-particle compaction."""

import numpy as np
import pytest

from repro.gpusim import (
    H100_SXM5,
    MI250X_GCD,
    GPUResidentSolver,
    OpCounters,
    active_compaction_stats,
    execute_leaf_pair_warpsplit,
    sph_density_kernel,
)
from repro.tree import (
    build_chaining_mesh,
    build_interaction_list,
    build_leaf_set,
)


def _leaf_setup(ni=96, nj=80, seed=2):
    rng = np.random.default_rng(seed)
    pos_i = rng.uniform(0, 1, (ni, 3))
    pos_j = rng.uniform(0, 1, (nj, 3))
    state_i = {"h": np.full(ni, 0.5)}
    state_j = {"m": rng.uniform(1, 2, nj)}
    return pos_i, state_i, pos_j, state_j


class TestExecutorActiveLanes:
    @pytest.mark.parametrize("device", [MI250X_GCD, H100_SXM5])
    def test_compaction_matches_predication_to_roundoff(self, device):
        """Compaction repacks lanes (permuting each lane's rotation order)
        so it agrees with predication to roundoff; both are deterministic
        and leave inactive rows exactly zero."""
        pos_i, si, pos_j, sj = _leaf_setup()
        kern = sph_density_kernel()
        rng = np.random.default_rng(7)
        active = rng.random(len(pos_i)) < 0.3
        phi_p, _, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, device, active_i=active
        )
        phi_c, _, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, device, active_i=active, compact=True
        )
        np.testing.assert_allclose(phi_p, phi_c, rtol=1e-13, atol=1e-14)
        assert np.all(phi_p[~active] == 0.0)
        assert np.all(phi_c[~active] == 0.0)
        # determinism: a repeated compacted run is bit-identical to itself
        phi_c2, _, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, device, active_i=active, compact=True
        )
        assert np.array_equal(phi_c, phi_c2)

    def test_active_rows_match_full_evaluation(self):
        """Predicated/compacted active rows equal the all-active result on
        those rows bit-for-bit (accumulation order is per-lane)."""
        pos_i, si, pos_j, sj = _leaf_setup()
        kern = sph_density_kernel()
        active = np.zeros(len(pos_i), dtype=bool)
        active[10:40] = True
        full, _, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, MI250X_GCD
        )
        pred, _, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, MI250X_GCD, active_i=active
        )
        assert np.array_equal(pred[active], full[active])

    def test_predication_wastes_issue_compaction_does_not(self):
        """Clustered sparse activity: predication issues every tile with
        most lanes dead; compaction issues only the dense active tiles."""
        pos_i, si, pos_j, sj = _leaf_setup(ni=128)
        kern = sph_density_kernel()
        half = MI250X_GCD.warp_size // 2
        active = np.zeros(len(pos_i), dtype=bool)
        active[:half] = True  # one dense tile's worth out of four

        c_pred = OpCounters()
        execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, MI250X_GCD, c_pred, active_i=active
        )
        c_comp = OpCounters()
        execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, MI250X_GCD, c_comp,
            active_i=active, compact=True,
        )
        # same useful work, fewer issued lanes, higher lane efficiency
        assert c_comp.active_lane_ops == c_pred.active_lane_ops
        assert c_comp.issued_lane_ops < c_pred.issued_lane_ops
        assert c_comp.lane_efficiency > c_pred.lane_efficiency
        # 1 active tile of 4 -> predication issues ~4x the lanes
        assert c_pred.issued_lane_ops == pytest.approx(
            4 * c_comp.issued_lane_ops
        )
        # compaction also skips the inactive tiles' global reads
        assert c_comp.global_load_bytes < c_pred.global_load_bytes

    def test_all_active_degenerates_to_plain_execution(self):
        pos_i, si, pos_j, sj = _leaf_setup()
        kern = sph_density_kernel()
        c0, c1 = OpCounters(), OpCounters()
        phi0, _, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, MI250X_GCD, c0
        )
        phi1, _, _ = execute_leaf_pair_warpsplit(
            kern, pos_i, si, pos_j, sj, MI250X_GCD, c1,
            active_i=np.ones(len(pos_i), dtype=bool), compact=True,
        )
        assert np.array_equal(phi0, phi1)
        assert c0.issued_lane_ops == c1.issued_lane_ops


class TestCompactionStats:
    def test_issue_accounting(self):
        # warp 64 -> half 32; leaves: 64 total/8 active, 32/32, 40/0
        s = active_compaction_stats([64, 32, 40], [8, 32, 0], warp_size=64)
        # leaf 3 is fully inactive: skipped by both schemes
        assert s["issued_tiles_predicated"] == 2 + 1
        assert s["issued_tiles_compacted"] == 1 + 1
        assert s["issue_reduction"] == pytest.approx(1.5)
        assert s["lane_occupancy_predicated"] == pytest.approx(40 / 96)
        assert s["lane_occupancy_compacted"] == pytest.approx(40 / 64)

    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            active_compaction_stats([4, 4], [1], warp_size=64)
        with pytest.raises(ValueError, match="exceed"):
            active_compaction_stats([4], [5], warp_size=64)

    def test_matches_executor_tile_issue(self):
        """The analytic model agrees with the executor's issued-lane count
        for a single leaf pair (tiles x partners x half lanes)."""
        ni, nj = 96, 64
        pos_i, si, pos_j, sj = _leaf_setup(ni=ni, nj=nj)
        kern = sph_density_kernel()
        half = MI250X_GCD.warp_size // 2
        active = np.zeros(ni, dtype=bool)
        active[: half + 3] = True  # 2 compacted tiles vs 3 predicated

        stats = active_compaction_stats([ni], [int(active.sum())],
                                        warp_size=MI250X_GCD.warp_size)
        n_tiles_j = -(-nj // half)
        for compact, key in ((False, "issued_tiles_predicated"),
                             (True, "issued_tiles_compacted")):
            c = OpCounters()
            execute_leaf_pair_warpsplit(
                kern, pos_i, si, pos_j, sj, MI250X_GCD, c,
                active_i=active, compact=compact,
            )
            assert c.issued_lane_ops == stats[key] * n_tiles_j * half * half


class TestResidentActiveParticles:
    @pytest.fixture(scope="class")
    def tree_setup(self):
        rng = np.random.default_rng(9)
        box = 4.0
        # coarse mesh -> ~100-particle leaves spanning several half-warp
        # tiles, so predication/compaction issue different tile counts
        pos = rng.uniform(0, box, (800, 3))
        mass = rng.uniform(1, 2, 800)
        h = 0.4
        mesh = build_chaining_mesh(pos, 2.0, origin=0.0, extent=box,
                                   periodic=False)
        leaves = build_leaf_set(pos, mesh, max_leaf=128)
        ilist = build_interaction_list(leaves, mesh, pad=h, box=None)
        return pos, mass, h, leaves, ilist

    def test_active_particles_bitidentical_and_cheaper(self, tree_setup):
        pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        kern = sph_density_kernel()
        rng = np.random.default_rng(1)
        active = rng.random(len(pos)) < 0.2

        full = solver.run_interaction_list(kern, leaves, ilist)
        pred = solver.run_interaction_list(
            kern, leaves, ilist, active_particles=active
        )
        comp = solver.run_interaction_list(
            kern, leaves, ilist, active_particles=active, compact=True
        )
        # predication keeps lane slots: active rows equal the full run
        # bit-for-bit; compaction repacks and agrees to roundoff
        assert np.array_equal(pred.phi[active], full.phi[active])
        np.testing.assert_allclose(comp.phi, pred.phi, rtol=1e-13, atol=1e-14)
        assert np.all(pred.phi[~active] == 0.0)
        assert np.all(comp.phi[~active] == 0.0)
        assert comp.counters.issued_lane_ops < pred.counters.issued_lane_ops
        assert comp.counters.lane_efficiency > pred.counters.lane_efficiency

    def test_index_array_equivalent_to_mask(self, tree_setup):
        pos, mass, h, leaves, ilist = tree_setup
        solver = GPUResidentSolver(MI250X_GCD)
        solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        kern = sph_density_kernel()
        idx = np.arange(0, len(pos), 3)
        mask = np.zeros(len(pos), dtype=bool)
        mask[idx] = True
        a = solver.run_interaction_list(kern, leaves, ilist,
                                        active_particles=idx, compact=True)
        b = solver.run_interaction_list(kern, leaves, ilist,
                                        active_particles=mask, compact=True)
        assert np.array_equal(a.phi, b.phi)
