"""Lane sanitizer: non-atomic write-write collisions in warp passes."""

import numpy as np
import pytest

from repro.gpusim import MI250X_GCD, GPUResidentSolver, sph_density_kernel
from repro.gpusim.warp import short_range_gravity_kernel
from repro.sanitize import LaneCollisionError, LaneSanitizer
from repro.tree import build_chaining_mesh, build_interaction_list, build_leaf_set
from repro.tree.interaction_lists import InteractionList
from repro.tree.kdtree import LeafSet


def _leafset(order, starts_counts, pos):
    """Hand-built LeafSet (the malformed cases a builder never emits)."""
    starts = np.array([s for s, _ in starts_counts])
    counts = np.array([c for _, c in starts_counts])
    mins = np.array([pos[order[s:s + c]].min(axis=0) for s, c in starts_counts])
    maxs = np.array([pos[order[s:s + c]].max(axis=0) for s, c in starts_counts])
    return LeafSet(
        order=np.asarray(order), leaf_start=starts, leaf_count=counts,
        leaf_bin=np.zeros(len(starts), dtype=np.int64),
        aabb_min=mins, aabb_max=maxs,
    )


class TestUnitChecks:
    def test_duplicate_lane_in_one_leaf_raises(self):
        san = LaneSanitizer()
        leaves = object()
        with pytest.raises(LaneCollisionError) as exc:
            san.check_leaf_pair(
                leaves, 0, 1,
                idx_i=np.array([4, 7, 4]), idx_j=np.array([1, 2]),
                kernel_name="grav", two_sided=False,
            )
        assert "particle 4" in str(exc.value)
        assert "2 lanes" in str(exc.value)

    def test_two_sided_overlapping_leaves_raise(self):
        san = LaneSanitizer()
        with pytest.raises(LaneCollisionError) as exc:
            san.check_leaf_pair(
                object(), 0, 1,
                idx_i=np.array([0, 1, 2]), idx_j=np.array([2, 3]),
                kernel_name="grav", two_sided=True,
            )
        assert "share particle" in str(exc.value)
        assert "(0, 1)" in str(exc.value)

    def test_one_sided_overlap_is_legal(self):
        """Gather kernels only write the i side; j-side aliasing is fine."""
        san = LaneSanitizer()
        san.check_leaf_pair(
            object(), 0, 1,
            idx_i=np.array([0, 1, 2]), idx_j=np.array([2, 3]),
            kernel_name="density", two_sided=False,
        )
        assert san.findings == []

    def test_self_pair_is_exempt(self):
        """(a, a) pairs serialize same-leaf accumulation by construction."""
        san = LaneSanitizer()
        idx = np.array([0, 1, 2])
        san.check_leaf_pair(object(), 3, 3, idx, idx,
                            kernel_name="grav", two_sided=True)
        assert san.findings == []

    def test_non_strict_records_instead_of_raising(self):
        san = LaneSanitizer(strict=False)
        san.check_leaf_pair(
            object(), 0, 1,
            idx_i=np.array([4, 4]), idx_j=np.array([1]),
            kernel_name="grav", two_sided=False,
        )
        assert len(san.findings) == 1

    def test_clean_leaf_memoized_per_leafset(self):
        san = LaneSanitizer()
        leaves = object()
        idx = np.arange(5)
        for b in (1, 2, 3):
            san.check_leaf_pair(leaves, 0, b, idx, np.arange(5, 8),
                                kernel_name="k", two_sided=False)
        assert (id(leaves), 0) in san._clean_leaves
        assert san.n_pairs_checked == 3


class TestSolverIntegration:
    def test_clean_pass_reports_nothing(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 4.0, (300, 3))
        mass = rng.uniform(1, 2, 300)
        mesh = build_chaining_mesh(pos, 1.0, origin=0.0, extent=4.0,
                                   periodic=False)
        leaves = build_leaf_set(pos, mesh, max_leaf=48)
        ilist = build_interaction_list(leaves, mesh, pad=0.4, box=None)
        san = LaneSanitizer()
        solver = GPUResidentSolver(MI250X_GCD, sanitizer=san)
        solver.upload(pos, {"m": mass, "h": np.full(300, 0.4)})
        solver.run_interaction_list(sph_density_kernel(), leaves, ilist)
        assert san.findings == []
        assert san.n_pairs_checked == len(ilist)

    def test_sanitized_pass_is_bit_identical_to_unsanitized(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 4.0, (200, 3))
        mass = rng.uniform(1, 2, 200)
        mesh = build_chaining_mesh(pos, 1.0, origin=0.0, extent=4.0,
                                   periodic=False)
        leaves = build_leaf_set(pos, mesh, max_leaf=32)
        ilist = build_interaction_list(leaves, mesh, pad=0.4, box=None)
        state = {"m": mass, "h": np.full(200, 0.4)}
        plain = GPUResidentSolver(MI250X_GCD)
        plain.upload(pos, state)
        checked = GPUResidentSolver(MI250X_GCD, sanitizer=LaneSanitizer())
        checked.upload(pos, state)
        kern = sph_density_kernel()
        a = plain.run_interaction_list(kern, leaves, ilist)
        b = checked.run_interaction_list(kern, leaves, ilist)
        assert np.array_equal(a.phi, b.phi)

    def test_malformed_leafset_duplicate_lane_caught_in_launch(self):
        """A leaf listing one particle in two lanes (a bad compaction)
        trips the sanitizer before the pair is issued."""
        pos = np.array([[0.1, 0.1, 0.1], [0.2, 0.1, 0.1], [0.3, 0.1, 0.1],
                        [1.1, 0.1, 0.1], [1.2, 0.1, 0.1]])
        # leaf 0 lists particle 1 twice
        leaves = _leafset([0, 1, 1, 3, 4], [(0, 3), (3, 2)], pos)
        ilist = InteractionList(leaf_i=np.array([0]), leaf_j=np.array([1]))
        solver = GPUResidentSolver(MI250X_GCD, sanitizer=LaneSanitizer())
        solver.upload(pos, {"m": np.ones(5), "h": np.full(5, 2.0)})
        with pytest.raises(LaneCollisionError) as exc:
            solver.run_interaction_list(sph_density_kernel(), leaves, ilist)
        assert "particle 1" in str(exc.value)

    def test_overlapping_leaves_caught_only_for_reaction_kernels(self):
        """Leaves sharing particle 2: legal for a one-sided gather, a
        write-write collision for a reaction (two-sided) kernel."""
        pos = np.array([[0.1, 0.1, 0.1], [0.2, 0.1, 0.1], [0.6, 0.1, 0.1],
                        [1.1, 0.1, 0.1], [1.2, 0.1, 0.1]])
        leaves = _leafset([0, 1, 2, 2, 3, 4], [(0, 3), (3, 3)], pos)
        ilist = InteractionList(leaf_i=np.array([0]), leaf_j=np.array([1]))
        state = {"m": np.ones(5), "h": np.full(5, 2.0)}

        gather = GPUResidentSolver(MI250X_GCD, sanitizer=LaneSanitizer())
        gather.upload(pos, state)
        gather.run_interaction_list(sph_density_kernel(), leaves, ilist)
        assert gather.sanitizer.findings == []

        reaction = GPUResidentSolver(MI250X_GCD, sanitizer=LaneSanitizer())
        reaction.upload(pos, state)
        kern = short_range_gravity_kernel(1.0, 0.05)
        assert kern.reaction != 0
        with pytest.raises(LaneCollisionError) as exc:
            reaction.run_interaction_list(kern, leaves, ilist)
        assert "share particle" in str(exc.value)
