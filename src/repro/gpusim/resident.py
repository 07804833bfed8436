"""GPU-resident solver: execute a whole interaction list on the device.

CRK-HACC pushes the entire overloaded rank to the GPU once per PM step and
keeps it there — every short-range operator runs device-side, and only
results return to the host (paper Section IV-A, ">90% of solver time on
the GPU").  This module reproduces that execution model end to end: a
host->device upload (counted), warp-split execution of every leaf-leaf
pair in an interaction list (lane-accurate, bit-reproducible), and a
device->host download, with rocprof-style counters and a utilization
estimate for the whole pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..observe.trace import NullTracer
from ..tree.interaction_lists import InteractionList, active_leaf_mask
from ..tree.kdtree import LeafSet
from .counters import OpCounters
from .device import GPUSpec
from .warp import SeparablePairKernel, execute_leaf_pair_warpsplit

_NULL_TRACER = NullTracer()


@dataclass
class ResidentPassResult:
    """Output of one device-resident interaction-list pass."""

    phi: np.ndarray  # accumulated per particle: (N,) or (N, components)
    counters: OpCounters
    h2d_bytes: int
    d2h_bytes: int
    n_leaf_pairs: int

    def utilization(self, device: GPUSpec, wall_seconds: float) -> float:
        """Measured FLOPs / (peak rate x wall time), the paper's metric."""
        if wall_seconds <= 0:
            return 0.0
        return self.counters.flops / (device.peak_fp32_flops * wall_seconds)


class GPUResidentSolver:
    """Executes short-range kernels over tree interaction lists on a
    simulated device, keeping particle state 'resident' between passes."""

    def __init__(self, device: GPUSpec, tracer=None, sanitizer=None):
        self.device = device
        self._resident: dict | None = None
        self.total_h2d_bytes = 0
        self.total_d2h_bytes = 0
        #: cumulative device counters across every launch; per-launch
        #: deltas (``copy()`` before / ``delta()`` after) are attached as
        #: ``gpu/kernel_launch`` span args when tracing
        self.total_counters = OpCounters()
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        #: optional :class:`~repro.sanitize.lanes.LaneSanitizer` checking
        #: every issued leaf pair for non-atomic lane write collisions
        self.sanitizer = sanitizer

    # -- residency ------------------------------------------------------------
    def upload(self, pos: np.ndarray, state: dict) -> int:
        """Host->device transfer of the full particle state (once per PM
        step in the CRK-HACC design).  Returns bytes moved."""
        with self.tracer.span("gpu/upload", cat="gpu") as sp:
            pos = np.asarray(pos, dtype=np.float64)
            nbytes = pos.nbytes + sum(
                np.asarray(v).nbytes for v in state.values()
            )
            self._resident = {"pos": pos, "state": dict(state)}
            self.total_h2d_bytes += nbytes
            sp.set_args(bytes=nbytes)
        return nbytes

    @property
    def is_resident(self) -> bool:
        return self._resident is not None

    def update_field(self, name: str, values: np.ndarray) -> None:
        """Device-side field update (no host transfer) — how subcycle
        results feed the next kernel without leaving the GPU."""
        if not self.is_resident:
            raise RuntimeError("no resident state; call upload() first")
        self._resident["state"][name] = np.asarray(values)

    # -- execution ---------------------------------------------------------------
    def run_interaction_list(
        self,
        kernel: SeparablePairKernel,
        leaves: LeafSet,
        ilist: InteractionList,
        active_leaves: np.ndarray | None = None,
        download: bool = True,
        active_particles: np.ndarray | None = None,
        compact: bool = False,
    ) -> ResidentPassResult:
        """Execute ``kernel`` over every (active) leaf pair of ``ilist``.

        For one-sided (gather) kernels each ordered pair is evaluated as
        listed.  Only pairs whose i-leaf is active run — the adaptive-
        timestep filtering of Section IV-B1.  ``active_particles``
        (boolean mask or index array) refines that to mixed-rung lane
        activity inside each i-leaf: ``compact=False`` predicates inactive
        lanes off inside issued tiles, ``compact=True`` gathers active
        particles into dense tiles first (the paper's mixed-rung force
        kernels).  Both modes evaluate the same pair set; compaction
        repacks lanes and so agrees with predication to roundoff rather
        than bit-for-bit (see ``execute_leaf_pair_warpsplit``).

        When tracing, each call is one ``gpu/kernel_launch`` span carrying
        the launch's OpCounters delta (FLOPs, traffic, lane occupancy) —
        the rocprof-per-dispatch view the §V-B attribution reads back.
        """
        with self.tracer.span("gpu/kernel_launch", cat="gpu",
                              kernel=kernel.name) as sp:
            before = self.total_counters.copy()
            result = self._execute_pass(
                kernel, leaves, ilist, active_leaves=active_leaves,
                download=download, active_particles=active_particles,
                compact=compact,
            )
            self.total_counters.merge(result.counters)
            launch = self.total_counters.delta(before)
            sp.set_args(counters=launch.snapshot(),
                        n_leaf_pairs=result.n_leaf_pairs,
                        lane_efficiency=launch.lane_efficiency)
        return result

    def _execute_pass(
        self,
        kernel: SeparablePairKernel,
        leaves: LeafSet,
        ilist: InteractionList,
        active_leaves: np.ndarray | None = None,
        download: bool = True,
        active_particles: np.ndarray | None = None,
        compact: bool = False,
    ) -> ResidentPassResult:
        if not self.is_resident:
            raise RuntimeError("no resident state; call upload() first")
        pos = self._resident["pos"]
        state = self._resident["state"]
        n = len(pos)
        phi = np.zeros((n,) + kernel.stages.shape)
        counters = OpCounters()

        particle_active = None
        if active_particles is not None:
            particle_active = np.asarray(active_particles)
            if particle_active.dtype != bool:
                mask = np.zeros(n, dtype=bool)
                mask[particle_active] = True
                particle_active = mask
            if active_leaves is None:
                active_leaves = active_leaf_mask(leaves, particle_active)

        li = ilist.leaf_i
        lj = ilist.leaf_j
        if active_leaves is not None:
            keep = active_leaves[li]
            li, lj = li[keep], lj[keep]

        for a, b in zip(li, lj):
            idx_i = leaves.particles_in_leaf(int(a))
            idx_j = leaves.particles_in_leaf(int(b))
            if self.sanitizer is not None:
                self.sanitizer.check_leaf_pair(
                    leaves, int(a), int(b), idx_i, idx_j,
                    kernel_name=kernel.name,
                    two_sided=bool(kernel.reaction),
                )
            si = {k: np.asarray(state[k])[idx_i] for k in kernel.fields_i}
            sj = {k: np.asarray(state[k])[idx_j] for k in kernel.fields_j}
            phi_i, phi_j, _ = execute_leaf_pair_warpsplit(
                kernel, pos[idx_i], si, pos[idx_j], sj, self.device, counters,
                active_i=(
                    None if particle_active is None else particle_active[idx_i]
                ),
                compact=compact,
            )
            # device-atomic accumulation model; lane-collision safety of
            # the per-lane write-backs is the LaneSanitizer's contract
            np.add.at(phi, idx_i, phi_i)  # sanitize: allow-scatter
            if phi_j is not None:
                np.add.at(phi, idx_j, phi_j)  # sanitize: allow-scatter

        d2h = phi.nbytes if download else 0
        self.total_d2h_bytes += d2h
        return ResidentPassResult(
            phi=phi,
            counters=counters,
            h2d_bytes=0,
            d2h_bytes=d2h,
            n_leaf_pairs=len(li),
        )

    def transfer_fraction(self, solver_bytes_touched: int) -> float:
        """Host-transfer bytes / device bytes touched: small when the
        GPU-resident design is working (the >90% on-device claim)."""
        total_host = self.total_h2d_bytes + self.total_d2h_bytes
        if solver_bytes_touched <= 0:
            return float("inf")
        return total_host / solver_bytes_touched
