"""GPU kernel-launch attribution and multi-tier I/O trace events."""

import numpy as np
import pytest

from repro.gpusim import MI250X_GCD, GPUResidentSolver, sph_density_kernel
from repro.gpusim.counters import OpCounters
from repro.iosim.tiers import MultiTierWriter
from repro.observe import Observatory, Tracer, slice_intervals
from repro.observe.clock import SIM_PID
from repro.tree import (
    build_chaining_mesh,
    build_interaction_list,
    build_leaf_set,
)


class TestOpCountersDelta:
    def test_copy_is_independent(self):
        c = OpCounters(fp32_add=3, shuffles=2)
        snap = c.copy()
        c.fp32_add += 10
        assert snap.fp32_add == 3
        assert snap.shuffles == 2

    def test_delta_subtracts_every_field(self):
        before = OpCounters(fp32_add=3, fp32_fma=1, global_load_bytes=10)
        after = OpCounters(fp32_add=8, fp32_fma=4, global_load_bytes=50)
        d = after.delta(before)
        assert (d.fp32_add, d.fp32_fma, d.global_load_bytes) == (5, 3, 40)
        assert d.flops == 5 + 2 * 3

    def test_before_merge_delta_attribution(self):
        """The per-launch pattern: copy before, merge, delta after."""
        total = OpCounters(fp32_add=100)
        before = total.copy()
        total.merge(OpCounters(fp32_add=7, atomics=2))
        launch = total.delta(before)
        assert launch.fp32_add == 7
        assert launch.atomics == 2


@pytest.fixture(scope="module")
def gpu_pass():
    rng = np.random.default_rng(9)
    box = 4.0
    pos = rng.uniform(0, box, (300, 3))
    mass = rng.uniform(1, 2, 300)
    h = 0.5
    mesh = build_chaining_mesh(pos, 1.0, origin=0.0, extent=box,
                               periodic=False)
    leaves = build_leaf_set(pos, mesh, max_leaf=32)
    ilist = build_interaction_list(leaves, mesh, pad=h, box=None)

    tracer = Tracer()
    solver = GPUResidentSolver(MI250X_GCD, tracer=tracer)
    solver.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
    result = solver.run_interaction_list(sph_density_kernel(), leaves, ilist)
    result2 = solver.run_interaction_list(sph_density_kernel(), leaves,
                                          ilist)
    return tracer, solver, result, result2


class TestKernelLaunchSpans:
    def test_upload_span_carries_bytes(self, gpu_pass):
        tracer, solver, *_ = gpu_pass
        (up,) = tracer.spans("gpu/upload")
        assert up.cat == "gpu"
        assert up.args["bytes"] == solver.total_h2d_bytes

    def test_one_span_per_launch_with_counter_delta(self, gpu_pass):
        tracer, solver, r1, r2 = gpu_pass
        launches = tracer.spans("gpu/kernel_launch")
        assert len(launches) == 2
        for span, res in zip(launches, (r1, r2)):
            assert span.args["kernel"] == "sph_density"
            assert span.args["counters"] == res.counters.snapshot()
            assert span.args["n_leaf_pairs"] == res.n_leaf_pairs
            assert span.args["lane_efficiency"] == \
                pytest.approx(res.counters.lane_efficiency)

    def test_total_counters_accumulate_across_launches(self, gpu_pass):
        _, solver, r1, r2 = gpu_pass
        assert solver.total_counters.flops == \
            r1.counters.flops + r2.counters.flops

    def test_untraced_solver_matches_traced(self, gpu_pass):
        """Instrumentation must not perturb the numerics."""
        tracer, solver, r1, _ = gpu_pass
        rng = np.random.default_rng(9)
        box = 4.0
        pos = rng.uniform(0, box, (300, 3))
        mass = rng.uniform(1, 2, 300)
        h = 0.5
        mesh = build_chaining_mesh(pos, 1.0, origin=0.0, extent=box,
                                   periodic=False)
        leaves = build_leaf_set(pos, mesh, max_leaf=32)
        ilist = build_interaction_list(leaves, mesh, pad=h, box=None)
        bare = GPUResidentSolver(MI250X_GCD)
        bare.upload(pos, {"m": mass, "h": np.full(len(pos), h)})
        res = bare.run_interaction_list(sph_density_kernel(), leaves, ilist)
        np.testing.assert_array_equal(res.phi, r1.phi)


class TestTierTraceEvents:
    def test_sim_clock_events_deterministic(self):
        """MultiTierWriter events carry explicit simulated-clock stamps on
        the SIM_PID process — bit-identical across runs."""

        def run():
            tr = Tracer()
            w = MultiTierWriter(n_nodes=64, tracer=tr)
            for step in range(3):
                w.checkpoint(step, data_tb=40.0, compute_seconds=100.0,
                             imbalance=1.5)
            return [(e.name, e.ph, e.ts, e.dur) for e in tr.events]

        a, b = run(), run()
        assert a == b

    def test_stall_write_bleed_timeline(self):
        tr = Tracer()
        w = MultiTierWriter(n_nodes=64, tracer=tr)
        # sizeable checkpoint, tiny compute window: the second write stalls
        recs = [w.checkpoint(s, data_tb=40.0, compute_seconds=0.1)
                for s in range(2)]
        assert recs[1].stall_seconds > 0
        assert all(e.pid == SIM_PID for e in tr.events)

        writes = tr.spans("io/nvme_write")
        stalls = tr.spans("io/stall")
        assert len(writes) == len(stalls) == 2
        assert stalls[1].dur == pytest.approx(recs[1].stall_seconds)
        # the second stall covers exactly the tail of the first bleed
        doc_events = [e for e in tr.events if e.name == "io/bleed"]
        assert [e.ph for e in doc_events] == ["b", "e", "b", "e"]
        first_bleed_end = doc_events[1].ts
        assert stalls[1].ts + stalls[1].dur == pytest.approx(first_bleed_end)
        # bleed slices overlap the compute window, not the sync write
        assert doc_events[0].ts == pytest.approx(
            writes[0].ts + writes[0].dur
        )

    def test_bleed_slices_in_export(self):
        tr = Tracer()
        w = MultiTierWriter(n_nodes=16, tracer=tr)
        w.checkpoint(0, data_tb=10.0, compute_seconds=50.0)
        from repro.observe import to_chrome_trace

        doc = to_chrome_trace(tr)
        iv = slice_intervals(doc, "io/bleed", ph="b")
        ((t0, t1),) = iv[(SIM_PID, 0)]
        assert t1 > t0

    def test_untraced_writer_unchanged(self):
        traced = MultiTierWriter(n_nodes=64, tracer=Tracer())
        plain = MultiTierWriter(n_nodes=64)
        for step in range(3):
            a = traced.checkpoint(step, data_tb=40.0, compute_seconds=100.0)
            b = plain.checkpoint(step, data_tb=40.0, compute_seconds=100.0)
            assert a == b


class TestCheckpointPipelineTrace:
    def test_chaos_run_drain_slices(self, tmp_path):
        """End-to-end: a chaos run traces each rank's shard write as an
        io/checkpoint span and that shard's bleed to the PFS as one
        io/pfs_drain async slice on the same rank track, starting at or
        after the span."""
        from repro.cosmology import PLANCK18
        from repro.parallel.distributed_sim import DistributedConfig
        from repro.resilience import (
            FaultPlan,
            RecoveryCoordinator,
            TieredCheckpointStore,
        )

        rng = np.random.default_rng(7)
        box = 120.0
        pos = np.mod(
            rng.uniform(0, box, size=(4, 3))[:, None, :]
            + rng.normal(0, 6.0, size=(4, 24, 3)), box
        ).reshape(-1, 3)
        vel = rng.normal(0, 50.0, size=pos.shape)
        mass = np.full(len(pos), 1.0e10)
        cfg = DistributedConfig(
            box=box, pm_grid=32, a_init=0.3, a_final=0.34, n_pm_steps=3,
            cosmo=PLANCK18, r_split_cells=0.75, max_rung=3,
            comm_mode="overlap", subcycle=True,
        )
        obs = Observatory(tracing=True)
        with TieredCheckpointStore(tmp_path, n_nodes=4) as store:
            RecoveryCoordinator(store, observe=obs).run(
                cfg, 4, pos, vel, mass,
                fault_plan=FaultPlan.single(rank=2, step=1, phase="rung"),
            )
        doc = obs.export_chrome_trace()

        ckpts, drains = {}, {}
        for ev in doc["traceEvents"]:
            if ev.get("name") == "io/checkpoint" and ev["ph"] == "X":
                key = (ev["tid"], ev["args"]["step"])
                ckpts.setdefault(key, []).append(ev["ts"])
            elif ev.get("name") == "io/pfs_drain" and ev["ph"] == "b":
                step = int(ev["args"]["file"].split(".")[0][len("ckpt_"):])
                drains.setdefault((ev["tid"], step), []).append(ev["ts"])
        # four ranks wrote step 0; the three survivors steps 1 and 2
        expected = [(r, 0) for r in range(4)] + [
            (r, s) for s in (1, 2) for r in range(3)
        ]
        assert sorted(ckpts) == sorted(expected)
        assert sorted(drains) == sorted(expected)
        for key, (start,) in drains.items():
            (span_ts,) = ckpts[key]
            assert start >= span_ts
        # every drain completed (its async slice closed)
        closed = slice_intervals(doc, "io/pfs_drain", ph="b")
        assert sum(len(v) for v in closed.values()) == len(expected)
