"""Overlap mode is bit-identical to blocking: FFT pipeline + full driver."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.parallel
from repro.cosmology import PLANCK18, zeldovich_ics
from repro.parallel import DistributedFFT, World, scatter_slabs, slab_bounds
from repro.parallel.distributed_sim import DistributedConfig, DistributedSimulation


class TestPipelinedFFT:
    """The transpose pipeline gives the same bits for every chunk count on
    either kind of world (the world, not the FFT, carries the comm mode)."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_forward_inverse_bitidentical_to_blocking(self, n_ranks):
        n = 12
        rng = np.random.default_rng(5)
        field = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal(
            (n, n, n)
        )
        slabs = scatter_slabs(field, n_ranks)

        def fn(comm, n_stages):
            fft = DistributedFFT(comm, n, n_stages=n_stages)
            spec = fft.forward(slabs[comm.rank].copy())
            recon = fft.inverse(spec)
            many = fft.inverse_many([spec, 2.0 * spec])
            assert np.array_equal(many[0], recon)
            return spec, recon

        runs = {
            (blocking, k): World(n_ranks, blocking=blocking).run(fn, k)
            for blocking in (True, False) for k in (1, 2, 3, 9)
        }
        ref = runs[True, 1]
        for key, got in runs.items():
            for (s_ref, r_ref), (s, r) in zip(ref, got):
                assert np.array_equal(s_ref, s), key
                assert np.array_equal(r_ref, r), key
        spec = np.concatenate([r[0] for r in ref], axis=1)
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-9)
        recon = np.concatenate([r[1] for r in ref], axis=0)
        np.testing.assert_allclose(recon, field, atol=1e-12)

    def test_blocking_world_ships_each_transpose_whole(self):
        """Chunking a transpose that completes at its post only multiplies
        its latencies, so a blocking world posts one message per transpose
        whatever ``n_stages`` says; an overlapping world posts one per
        chunk."""
        n = 8

        def fn(comm):
            fft = DistributedFFT(comm, n, n_stages=4)
            xs, xe = slab_bounds(n, comm.size, comm.rank)
            fft.inverse(fft.forward(np.ones((xe - xs, n, n), dtype=complex)))

        calls = {}
        for blocking in (True, False):
            world = World(2, blocking=blocking)
            world.run(fn)
            calls[blocking] = world.stats.collective_calls
        assert calls == {True: 2 * 2, False: 2 * 2 * 4}

    def test_pipeline_deeper_than_grid_clamps(self):
        n = 4

        def fn(comm):
            fft = DistributedFFT(comm, n, n_stages=9)
            f = np.arange(n**3, dtype=complex).reshape(n, n, n)
            xs, xe = slab_bounds(n, comm.size, comm.rank)
            return fft.forward(f[xs:xe])

        got = np.concatenate(World(2).run(fn), axis=1)
        f = np.arange(n**3, dtype=complex).reshape(n, n, n)
        np.testing.assert_allclose(got, np.fft.fftn(f), atol=1e-10)


def _mixed_ics(box=120.0, n=8, seed=3):
    """Interleaved DM + gas grids with small random perturbations."""
    rng = np.random.default_rng(seed)
    g = (np.arange(n) + 0.5) * box / n
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    dm = np.mod(grid + rng.normal(0, 0.8, grid.shape), box)
    gas_pos = np.mod(grid + box / (2 * n) + rng.normal(0, 0.8, grid.shape), box)
    pos = np.vstack([dm, gas_pos])
    vel = rng.normal(0, 20.0, pos.shape)
    mass = np.full(len(pos), 1.0e10)
    u = np.full(len(pos), 1.0e4)
    gas = np.zeros(len(pos), dtype=bool)
    gas[len(dm):] = True
    return pos, vel, mass, u, gas


def _mixed_config(box=120.0, **kw):
    defaults = dict(
        box=box, pm_grid=32, a_init=0.3, a_final=0.32, n_pm_steps=1,
        cosmo=PLANCK18, r_split_cells=1.0, hydro=True,
        sph_h=1.6 * box / 14,
    )
    defaults.update(kw)
    return DistributedConfig(**defaults)


class TestOverlapBitIdentity:
    """The 2-rank mixed DM + gas case is the golden class
    ``dist_faces_mixed_r2`` (tests/integration/test_golden_hashes.py)."""

    def test_gravity_only_overlap_equals_blocking_four_ranks(self):
        box = 100.0
        ics = zeldovich_ics(8, box, PLANCK18, a_init=0.2, seed=17)
        mass = np.full(8**3, ics.particle_mass)
        out = {}
        for mode in ("blocking", "overlap"):
            cfg = DistributedConfig(
                box=box, pm_grid=32, a_init=0.2, a_final=0.3, n_pm_steps=2,
                cosmo=PLANCK18, r_split_cells=1.0, comm_mode=mode,
            )
            out[mode] = DistributedSimulation(cfg, 4).run(
                ics.positions, ics.velocities, mass
            )
        for a, b in zip(out["blocking"], out["overlap"]):
            assert np.array_equal(a, b)

    def test_overlap_waits_less_under_fabric_latency(self):
        """A nonzero simulated wire time only delays transfers (the bits
        are the golden class's latency cell); blocking spends strictly
        more rank-time waiting on the same traffic."""
        pos, vel, mass, u, gas = _mixed_ics()
        waits = {}
        for mode in ("blocking", "overlap"):
            cfg = _mixed_config(comm_mode=mode, net_latency_s=0.02)
            sim = DistributedSimulation(cfg, 2)
            sim.run(pos, vel, mass, u=u, gas=gas)
            waits[mode] = sum(sim.traffic.wait_seconds.values())
        assert waits["overlap"] < waits["blocking"]

    def test_overlap_matches_serial_reference(self):
        """Overlap at 2 ranks still matches 1 rank to roundoff (the
        original distributed-equals-serial contract survives the split)."""
        box = 100.0
        ics = zeldovich_ics(8, box, PLANCK18, a_init=0.2, seed=17)
        mass = np.full(8**3, ics.particle_mass)
        cfg1 = DistributedConfig(
            box=box, pm_grid=32, a_init=0.2, a_final=0.3, n_pm_steps=2,
            cosmo=PLANCK18, r_split_cells=1.0,
        )
        cfg2 = DistributedConfig(
            box=box, pm_grid=32, a_init=0.2, a_final=0.3, n_pm_steps=2,
            cosmo=PLANCK18, r_split_cells=1.0, comm_mode="overlap",
        )
        p1, v1, _ = DistributedSimulation(cfg1, 1).run(
            ics.positions, ics.velocities, mass
        )
        p2, v2, _ = DistributedSimulation(cfg2, 2).run(
            ics.positions, ics.velocities, mass
        )
        d = p1 - p2
        d -= box * np.round(d / box)
        assert np.abs(d).max() < 1e-8
        np.testing.assert_allclose(v1, v2, atol=1e-8)


class TestCommModeIsOnePlace:
    """``comm_mode`` configures the World and nothing else."""

    #: (collective_calls, collective_bytes) of blocking runs, measured on
    #: the two-engine code before blocking became the fenced overlap
    #: schedule: the schedule change must not change what is shipped.
    #: Gravity-only runs post no drift-bound reduction: their split is by
    #: pair and needs no bound
    BLOCKING_TRAFFIC = {
        ("gravity", 2): (104, 10590408),
        ("gravity", 4): (208, 12275696),
        ("gravity+crksph", 2): (74, 7351706),
        ("gravity+crksph", 4): (148, 8581416),
    }

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_blocking_traffic_is_pinned(self, n_ranks):
        box = 100.0
        ics = zeldovich_ics(8, box, PLANCK18, a_init=0.2, seed=17)
        cfg = DistributedConfig(
            box=box, pm_grid=32, a_init=0.2, a_final=0.3, n_pm_steps=2,
            cosmo=PLANCK18, r_split_cells=1.0, comm_mode="blocking",
        )
        grav = DistributedSimulation(cfg, n_ranks)
        grav.run(ics.positions, ics.velocities,
                 np.full(8**3, ics.particle_mass))
        pos, vel, mass, u, gas = _mixed_ics()
        crk = DistributedSimulation(_mixed_config(comm_mode="blocking"),
                                    n_ranks)
        crk.run(pos, vel, mass, u=u, gas=gas)
        for name, sim in (("gravity", grav), ("gravity+crksph", crk)):
            t = sim.traffic
            assert (t.collective_calls, t.collective_bytes) == \
                self.BLOCKING_TRAFFIC[name, n_ranks], name

    def test_only_the_world_reads_the_mode(self):
        """AST guard: in ``repro.parallel``, ``comm_mode`` appears only in
        ``DistributedConfig`` and as an argument of the ``World(...)`` /
        ``StepRecord(...)`` constructions, and outside ``comm.py``
        ``.blocking`` is read only to pick the ``_z_chunks`` count."""

        def reads(tree, attr):
            """(line, enclosing class names + enclosing call names)."""
            out = []

            def walk(node, ctx):
                if isinstance(node, ast.ClassDef):
                    ctx = ctx | {node.name}
                if isinstance(node, ast.Call):
                    fn = node.func
                    ctx = ctx | {getattr(fn, "attr", getattr(fn, "id", ""))}
                if isinstance(node, ast.Attribute) and node.attr == attr:
                    out.append((node.lineno, ctx))
                for child in ast.iter_child_nodes(node):
                    walk(child, ctx)

            walk(tree, frozenset())
            return out

        n_seen = 0
        for path in sorted(Path(repro.parallel.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            n_seen += len(reads(tree, "comm_mode") + reads(tree, "blocking"))
            for line, ctx in reads(tree, "comm_mode"):
                assert ctx & {"DistributedConfig", "World", "StepRecord"}, \
                    f"{path.name}:{line} branches on comm_mode"
            if path.name != "comm.py":
                for line, ctx in reads(tree, "blocking"):
                    assert "_z_chunks" in ctx, \
                        f"{path.name}:{line} reads the world's comm mode"
        assert n_seen >= 5  # the walker is not blind
        assert not hasattr(DistributedFFT(World(1).comm(0), 4), "mode")


class TestInstrumentation:
    def test_step_records_carry_comm_wait_and_mode(self):
        pos, vel, mass, u, gas = _mixed_ics()
        cfg = _mixed_config(comm_mode="overlap")
        sim = DistributedSimulation(cfg, 2)
        sim.run(pos, vel, mass, u=u, gas=gas)
        assert len(sim.step_records) == cfg.n_pm_steps
        rec = sim.step_records[0]
        assert rec.comm_mode == "overlap"
        assert set(rec.comm_wait) == {"short_range", "long_range", "migration"}
        assert all(w >= 0.0 for w in rec.comm_wait.values())
        assert set(rec.timers) == set(rec.comm_wait)
        # comm wait is a portion of the phase wall time, never more
        for phase, wall in rec.timers.items():
            assert rec.comm_wait[phase] <= wall + 1e-9

    def test_traffic_stats_have_per_rank_counters(self):
        pos, vel, mass, u, gas = _mixed_ics()
        cfg = _mixed_config()
        sim = DistributedSimulation(cfg, 2)
        sim.run(pos, vel, mass, u=u, gas=gas)
        assert sim.traffic is not None
        assert set(sim.traffic.bytes_by_rank) == {0, 1}
        assert all(b > 0 for b in sim.traffic.bytes_by_rank.values())
        assert all(w >= 0.0 for w in sim.traffic.wait_seconds.values())
