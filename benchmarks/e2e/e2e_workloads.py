"""The four end-to-end workloads: inputs from a seed, set-up, run, checks.

Each workload is a class with the same three-phase shape the run protocol
(:mod:`e2e_protocol`) times separately:

- ``setup(seed, size, workdir, observe)`` builds the inputs from the seed
  and constructs the driver/engine (``setup_s``);
- ``run(ctx)`` is the time to solution (``run_wall_s``) and stamps every
  PM-step boundary from the benchmark's own hook;
- ``finish(ctx)`` reads results back (checkpoint read, reports), computes
  the summary statistics the reference check compares, the invariant
  checks, and the per-layer figures that come from public result fields
  (source **C** in the README's tables).

The program only ever receives arrays and configs; nothing here reaches
into a private name of ``repro``.

The names this module calls through ``cosmology.`` and ``iosim.`` are
wrapped by :mod:`e2e_trace` in a traced pass; calling them through their
package keeps the benchmark's own calls inside the spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro import cosmology, iosim
from repro.analysis import InSituPipeline
from repro.campaign import ArtifactCache, CampaignEngine, SimJob, job_from_dict
from repro.core.particles import Particles, Species, make_gas_dm_pair
from repro.core.simulation import Simulation, SimulationConfig
from repro.core.sph.eos import IdealGasEOS
from repro.cosmology import PLANCK18
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)

SEDOV_XI0 = 1.15  # similarity constant for gamma = 5/3


@dataclass
class PassResult:
    """What one pass leaves behind for the protocol to aggregate."""

    #: wall seconds of each PM step (campaign: per-job wall / steps of the
    #: warm pass)
    step_s: list
    #: sum over completed PM steps of the particles advanced
    particle_steps: int
    #: PM steps (campaign: jobs) attempted / not completed
    attempted: int
    failed: int
    #: summary statistics compared against reference.json and pass 0
    stats: dict
    #: named invariant checks, True = holds
    checks: dict
    #: per-layer metrics read from public result fields (source C)
    layer: dict = field(default_factory=dict)


def _momentum_residual(mass, vel) -> float:
    """|sum m v| relative to sum m |v| (0 = perfectly balanced)."""
    p = (mass[:, None] * vel).sum(axis=0)
    scale = float((mass * np.sqrt(np.einsum("na,na->n", vel, vel))).sum())
    return float(np.sqrt(p @ p) / max(scale, 1e-300))


def _rms_displacement(pos, pos0, box) -> float:
    d = pos - pos0
    d -= box * np.round(d / box)
    return float(np.sqrt(np.einsum("na,na->n", d, d).mean()))


def _is_permutation(ids, n) -> bool:
    return len(ids) == n and bool(np.array_equal(np.sort(ids), np.arange(n)))


def _timestep_fields(records) -> dict:
    """core.timestep figures from the records' SubcycleStats."""
    stats = [r.subcycle for r in records]
    return {
        "core.timestep.substeps": sum(r.n_substeps for r in records),
        "core.timestep.force_evals": sum(
            s.n_force_evaluations for s in stats),
        "core.timestep.active_frac": (
            sum(s.n_active_total for s in stats)
            / max(sum(s.n_force_evaluations * s.n_particles for s in stats), 1)
        ),
    }


def _serial_layer_fields(sim: Simulation, records) -> dict:
    """Per-layer figures the serial driver publishes on its records."""
    return {
        "core.gravity.pm_evals": sim.pm.n_evaluations if sim.pm else 0,
        "core.subgrid.s": sum(r.timers["subgrid"] for r in records),
        **_timestep_fields(records),
    }


class _StepClock:
    """Stamps PM-step boundaries from a driver hook."""

    def __init__(self):
        self.marks = []

    def start(self):
        self.marks = [time.perf_counter()]

    def stamp(self, *_):
        self.marks.append(time.perf_counter())

    @property
    def step_s(self):
        return list(np.diff(self.marks))


class Workload:
    """What the protocol reads off a workload besides its three phases."""

    name: str
    why: str  # one line, copied into BENCHMARK.json
    sizes: dict  # scale ("full"/"smoke") -> size keywords of ``setup``
    #: also measure one pass per traced cycle under the program's own
    #: ``Observatory(tracing=True)`` (observe.tracing_overhead_frac)
    observe_pass = False
    #: ``run()`` executes on rank threads with no wrapped driver span, so
    #: the layer budget takes ``driver_self`` from the run wall
    rank_threads = False


class CosmoFullSerial(Workload):
    name = "cosmo_full_serial"
    why = ("flagship serial path: PM + tree gravity + CRKSPH + subgrid with "
           "in situ analysis and a checkpoint every step; the only workload "
           "where analysis, iosim, core.subgrid and cosmology ICs do work")
    observe_pass = True
    sizes = {
        "full": dict(n_per_dim=8, pm_grid=16, n_pm_steps=4, a_final=0.32),
        "smoke": dict(n_per_dim=6, pm_grid=12, n_pm_steps=2, a_final=0.26),
    }
    #: 40, not the quickstart's 20: with 8^3 modes the pair counts of two
    #: realizations differ by +-11 % in a 20 Mpc/h box and by +-6 % in this
    #: one (20 seeds), and the driver compares runs of different seeds
    BOX = 40.0
    A_INIT = 0.2

    def setup(self, seed, size, workdir, observe=None):
        ics = cosmology.zeldovich_ics(size["n_per_dim"], self.BOX, PLANCK18,
                                      a_init=self.A_INIT, seed=seed)
        parts = make_gas_dm_pair(
            ics.positions, ics.velocities, ics.particle_mass,
            PLANCK18.omega_b, PLANCK18.omega_m, u_init=20.0, box=self.BOX,
        )
        cfg = SimulationConfig(
            box=self.BOX, pm_grid=size["pm_grid"], r_split_cells=1.0,
            a_init=self.A_INIT, a_final=size["a_final"],
            n_pm_steps=size["n_pm_steps"], cosmo=PLANCK18, subgrid=True,
            max_rung=3, seed=seed,
        )
        sim = Simulation(cfg, parts, observe=observe)
        ctx = SimpleNamespace(sim=sim, pos0=parts.pos.copy(), ckpt=[],
                              ckpt_bytes=0, clock=_StepClock())
        pipeline = InSituPipeline(n_grid=16, min_members=8)
        sim.insitu_hooks.append(pipeline)
        ctx.pipeline = pipeline

        def checkpoint(sim, record):
            path = str(Path(workdir) / f"cosmo_step{record.step:03d}.gio")
            ctx.ckpt_bytes += iosim.write_checkpoint(
                path, sim.particles, a=record.a, step=record.step)
            ctx.ckpt.append(path)
            ctx.clock.stamp()

        sim.io_hooks.append(checkpoint)
        return ctx

    def run(self, ctx):
        ctx.clock.start()
        ctx.records = ctx.sim.run()

    def finish(self, ctx) -> PassResult:
        sim, p, records = ctx.sim, ctx.sim.particles, ctx.records
        restored, meta = iosim.read_checkpoint(ctx.ckpt[-1])
        checks = {
            "ids_are_permutation": _is_permutation(p.ids, len(p)),
            "state_finite": bool(np.isfinite(p.pos).all()
                                 and np.isfinite(p.vel).all()
                                 and np.isfinite(p.u).all()),
            "checkpoint_round_trip": bool(
                np.array_equal(restored.pos, p.pos)
                and np.array_equal(restored.u, p.u)
                and meta["step"] == records[-1].step),
            "one_report_per_step": len(ctx.pipeline.reports) == len(records),
        }
        stats = {
            "rms_displacement": _rms_displacement(p.pos, ctx.pos0, self.BOX),
            "kinetic_energy": p.kinetic_energy(),
            "internal_energy": p.internal_energy(),
            "momentum_residual": _momentum_residual(p.mass, p.vel),
            "n_substeps": sum(r.n_substeps for r in records),
            "n_pairs": sum(r.subcycle.n_pairs for r in records),
            "n_halos": sum(r.n_halos for r in ctx.pipeline.reports),
        }
        layer = _serial_layer_fields(sim, records)
        layer["analysis.halos"] = stats["n_halos"]
        layer["iosim.checkpoint_bytes"] = ctx.ckpt_bytes
        return PassResult(
            step_s=ctx.clock.step_s,
            particle_steps=sum(r.n_particles for r in records),
            attempted=sim.config.n_pm_steps,
            failed=sim.config.n_pm_steps - len(records),
            stats=stats, checks=checks, layer=layer,
        )


class SedovHydro(Workload):
    name = "sedov_hydro"
    why = ("Sedov blast, static box: CRKSPH and the pair cache do >95% of the "
           "work, gravity/analysis/iosim/parallel/campaign none; bypass for "
           "gravity and comm changes, claim workload for core.sph/scatter")
    sizes = {
        "full": dict(n_per_dim=12, n_pm_steps=3, t_end=0.06),
        "smoke": dict(n_per_dim=8, n_pm_steps=2, t_end=0.06),
    }
    BOX = 2.0
    E_BLAST = 10.0

    def setup(self, seed, size, workdir, observe=None):
        n = size["n_per_dim"]
        rng = np.random.default_rng(seed)
        spacing = self.BOX / n
        coords = (np.arange(n) + 0.5) * spacing
        grid = np.stack(np.meshgrid(coords, coords, coords, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        pos = np.mod(grid + 0.05 * spacing * rng.uniform(-1, 1, grid.shape),
                     self.BOX)
        mass = np.full(len(pos), spacing**3)  # rho = 1
        u = np.full(len(pos), 1e-4)  # cold background
        center = np.full(3, self.BOX / 2.0)
        d = pos - center
        hot = np.argsort(np.einsum("na,na->n", d, d))[:8]
        u[hot] += self.E_BLAST / (8 * mass[0])
        parts = Particles(
            pos=pos, vel=np.zeros_like(pos), mass=mass,
            species=np.full(len(pos), int(Species.GAS), dtype=np.int8), u=u,
        )
        cfg = SimulationConfig(
            box=self.BOX, pm_grid=8, a_init=0.0, a_final=size["t_end"],
            n_pm_steps=size["n_pm_steps"], gravity=False, hydro=True,
            static=True, max_rung=4, n_neighbors=32, cfl=0.15, seed=seed,
        )
        sim = Simulation(cfg, parts, observe=observe)
        sim.eos = IdealGasEOS(gamma=5.0 / 3.0)
        ctx = SimpleNamespace(sim=sim, pos0=pos.copy(), clock=_StepClock(),
                              center=center, t_end=size["t_end"])
        sim.io_hooks.append(ctx.clock.stamp)
        return ctx

    def run(self, ctx):
        ctx.clock.start()
        ctx.records = ctx.sim.run()

    def _shock_radius(self, p, center):
        """Radius of peak mean radial velocity (the Sedov test's estimate)."""
        d = p.pos - center
        d -= self.BOX * np.round(d / self.BOX)
        r = np.sqrt(np.einsum("na,na->n", d, d))
        vr = np.einsum("na,na->n", p.vel, d) / np.maximum(r, 1e-12)
        edges = np.linspace(0.05, self.BOX / 2, 24)
        which = np.digitize(r, edges) - 1
        prof = np.zeros(len(edges) - 1)
        for i in range(len(prof)):
            sel = which == i
            if sel.any():
                prof[i] = vr[sel].mean()
        return float(0.5 * (edges[:-1] + edges[1:])[int(np.argmax(prof))])

    def finish(self, ctx) -> PassResult:
        sim, p, records = ctx.sim, ctx.sim.particles, ctx.records
        r_shock = self._shock_radius(p, ctx.center)
        r_exact = SEDOV_XI0 * (self.E_BLAST * ctx.t_end**2) ** 0.2
        e_tot = p.kinetic_energy() + p.internal_energy()
        checks = {
            "ids_are_permutation": _is_permutation(p.ids, len(p)),
            "state_finite": bool(np.isfinite(p.pos).all()
                                 and np.isfinite(p.vel).all()),
            "shock_radius_within_20pct": abs(r_shock / r_exact - 1.0) <= 0.20,
            "energy_within_25pct": abs(e_tot / self.E_BLAST - 1.0) <= 0.25,
        }
        stats = {
            "rms_displacement": _rms_displacement(p.pos, ctx.pos0, self.BOX),
            "kinetic_energy": p.kinetic_energy(),
            "internal_energy": p.internal_energy(),
            "momentum_residual": _momentum_residual(p.mass, p.vel),
            "shock_radius": r_shock,
            "n_substeps": sum(r.n_substeps for r in records),
            "n_pairs": sum(r.subcycle.n_pairs for r in records),
        }
        return PassResult(
            step_s=ctx.clock.step_s,
            particle_steps=sum(r.n_particles for r in records),
            attempted=sim.config.n_pm_steps,
            failed=sim.config.n_pm_steps - len(records),
            stats=stats, checks=checks,
            layer=_serial_layer_fields(sim, records),
        )


class Dist2Clustered(Workload):
    name = "dist2_clustered"
    why = ("2-rank gravity-only grid plus heavy clump on a simulated fabric: "
           "parallel.comm/swfft/overload and the rank driver carry the run, "
           "core.sph does nothing; wire time near host compute")
    observe_pass = True
    rank_threads = True
    sizes = {
        "full": dict(n_side=10, n_blob=64, n_pm_steps=12),
        "smoke": dict(n_side=8, n_blob=48, n_pm_steps=2),
    }
    BOX = 120.0
    N_RANKS = 2
    LATENCY_S = 0.002
    GB_PER_S = 1.0

    def setup(self, seed, size, workdir, observe=None):
        rng = np.random.default_rng(seed)
        n_side = size["n_side"]
        g = (np.arange(n_side) + 0.5) * self.BOX / n_side
        grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
        dm = np.mod(grid.reshape(-1, 3)
                    + rng.normal(0, 1.0, (n_side**3, 3)), self.BOX)
        blob = 75.0 + 0.5 * rng.standard_normal((size["n_blob"], 3))
        pos = np.vstack([dm, blob])
        vel = rng.normal(0, 25.0, pos.shape)
        mass = np.full(len(pos), 1.0e10)
        mass[len(dm):] = 2.0e12
        n_steps = size["n_pm_steps"]
        cfg = DistributedConfig(
            box=self.BOX, pm_grid=32, r_split_cells=1.0, a_init=0.30,
            a_final=0.30 + 0.01 * n_steps, n_pm_steps=n_steps,
            cosmo=PLANCK18, comm_mode="overlap", subcycle=True,
            active_set=True, max_rung=3, net_latency_s=self.LATENCY_S,
            net_gb_per_s=self.GB_PER_S,
        )
        sim = DistributedSimulation(cfg, self.N_RANKS, observe=observe)
        ctx = SimpleNamespace(sim=sim, pos0=pos.copy(), vel0=vel, mass=mass,
                              clock=_StepClock())

        def stamp(comm, istep, a, my):
            if comm.rank == 0:
                ctx.clock.stamp()

        sim.step_hooks.append(stamp)
        return ctx

    def run(self, ctx):
        ctx.clock.start()
        ctx.out = ctx.sim.run(ctx.pos0.copy(), ctx.vel0.copy(),
                              ctx.mass.copy())

    def finish(self, ctx) -> PassResult:
        sim, cfg = ctx.sim, ctx.sim.config
        pos, vel, ids = ctx.out
        records = sim.step_records
        n = len(ctx.mass)
        checks = {
            "ids_are_permutation": _is_permutation(ids, n),
            "state_finite": bool(np.isfinite(pos).all()
                                 and np.isfinite(vel).all()),
            "global_particle_count": all(
                r.subcycle.n_particles == n for r in records),
            "one_pm_solve_per_rank_step": bool(
                (sim.pm_eval_counts == len(records) + 1).all()),
        }
        stats = {
            "rms_displacement": _rms_displacement(pos, ctx.pos0, self.BOX),
            "kinetic_energy": float(0.5 * np.sum(
                ctx.mass * np.einsum("na,na->n", vel, vel))),
            "momentum_residual": _momentum_residual(ctx.mass, vel),
            "n_substeps": sum(r.n_substeps for r in records),
            "n_pairs": sum(r.subcycle.n_pairs for r in records),
        }
        traffic = sim.traffic
        waits = [traffic.wait_seconds.get(r, 0.0) for r in range(self.N_RANKS)]
        wire = (traffic.collective_calls / self.N_RANKS * self.LATENCY_S
                + traffic.collective_bytes / self.N_RANKS
                / (self.GB_PER_S * 1e9))
        phase = {k: sum(r.timers[k] for r in records)
                 for k in ("short_range", "long_range", "migration")}
        rung = sum(v for r in records for k, v in r.timers.items()
                   if k.startswith("rung/"))
        wait0 = sum(sum(r.comm_wait.values()) for r in records)
        layer = {
            "core.gravity.pm_evals": int(sim.pm_eval_counts.sum()),
            **_timestep_fields(records),
            "parallel.comm.collective_calls": traffic.collective_calls,
            "parallel.comm.collective_bytes": traffic.collective_bytes,
            "parallel.comm.p2p_messages": traffic.p2p_messages,
            "parallel.comm.wait_s_max": max(waits),
            "parallel.comm.wait_s_min": min(waits),
            "parallel.comm.wire_s_computed": wire,
            "parallel.comm.wait_excess_s": max(waits) - wire,
            "parallel.distributed_sim.phase_short_range_s":
                phase["short_range"],
            "parallel.distributed_sim.phase_long_range_s":
                phase["long_range"],
            "parallel.distributed_sim.phase_migration_s": phase["migration"],
            "parallel.distributed_sim.phase_rung_s": rung,
            "parallel.distributed_sim.wait_frac": wait0 / max(
                sum(phase.values()) + rung, 1e-12),
        }
        return PassResult(
            step_s=ctx.clock.step_s,
            particle_steps=n * len(records),
            attempted=cfg.n_pm_steps, failed=cfg.n_pm_steps - len(records),
            stats=stats, checks=checks, layer=layer,
        )


class CampaignSweep(Workload):
    name = "campaign_sweep"
    why = ("closed-loop sweep of small universes on 2 workers, a cold then a "
           "warm pass over one artifact cache: set-up rivals the run, so "
           "campaign scheduling/caching and cosmology dominate")
    sizes = {
        "full": dict(n_sigma8=3, n_seeds=2, n_per_dim=6),
        "smoke": dict(n_sigma8=1, n_seeds=4, n_per_dim=4),
    }
    N_WORKERS = 2

    def _engine(self, cache, observe):
        return CampaignEngine(n_workers=self.N_WORKERS, policy="block",
                              max_queue=64, cache=cache, observe=observe)

    def setup(self, seed, size, workdir, observe=None):
        base = SimJob(n_per_dim=size["n_per_dim"], pm_grid=8, n_pm_steps=1,
                      tenant="sweep")
        sigma8 = np.linspace(0.74, 0.88, size["n_sigma8"])
        jobs = [
            job_from_dict({"name": f"s8-{i}-seed-{k}", "sigma8": float(s8),
                           "seed": seed * 1000 + k}, base=base)
            for i, s8 in enumerate(sigma8) for k in range(size["n_seeds"])
        ]
        cache = ArtifactCache()
        return SimpleNamespace(jobs=jobs, cache=cache,
                               cold=self._engine(cache, observe),
                               warm=self._engine(cache, observe))

    def run(self, ctx):
        ctx.cold_report = ctx.cold.run(ctx.jobs)
        ctx.warm_report = ctx.warm.run(ctx.jobs)

    def finish(self, ctx) -> PassResult:
        cold, warm = ctx.cold_report, ctx.warm_report
        results = cold.results + warm.results
        done = [r for r in results if r.status == "completed"]
        cold_hash = {r.job.name: r.state_hash for r in cold.results}
        warm_hash = {r.job.name: r.state_hash for r in warm.results}
        cache = ctx.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        checks = {
            "all_jobs_admitted": cold.n_rejected + warm.n_rejected == 0,
            "warm_equals_cold_state_hash": (
                cold_hash == warm_hash and len(cold_hash) == len(ctx.jobs)),
            "warm_pass_never_misses": (
                warm.cache_stats["misses"] == cold.cache_stats["misses"]),
        }
        stats = {
            "n_completed": len(done),
            "n_steps": sum(r.n_steps for r in done),
            "sim_gyr": sum(r.sim_gyr for r in done),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
        }
        job_s = np.array([r.wall_seconds for r in done])
        busy = job_s.sum() / (self.N_WORKERS
                              * (cold.wall_seconds + warm.wall_seconds))
        layer = {
            "campaign.cold_pass_s": cold.wall_seconds,
            "campaign.warm_pass_s": warm.wall_seconds,
            "campaign.cache_hits": cache["hits"],
            "campaign.cache_misses": cache["misses"],
            "campaign.cache_hit_ratio": cache["hits"] / max(lookups, 1),
            "campaign.job_s_p50": float(np.percentile(job_s, 50)),
            "campaign.job_s_p85": float(np.percentile(job_s, 85)),
            "campaign.queue_wait_s_p50": float(np.percentile(
                [r.queue_wait_seconds for r in done], 50)),
            "campaign.worker_busy_frac": float(busy),
        }
        return PassResult(
            # warm-pass jobs only: cold jobs carry their cache misses, and
            # the median of the two populations pooled sits in the gap
            # between them and jumps from run to run
            step_s=[r.wall_seconds / r.n_steps for r in warm.results
                    if r.status == "completed"],
            particle_steps=sum(r.n_particles * r.n_steps for r in done),
            attempted=2 * len(ctx.jobs), failed=2 * len(ctx.jobs) - len(done),
            stats=stats, checks=checks, layer=layer,
        )


WORKLOADS = {w.name: w for w in (CosmoFullSerial(), SedovHydro(),
                                 Dist2Clustered(), CampaignSweep())}
