"""Cache-aware job runner: one :class:`SimJob` -> one finished universe.

Builds a real :class:`~repro.core.simulation.Simulation` (or, for
``ranks > 0``, a :class:`~repro.parallel.distributed_sim.DistributedSimulation`)
from a job, sourcing every run-independent artifact through the shared
:class:`~repro.campaign.cache.ArtifactCache`:

- the sigma8-normalized linear power spectrum (quadrature normalization),
- the Zel'dovich/2LPT initial conditions (field realization FFTs),
- the PM Green's-function spectral tables (grid-sized rfft arrays).

Cached values are frozen; everything handed to the simulation is copied
first, so a warm-cache run is bit-identical to a cold one (asserted by
the cache-correctness tests and the throughput bench ablation).
"""

from __future__ import annotations

# wall_seconds IS the tenant's billable cost — whole-job wall time is the
# measured quantity here, not a phase inside a step
# sanitize: allow-file-clock-discipline

import hashlib
import time

import numpy as np

from ..core.gravity.pm import shared_green_tables, green_tables_nbytes
from ..core.particles import Particles, Species, make_gas_dm_pair
from ..core.simulation import Simulation, SimulationConfig
from ..cosmology.initial_conditions import zeldovich_ics
from ..cosmology.power_spectrum import LinearPower
from ..observe import Observatory
from .cache import ArtifactCache, greens_key, ic_key, power_key
from .jobs import JobResult, SimJob


class JobCancelled(RuntimeError):
    """A running job hit its deadline or was cancelled by the engine.

    Cancellation is cooperative and lands at step boundaries: the runner
    installs a per-step hook (serial ``io_hooks`` / distributed
    ``step_hooks``) that raises this once the job's ``deadline_s`` has
    elapsed or its cancel event is set.  The scheduler records the job
    under the ``cancelled`` terminal state — distinct from ``failed``,
    and exempt from retry re-admission.
    """


def state_hash(**arrays) -> str:
    """sha256 over named particle arrays — the bit-identity fingerprint."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = arrays[name]
        if arr is None:
            continue
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _linear_power(job: SimJob, cache: ArtifactCache | None) -> LinearPower:
    if cache is None:
        return LinearPower(job.cosmo)
    return cache.get_or_build(
        "power", power_key(job.cosmo),
        lambda: LinearPower(job.cosmo), nbytes=1024,
    )


def _initial_conditions(job: SimJob, cache: ArtifactCache | None,
                        power: LinearPower):
    def build():
        return zeldovich_ics(
            job.n_per_dim, job.box, job.cosmo, a_init=job.a_init,
            seed=job.seed, order=job.lpt_order, power=power,
        )

    if cache is None:
        return build()
    key = ic_key(job.n_per_dim, job.box, job.cosmo, job.a_init,
                 job.seed, job.lpt_order)
    return cache.get_or_build("ics", key, build)


def _cache_green_tables(cfg: SimulationConfig, cache: ArtifactCache) -> None:
    """Route the job's spectral tables through the artifact cache.

    The tables themselves live in the pm module memo (shared across every
    solver in the process, the job's own ``Simulation.pm`` included);
    the lookup makes campaign cache counters see greens hits/misses and
    subjects the entry to the campaign LRU byte budget.

    This double-books the memo on purpose for now: the end-to-end
    benchmark's ``campaign_sweep`` reference pins the artifact cache's
    hit/miss counts with the "greens" lookups included, so dropping the
    lookup here is a benchmark change (ROADMAP subtraction audit (c),
    cache-owner half).
    """
    n = cfg.pm_grid
    box = float(cfg.box_array[0])
    cache.get_or_build(
        "greens", greens_key(n, box, cfg.r_split),
        lambda: shared_green_tables(n, box, cfg.r_split),
        nbytes=green_tables_nbytes(n),
    )


def build_simulation(job: SimJob, cache: ArtifactCache | None = None,
                     observe: Observatory | None = None) -> Simulation:
    """Construct the serial driver for a job through the artifact cache."""
    observe = observe if observe is not None else Observatory()
    tracer = observe.tracer
    with tracer.span("campaign/power", cat="campaign"):
        power = _linear_power(job, cache)
    with tracer.span("campaign/ics", cat="campaign"):
        ics = _initial_conditions(job, cache, power)
    with tracer.span("campaign/build", cat="campaign"):
        if job.hydro:
            parts = make_gas_dm_pair(
                ics.positions, ics.velocities, ics.particle_mass,
                job.cosmo.omega_b, job.cosmo.omega_m,
                u_init=job.u_init, box=job.box,
            )
        else:
            n = len(ics.positions)
            parts = Particles(
                pos=ics.positions.copy(),
                vel=ics.velocities.copy(),
                mass=np.full(n, ics.particle_mass),
                species=np.full(n, int(Species.DARK_MATTER), dtype=np.int8),
                u=np.zeros(n),
            )
        cfg = SimulationConfig(
            box=job.box, pm_grid=job.pm_grid, a_init=job.a_init,
            a_final=job.a_final, n_pm_steps=job.n_pm_steps,
            cosmo=job.cosmo, hydro=job.hydro, subgrid=job.subgrid,
            max_rung=job.max_rung, seed=job.seed,
        )
        if cfg.gravity and cache is not None:
            _cache_green_tables(cfg, cache)
        return Simulation(cfg, parts, observe=observe)


def _cancel_guard(job: SimJob, cancel_event, t0: float):
    """A zero-arg poll raising :class:`JobCancelled` when the job should
    stop: engine-side cancel event, or wall deadline exceeded."""
    deadline = t0 + job.deadline_s if job.deadline_s > 0 else None

    def check():
        if cancel_event is not None and cancel_event.is_set():
            raise JobCancelled(f"job {job.name!r} cancelled by the engine")
        if deadline is not None and time.perf_counter() > deadline:
            raise JobCancelled(
                f"job {job.name!r} exceeded its {job.deadline_s}s deadline"
            )

    return check


def _run_serial(job: SimJob, cache, observe, check=None) -> tuple[dict, int]:
    sim = build_simulation(job, cache, observe)
    if check is not None:
        sim.io_hooks.append(lambda _sim, _record: check())
    with observe.tracer.span("campaign/run", cat="campaign"):
        records = sim.run()
    p = sim.particles
    state = {"pos": p.pos, "vel": p.vel, "u": p.u, "mass": p.mass,
             "species": p.species}
    return state, len(records)


def _run_distributed(job: SimJob, cache, observe, check=None
                     ) -> tuple[dict, int]:
    from ..parallel.distributed_sim import (
        DistributedConfig,
        DistributedSimulation,
    )

    power = _linear_power(job, cache)
    ics = _initial_conditions(job, cache, power)
    # r_split_cells=1.0 keeps the short-range cutoff inside half a rank
    # domain for multi-rank decompositions of campaign-sized boxes
    cfg = DistributedConfig(
        box=job.box, pm_grid=job.pm_grid, a_init=job.a_init,
        a_final=job.a_final, n_pm_steps=job.n_pm_steps, cosmo=job.cosmo,
        hydro=False, r_split_cells=1.0,
    )
    sim = DistributedSimulation(cfg, n_ranks=job.ranks, observe=observe)
    if check is not None:
        # step boundaries on every rank; the raise aborts the world and
        # surfaces wrapped in a CommError (the scheduler unwraps the
        # __cause__ chain back to JobCancelled)
        sim.step_hooks.append(lambda _comm, _istep, _a, _my: check())
    with observe.tracer.span("campaign/run", cat="campaign"):
        n = len(ics.positions)
        pos, vel, ids = sim.run(
            ics.positions.copy(), ics.velocities.copy(),
            np.full(n, ics.particle_mass),
        )
    order = np.argsort(ids)  # canonical input order for the state hash
    state = {"pos": pos[order], "vel": vel[order]}
    return state, len(sim.step_records)


def run_job(job: SimJob, cache: ArtifactCache | None = None,
            observe: Observatory | None = None, worker: int = -1,
            keep_state: bool = False, cancel_event=None) -> JobResult:
    """Drive one job to completion; raises are left to the caller."""
    observe = observe if observe is not None else Observatory()
    t0 = time.perf_counter()
    check = (_cancel_guard(job, cancel_event, t0)
             if (cancel_event is not None or job.deadline_s > 0) else None)
    if job.ranks > 0:
        state, n_steps = _run_distributed(job, cache, observe, check)
    else:
        state, n_steps = _run_serial(job, cache, observe, check)
    wall = time.perf_counter() - t0
    sim_gyr = float(job.cosmo.age(job.a_final) - job.cosmo.age(job.a_init))
    return JobResult(
        job=job,
        status="completed",
        worker=worker,
        wall_seconds=wall,
        sim_gyr=sim_gyr,
        n_steps=n_steps,
        n_particles=job.n_particles if job.ranks == 0 else job.n_per_dim**3,
        state_hash=state_hash(**state),
        state={k: v.copy() for k, v in state.items()} if keep_state else None,
    )
