"""Distributed gravity simulation over simulated ranks.

Runs the full CRK-HACC communication pattern at laptop scale: each rank
owns a cuboid subdomain, replicates ghost particles out to the short-range
cutoff (overloading), solves the long-range field with the distributed
slab FFT, evaluates short-range pair forces entirely node-locally, and
migrates particles after each PM step's drift.  One PM step needs exactly
three communication phases — ghost exchange, grid reduction + FFT
transposes, and migration — everything else is rank-local, which is the
design the paper credits for its scalability (Section IV-A).

Every step splits the short-range work into **interior** work, which
reads only owned data and is evaluated between the ghost exchange's post
and its ``wait()``, and **boundary** work, which finishes after it.
Gravity splits by pair: every owned-owned pair is evaluated, for every
sink, before the wait, and the pairs crossing from an owned particle to a
ghost continue the same running sums after it.  Owned rows precede ghosts
in the overloaded frame, so the two passes sum each sink's pairs in the
order of one pass over the overloaded half list, and each pair is
evaluated once.  CRKSPH splits by sink: interior sinks lie outside the
2-hop :meth:`PairCache.hop_closure` of the ghost-adjacent seed zone (a
sink's evaluation reads data three pair-hops out, so two hops from a seed
that may *pair* a ghost bounds the contaminated set).  The seed zone is
``sph_h + drift`` deep, where ``drift`` is the globally allreduced maximum
displacement since the last migration, which bounds how far a ghost can
have wandered into the domain; gravity-only runs post no such reduction.

The driver has one communication schedule: every exchange, reduction and
migration wave is posted as early as its inputs exist, fenced
(:meth:`~repro.parallel.comm.SimComm.fence`) and waited where its result
is first read.  ``comm_mode`` only configures the :class:`World`: a
blocking world completes each group at its fence, an overlapping one
leaves it riding the wire behind the work in between — same partition,
same arithmetic, same bits.

Every rank is a :class:`RankDomain` driven by the one kick-split rung loop
(:class:`~repro.core.timestep.HierarchicalIntegrator`, shared with the
serial driver).  With ``subcycle=True`` rungs are assigned from the
opening forces, the depth is globally reduced, and ``2^depth`` fine
substeps evaluate only the closing rungs' rows (``active_set=True``) via
the rank-local active-sink pair queries; ``subcycle=False`` is depth 0 of
the same loop.  Each substep evaluation is timed under its shallowest
closing rung (``"rung/<r>"`` phase keys, comm-wait alike) and the step's
:class:`~repro.core.timestep.SubcycleStats` are globally reduced into
the :class:`~repro.core.simulation.StepRecord`.  Migration is
two-waved: the closing half-kick only touches ``vel``/``u``, so positions
+ kick-invariant fields ship the moment the final drift lands (maturing
behind the closing evaluation), and the post-kick payload (``vel``,
``u``, cached ``acc_long`` rows) ships after the closing kick and settles
under the next step's opening evaluation.  Subcycled overlap with the
active set is bit-identical to subcycled blocking with full evaluation —
the correctness anchor asserted in tests.

The result is verified (tests) to match the serial ``Simulation`` driver
to floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import G_COSMO, GAMMA_IDEAL
from ..cosmology.background import Cosmology
from ..core.gravity.force_split import recommended_cutoff
from ..core.gravity.pm import (
    build_green_tables,
    cic_deposit,
    cic_interpolate,
)
from ..core.gravity.short_range import PairSums
from ..core.simulation import StepRecord
from ..core.sink_rows import crksph_rows, gravity_rows
from ..core.sph.kernels import get_kernel
from ..core.timestep import (
    HierarchicalIntegrator,
    SubcycleStats,
    a_hubble,
    criteria_rungs,
    deepest_rung,
)
from ..observe import Observatory
from ..observe.taxonomy import DISTRIBUTED_PHASES, MAX_TAXONOMY_RUNG
from ..sanitize.numerics import NumericsSanitizer, kinetic_internal_energy
from ..tree import PairCache
from .comm import World
from .decomposition import make_decomposition
from .overload import GhostExchange, post_migration
from .swfft import DistributedFFT, slab_bounds


@dataclass
class DistributedConfig:
    """Configuration of a distributed run (gravity, optionally + CRKSPH)."""

    box: float
    pm_grid: int = 16
    a_init: float = 0.2
    a_final: float = 0.5
    n_pm_steps: int = 5
    cosmo: Cosmology = None
    r_split_cells: float = 2.0
    softening_cells: float = 0.05
    static: bool = False
    gravity: bool = True
    hydro: bool = False
    #: frozen SPH support radius (Mpc/h); distributed runs use a fixed h so
    #: the overload width is known a priori (serial analog: fixed_h=True)
    sph_h: float = 0.0
    kernel: str = "wendland_c4"
    #: where the waits sit: "blocking" completes every posted group at
    #: its fence, "overlap" leaves it in flight behind the work up to the
    #: consumer's wait.  The two modes are bit-identical (asserted in
    #: tests).
    comm_mode: str = "blocking"
    #: simulated fabric cost (see :class:`~repro.parallel.World`): per-
    #: message latency in seconds plus payload time at ``net_gb_per_s``
    #: GB/s (0 = ideal wire).  Values are unchanged — transfers just take
    #: time, which blocking mode pays idle and overlap mode hides.
    net_latency_s: float = 0.0
    net_gb_per_s: float = 0.0
    #: enable the runtime sanitizers: the comm sanitizer on the World
    #: (request leaks / double-waits, reported at teardown)
    #: and per-rank NaN/Inf + energy checks at phase boundaries
    sanitize: bool = False
    #: hung-rank timeout of ``World.run`` (seconds): a rank making no
    #: progress for this long fails the run with a typed
    #: :class:`~repro.parallel.comm.RankFailure` carrying the rank and
    #: its last-seen phase — the detector input of the resilience layer
    comm_timeout_s: float = 600.0
    #: hierarchical power-of-two subcycling: assign rungs from the opening
    #: forces and run 2^depth fine KDK substeps per PM interval (depth is
    #: the global maximum assigned rung, allreduced so the substep
    #: schedule — and every collective inside it — stays structural).
    #: Off, every particle sits on rung 0: depth 0 of the same loop, one
    #: KDK per PM interval, no depth reduction
    subcycle: bool = False
    #: with ``subcycle``: evaluate only the closing rungs' rows per
    #: substep via active-sink pair queries; ``False`` evaluates everyone
    #: every substep (the bit-identity reference — per-sink rows are
    #: identical regardless of the sink set, so results match bitwise)
    active_set: bool = True
    #: deepest rung the assignment may use (2^max_rung substeps at most)
    max_rung: int = 3
    #: CFL factor of the per-particle timestep criterion (gas rows)
    cfl: float = 0.25
    #: acceleration-criterion prefactor of the timestep criterion
    eta_accel: float = 0.05

    def __post_init__(self) -> None:
        if self.cosmo is None:
            self.cosmo = Cosmology()
        if self.hydro and self.sph_h <= 0:
            raise ValueError("hydro runs need a positive sph_h")
        if self.comm_mode not in ("blocking", "overlap"):
            raise ValueError(f"unknown comm_mode {self.comm_mode!r}")
        if not 0 <= self.max_rung <= MAX_TAXONOMY_RUNG:
            raise ValueError(
                f"max_rung must be in [0, {MAX_TAXONOMY_RUNG}] (the "
                f"registered rung/* phase taxonomy)"
            )

    @property
    def r_split(self) -> float:
        return self.r_split_cells * self.box / self.pm_grid

    @property
    def softening(self) -> float:
        return self.softening_cells * self.box / self.pm_grid

    @property
    def cutoff(self) -> float:
        return recommended_cutoff(self.r_split, tol=1e-4) if self.gravity else 0.0

    @property
    def overload_width(self) -> float:
        """Ghost-region width: the gravity cutoff, or 2x the SPH support
        (ghosts within h of the domain interact with owned particles, and
        *their* CRK neighborhoods reach another h out; with a constant
        support radius 2h is exact, plus a small drift margin)."""
        return max(self.cutoff, 2.05 * self.sph_h if self.hydro else 0.0)


def _face_distance(pos: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Signed distance of each position to its nearest domain face
    (negative once a particle has drifted outside the cuboid)."""
    return np.minimum(pos - lo, hi - pos).min(axis=1)


#: the per-particle arrays a rank owns (``RankDomain.<name>``), in the
#: order step hooks and checkpoints name them
OWNED_FIELDS = ("pos", "vel", "mass", "u", "ids", "gas")


class RankDomain:
    """One rank's owned rows: the stepping core's domain on a rank.

    Implements the domain operations of
    :class:`~repro.core.timestep.HierarchicalIntegrator` on this rank's
    particles — every collective of a PM step is issued from here, so the
    rung loop itself stays rank-count agnostic.  ``owned`` maps ``pos``,
    ``vel``, ``mass``, ``u``, ``ids``, ``gas`` to this rank's rows (the
    object takes ownership of the arrays); the same six names are what
    step hooks see (:meth:`view`).  ``scope`` is the run's metrics prefix,
    shared by every rank of one run.  ``step`` and ``a`` are the run
    state to start from (:meth:`DistributedSimulation.run`).
    """

    def __init__(self, comm, config: DistributedConfig, decomp, owned: dict,
                 observe: Observatory | None = None, scope: str = "dist",
                 fault_plan=None, step: int = 0, a: float | None = None):
        self.comm = comm
        self.cfg = cfg = config
        self.decomp = decomp
        self.observe = observe if observe is not None else Observatory()
        self.scope = scope
        self.fault_plan = fault_plan
        self.tracer = comm.world.tracer
        self.tracer.set_track(comm.rank, f"rank {comm.rank}")
        self._adopt({name: owned[name] for name in OWNED_FIELDS})
        #: unit-coefficient PM acceleration rows for owned particles;
        #: None marks the field stale (positions moved).  Staleness is a
        #: structural decision (set after the drift on every rank alike)
        #: so the collective FFT solve is entered by all ranks together.
        self.acc_long = None
        self.fft = DistributedFFT(comm, cfg.pm_grid) if cfg.gravity else None
        self.kernel = get_kernel(cfg.kernel) if cfg.hydro else None
        # per-rank Verlet caches: the *_own caches cover owned particles
        # only (available before the ghost exchange lands); the overloaded
        # caches cover owned + ghost.  Gravity's owned cache serves every
        # owned-owned pair and its overloaded cache holds only the pairs
        # crossing from an owned row to a ghost (no self rows: the owned
        # pass counted them), so each pair is evaluated once.  CRKSPH's
        # two caches (owned-only and overloaded) serve its interior and
        # boundary sinks.  Ghost ids ride along in the exchange so the
        # caches can tell "same neighborhood, small drift" (reuse) from
        # "membership changed" (rebuild); the owned count is part of the
        # crossing list's membership.  The overload guarantees
        # completeness within the cutoff, so their *non-periodic* neighbor
        # search is exact.
        self.grav_cache = PairCache(box=None, include_self=False)
        self.grav_cache_own = PairCache(box=None)
        self.hydro_cache = PairCache(box=None)
        self.hydro_cache_own = PairCache(box=None)
        self.lo, self.hi = decomp.bounds(comm.rank)
        # hydro only: max displacement of ANY particle since the last
        # migration (globally reduced) bounds how far a ghost can have
        # drifted into this domain, so CRKSPH's interior margin stays
        # sound.  Displacement accumulates over the fine substeps
        # (disp_accum: running sum of per-substep max norms — a
        # conservative bound on any particle's total wander).  Gravity's
        # split is by pair, not by sink, and needs no bound.
        self.drift_req = None
        self.drift_max = 0.0
        self.disp_accum = 0.0
        #: PM density reduction posted behind a short-range evaluation
        self.rho_req = None
        # the in-flight migration: wave 1 posted after the final drift of
        # a step, wave 2 after its closing kick, settled under the next
        # step's opening work
        self.flight = None
        self.flight_id = 0
        self.a = cfg.a_init if a is None else a
        self.first_step = self.istep = step
        self.n_pairs = 0
        #: distributed PM solves this rank entered (one forward + three
        #: gradient FFT sets each)
        self.pm_evals = 0
        self.records: list[StepRecord] = []
        # per-step phase timers and comm-wait attribution live in the
        # run's metrics registry; these are the current step's TimerGroup
        # views (rebound each step, snapshot-free: each step gets fresh
        # instruments under its own prefix)
        self.timers = None
        self.cwait = None
        # numerics tripwire (cfg.sanitize): NaN/Inf + energy blowup checks
        # at the kick/migration phase boundaries of every step
        self.nsan = (
            NumericsSanitizer(context=f"dist rank {comm.rank}")
            if cfg.sanitize
            else None
        )
        self._green = None

    def view(self) -> dict:
        """The owned arrays by name — the ``my`` mapping step hooks get."""
        return {name: getattr(self, name) for name in OWNED_FIELDS}

    # -- driving --------------------------------------------------------------
    def run(self, hooks=()) -> list[StepRecord]:
        """The PM steps left to run, then the last migration settled."""
        try:
            for _ in range(self.first_step, self.cfg.n_pm_steps):
                self.step(hooks)
            self.settle()
        except BaseException:
            # any mid-step failure (peer abort, numerics tripwire) can
            # strand the posted-ahead drift/rho reductions and the
            # in-flight migration waves
            self._cancel_posted_ahead()
            if self.flight is not None:
                self.flight.cancel()  # idempotent, both waves
                self.flight = None
            raise
        return self.records

    def step(self, hooks=()) -> StepRecord:
        """One PM step; its migration stays in flight until the next
        step's opening work (or :meth:`settle`)."""
        cfg = self.cfg
        da = (cfg.a_final - cfg.a_init) / cfg.n_pm_steps
        self.istep = self.first_step + len(self.records)
        step_scope = f"{self.scope}/rank{self.comm.rank}/step{self.istep:05d}"
        self.timers = self.observe.timer_group(
            step_scope, keys=DISTRIBUTED_PHASES
        )
        self.cwait = self.observe.timer_group(
            f"{step_scope}/wait", keys=DISTRIBUTED_PHASES
        )
        self.n_pairs = 0
        fft0 = self.pm_evals
        stats = HierarchicalIntegrator(da, active_set=cfg.active_set).run(
            self, self.a
        )
        stats.n_fft = self.pm_evals - fft0
        self.a = self.a + da

        if self.nsan is not None:
            self.nsan.check_finite(self.istep, "migration",
                                   pos=self.pos, vel=self.vel, u=self.u)
            # global (not per-rank) energy: migration moves particles
            # between ranks, so only the reduced total is step-to-step
            # comparable
            self.nsan.check_energy(self.istep, self.comm.allreduce(
                kinetic_internal_energy(self.mass, self.vel, self.u)
            ))
        record = StepRecord(
            step=self.istep, a=self.a, timers=self.timers,
            n_substeps=stats.n_substeps, deepest_rung=stats.deepest_rung,
            n_particles=stats.n_particles, subcycle=stats, n_fft=stats.n_fft,
            comm_wait=self.cwait, comm_mode=cfg.comm_mode,
        )
        self.records.append(record)
        for name, cache in (("gravity", self.grav_cache),
                            ("gravity_own", self.grav_cache_own),
                            ("hydro", self.hydro_cache),
                            ("hydro_own", self.hydro_cache_own)):
            cache.publish(self.observe.registry, cache=name,
                          rank=self.comm.rank)
        # end-of-step hooks (checkpointers): the closing kick has landed
        # everywhere and migration only re-homes rows, so the union of
        # owned arrays is the complete global state at scale factor ``a``
        for hook in hooks:
            hook(self.comm, self.istep, self.a, self.view())
        return record

    def settle(self) -> None:
        """Complete an in-flight migration under the last step's migration
        timer (the record's timer views are live, so the wait lands in the
        right phase)."""
        if self.flight is not None:
            self._timed("migration", self._settle_migration)
            self._timed("migration", self._finish_payload)

    def _timed(self, phase: str, fn, *fn_args):
        # phase entry doubles as the failure surface: the fault plan's
        # compute kills fire here (typed RankFailure), and the world
        # records the phase so a hung rank's timeout report can say where
        # it was last seen
        rank = self.comm.rank
        world = self.comm.world
        if self.fault_plan is not None:
            self.fault_plan.enter(rank, self.istep, phase)
        world.note_phase(rank, self.istep, phase)
        w0 = world.stats.wait_seconds.get(rank, 0.0)
        with self.timers.time(phase):
            out = fn(*fn_args)
        self.cwait.add(phase, world.stats.wait_seconds.get(rank, 0.0) - w0)
        return out

    def _cancel_posted_ahead(self) -> None:
        """Settle posted-ahead requests on an error path so the comm
        sanitizer's teardown leak report stays clean."""
        if self.drift_req is not None:
            self.drift_req.cancel()
            self.drift_req = None
        if self.rho_req is not None:
            self.rho_req.cancel()
            self.rho_req = None

    # -- stepping-core domain operations --------------------------------------
    def opening_forces(self, a: float):
        # settle the previous step's migration: wave 1 matured behind its
        # closing evaluation and FFT
        if self.flight is not None:
            self._timed("migration", self._settle_migration)
        # A posted-ahead rho reduction is only wanted when no cached (or
        # in-flight migrating) acc_long will serve the opening long-range
        # solve — in steady state that is never, the closing solve of the
        # previous step rides through migration
        open_rho = self.acc_long is None and self.flight is None
        dv_da, du_da, vsig = self._timed(
            "short_range", self._short_forces, a, None, open_rho
        )
        if self.flight is not None:
            # gravity-only: vel/acc_long were not needed until now —
            # wave 2 matured behind the opening work
            self._timed("migration", self._finish_payload)
        return dv_da, du_da, vsig, self.long_range(a)

    def assign_rungs(self, dv_total, vsig, da: float) -> np.ndarray:
        """Rungs from the opening forces (the serial driver's criteria on
        the owned rows: CFL for gas at the fixed support radius,
        acceleration for all); all zero without ``subcycle``."""
        cfg = self.cfg
        if not cfg.subcycle:
            return np.zeros(len(self.pos), dtype=np.int16)
        return criteria_rungs(dv_total, vsig, self.gas & cfg.hydro,
                              cfg.sph_h, a_hubble(cfg, self.a), da, cfg)

    def interval_depth(self, rungs) -> int:
        """Global maximum rung: reduced so every collective inside the
        substep loop is entered by all ranks together.  There is no margin
        for mid-step promotion — the schedule is frozen at assignment, a
        pure function of the opening forces, which is what makes
        active-set overlap runs bit-identical to full-evaluation blocking
        runs."""
        if not self.cfg.subcycle:
            return 0
        return self._timed("short_range", self._reduce_depth, rungs)

    def _reduce_depth(self, rungs) -> int:
        return int(self.comm.allreduce(deepest_rung(rungs), op="max"))

    def check_state(self, label: str) -> None:
        if self.nsan is not None:
            self.nsan.check_finite(self.istep, label,
                                   pos=self.pos, vel=self.vel, u=self.u)

    def drift(self, a_mid: float, dt: float, s: int, nsub: int) -> None:
        cfg = self.cfg
        a_eff = 1.0 if cfg.static else a_mid
        # drift WITHOUT wrapping: a boundary particle that wraps mid-step
        # would teleport across the box and lose its (non-periodic)
        # overloaded neighborhood; migration wraps and re-homes everyone
        # at step end
        disp = self.vel * (dt / (a_eff * a_hubble(cfg, a_mid)))
        self.pos = self.pos + disp
        self.acc_long = None  # positions moved: field stale
        if cfg.hydro:
            d2 = np.einsum("na,na->n", disp, disp)
            # cumulative bound on any particle's total wander since the
            # last migration (sum of per-substep maxima — conservative,
            # keeps CRKSPH's interior margin sound as ghosts drift deeper
            # into the domain over substeps)
            self.disp_accum += float(np.sqrt(d2.max())) if len(d2) else 0.0
            self.drift_req = self.comm.iallreduce(self.disp_accum, op="max")
            self.comm.fence((self.drift_req,))
        if s + 1 == nsub:
            # final destinations are fixed: wave 1 matures behind the
            # full closing evaluation + FFT
            self._timed("migration", self._post_departures)

    def short_range(self, a: float, sinks, closing_rung: int, last: bool):
        # the substep is timed under its shallowest closing rung; only the
        # interval's last evaluation precedes a long-range solve
        phase = "rung/%d" % closing_rung if self.cfg.subcycle \
            else "short_range"
        return self._timed(phase, self._short_forces, a, sinks, last)

    def long_range(self, a: float):
        return self._timed("long_range", self._long_range_dvda, a)

    def reduce_stats(self, stats: SubcycleStats, rungs) -> SubcycleStats:
        """Migrate, then reduce the step's bookkeeping in one sum-reduce:
        active totals, pair rows, particle count, rung histogram (the
        substep schedule is a pure function of the histogram, which is
        what makes StepRecord honesty testable)."""
        if self.nsan is not None:
            self.nsan.check_finite(self.istep, "closing half-kick",
                                   pos=self.pos, vel=self.vel, u=self.u)
        self._timed("migration", self._post_payload)
        hist = np.bincount(rungs.astype(np.int64),
                           minlength=self.cfg.max_rung + 1)
        tot = self.comm.allreduce(np.concatenate((
            [float(stats.n_active_total), float(self.n_pairs),
             float(len(self.pos))],
            hist.astype(np.float64),
        )))
        stats.n_active_total = int(round(tot[0]))
        stats.n_pairs = int(round(tot[1]))
        stats.n_particles = int(round(tot[2]))
        stats.rung_counts = tuple(int(round(x)) for x in tot[3:])
        return stats

    # -- long range -----------------------------------------------------------
    def _long_range_dvda(self, a: float):
        """Long-range dv/da on owned particles at scale factor a.

        The PM acceleration depends on positions only and is linear in the
        source coefficient, so the unit-coefficient field is solved once
        per position state and rescaled per kick.  The closing evaluation
        of one step is reused as the opening of the next (positions are
        unchanged across the boundary; the cached rows ride through
        migration with their particles), halving the distributed FFT count
        in steady state.
        """
        cfg = self.cfg
        if not cfg.gravity:
            return 0.0
        if self.acc_long is None:
            rho = None
            if self.rho_req is not None:
                # reduction posted back in _short_forces: by now it has
                # matured behind the short-range evaluation
                rho = self.rho_req.wait()
                self.rho_req = None
            self.acc_long = self._solve_long_range(rho)
        a_eff = 1.0 if cfg.static else a
        coeff = 4.0 * np.pi * G_COSMO / a_eff
        return self.acc_long * (coeff / a_hubble(cfg, a))

    def _green_tables(self):
        """Spectrally filtered Green's function and wave vectors on this
        rank's y-slab (built on first use)."""
        if self._green is None:
            cfg = self.cfg
            n = cfg.pm_grid
            *kvecs, _, green = build_green_tables(
                n, cfg.box, cfg.r_split, half_z=False,
                y_slab=slab_bounds(n, self.comm.size, self.comm.rank),
            )
            self._green = (green, kvecs)
        return self._green

    def _solve_long_range(self, rho=None) -> np.ndarray:
        """Unit-coefficient distributed PM accelerations at owned positions.

        Deposit is a grid allreduce (every rank contributes its owned
        particles); the Poisson solve + spectral gradient runs on
        slab-decomposed FFTs; acceleration slabs are allgathered for the
        final rank-local CIC interpolation.  Callers may pass a ``rho``
        they reduced earlier (posted behind short-range work).  All three
        gradient-axis inverse transforms share one posting wave
        (``inverse_many``), then each slab gather rides the wire while the
        previous axis' CIC interpolation computes.
        """
        cfg = self.cfg
        comm = self.comm
        fft = self.fft
        n = cfg.pm_grid
        self.pm_evals += 1
        if rho is None:
            rho = comm.allreduce(cic_deposit(self.pos, self.mass, n, cfg.box))
        rho_mean = float(rho.mean())

        xs, xe = slab_bounds(n, comm.size, comm.rank)
        spec = fft.forward((rho - rho_mean)[xs:xe].astype(complex))
        green, kvecs = self._green_tables()
        phik = green * spec
        accel = np.empty((len(self.pos), 3))
        comps = fft.inverse_many(
            [-1j * kvecs[axis] * phik for axis in range(3)]
        )
        reqs = []
        try:
            for c in comps:
                reqs.append(comm.iallgather(c.real))
            comm.fence(reqs)
            for axis in range(3):
                comp = np.concatenate(reqs[axis].wait(), axis=0)
                accel[:, axis] = cic_interpolate(comp, self.pos, cfg.box)
        except BaseException:
            # a failed post or wait must not strand the other gathers
            for req in reqs:
                req.cancel()
            raise
        return accel

    # -- short range ----------------------------------------------------------
    def _short_forces(self, a: float, sinks=None, rho_ahead: bool = True):
        """Short-range (dv/da, du/da, vsig) on owned rows at a.

        Posts the ghost exchange, evaluates the work that reads owned data
        only (the exchange's window to ride the wire: gravity's owned
        pairs, CRKSPH's interior sinks), then completes the rest from the
        overloaded set (gravity's owned-ghost pairs, CRKSPH's boundary
        sinks).  ``sinks`` (sorted owned-row indices) restricts
        evaluation to the active set: per-sink pair rows are identical
        regardless of the sink set, so restricted rows match the full
        evaluation bitwise.
        ``rho_ahead`` marks evaluations that immediately precede a
        long-range solve with genuinely stale ``acc_long``, so the PM
        density reduction can be posted behind this work — subcycle
        substeps and openings with a migration payload in flight must pass
        False or the reduction leaks/mismatches.
        """
        cfg = self.cfg
        # gravity-only runs never read ghost vel/u — don't ship it
        fields = {"mass": self.mass, "ids": self.ids}
        if cfg.hydro:
            fields.update(vel=self.vel, u=self.u, gas=self.gas)
        with self.tracer.span("ghost_exchange/post", cat="driver"):
            exchange = GhostExchange(self.comm, self.pos, fields,
                                     self.decomp, cfg.overload_width)
        try:
            return self._short_forces_posted(a, exchange, sinks, rho_ahead)
        except BaseException:
            # a failure (typically a CommAborted cascade from a peer)
            # between post and wait leaves the exchange and the
            # posted-ahead reductions in flight — settle them
            exchange.cancel()
            self._cancel_posted_ahead()
            raise

    def _short_forces_posted(self, a, exchange, sinks, rho_ahead):
        cfg = self.cfg
        a_eff = 1.0 if cfg.static else a
        ah = a_hubble(cfg, a)
        n_owned = len(self.pos)
        if rho_ahead and cfg.gravity and self.acc_long is None:
            # the PM solve that follows needs the global density at these
            # same positions; post its reduction now so it matures behind
            # the short-range work.  Staleness of acc_long is structural
            # (every rank alike), so every rank posts — the sequence
            # numbers stay matched.
            self.rho_req = self.comm.iallreduce(cic_deposit(
                self.pos, self.mass, cfg.pm_grid, cfg.box
            ))
            self.comm.fence((self.rho_req,))

        if cfg.hydro:
            # -- interior/boundary partition from owned data only --------
            # the partition is structural (positions + drift bound, never
            # force values) and the per-sink pair rows are sink-set
            # independent, so restricting to ``sinks`` is bitwise neutral
            # per evaluated row
            if self.drift_req is not None:
                self.drift_max = float(self.drift_req.wait())
                self.drift_req = None
            drift = self.drift_max
            face = _face_distance(self.pos, self.lo, self.hi)
            gas_rows = np.nonzero(self.gas)[0]
            gpos = self.pos[gas_rows]
            gids = self.ids[gas_rows]
            # seeds: owned gas that may hold a fresh pair with a ghost;
            # the CRKSPH evaluation of a sink reads data 3 pair-hops out,
            # so 2 more hops bound the sinks whose result could touch
            # ghost data
            seeds = face[gas_rows] < cfg.sph_h + drift
            hyd_bnd = self.hydro_cache_own.hop_closure(
                gpos, np.full(len(gas_rows), cfg.sph_h), seeds, hops=2,
                ids=gids,
            )
            if sinks is None:
                h_sinks = np.arange(len(gas_rows))
            else:
                h_sinks = np.searchsorted(gas_rows, sinks[self.gas[sinks]])

        out = (np.zeros((n_owned, 3)), np.zeros(n_owned), np.zeros(n_owned))
        g_newton = G_COSMO / a_eff

        # -- interior rows: owned data only (the exchange's window) -------
        with self.tracer.span("short_range/interior", cat="driver"):
            if cfg.gravity:
                # every owned-owned pair, for every sink; the sums stay
                # open for the pairs that cross to a ghost
                grav = PairSums(n_owned)
                self.n_pairs += gravity_rows(
                    None, self.grav_cache_own, self.pos, self.mass, sinks,
                    cfg, g_newton, ids=self.ids, sums=grav,
                )
            if cfg.hydro:
                intr_g = h_sinks[~hyd_bnd[h_sinks]]
                if len(intr_g):
                    self.n_pairs += crksph_rows(
                        out, gas_rows, self.hydro_cache_own, gpos,
                        self.vel[gas_rows] / a_eff, self.mass[gas_rows],
                        self.u[gas_rows], np.full(len(gpos), cfg.sph_h),
                        intr_g, self.kernel, ids=gids,
                    ).n_pairs

        ghost_pos, gfl = exchange.wait()

        # -- boundary rows: need the overloaded set ----------------------
        with self.tracer.span("short_range/boundary", cat="driver"):
            all_pos = np.vstack([self.pos, ghost_pos])
            all_mass = np.concatenate([self.mass, gfl["mass"]])
            all_ids = np.concatenate([self.ids, gfl["ids"]])
            if cfg.gravity:
                # owned rows precede ghosts: the owned-ghost pairs
                # continue each sink's sums where its owned pairs ended
                self.n_pairs += gravity_rows(
                    out[0], self.grav_cache, all_pos, all_mass, sinks,
                    cfg, g_newton, ids=all_ids, sums=grav, cross=n_owned,
                )
            if cfg.hydro:
                bnd_g = h_sinks[hyd_bnd[h_sinks]]
                if len(bnd_g):
                    agr = np.nonzero(
                        np.concatenate([self.gas, gfl["gas"]])
                    )[0]
                    all_vel = np.vstack([self.vel, gfl["vel"]])
                    all_u = np.concatenate([self.u, gfl["u"]])
                    # owned rows precede ghosts, so owned-gas-frame sink
                    # indices (and their gas_rows) are valid in the
                    # overloaded gas frame unchanged
                    self.n_pairs += crksph_rows(
                        out, gas_rows, self.hydro_cache, all_pos[agr],
                        all_vel[agr] / a_eff, all_mass[agr], all_u[agr],
                        np.full(len(agr), cfg.sph_h), bnd_g, self.kernel,
                        ids=all_ids[agr],
                    ).n_pairs

        accel, du_dt, vsig = out
        du_da = du_dt / (a_eff * ah)
        if cfg.hydro and not cfg.static:
            g = self.gas
            du_da[g] = du_da[g] - (
                3.0 * (GAMMA_IDEAL - 1.0) * self.u[g] / a
            )
        return accel / ah, du_da, vsig

    # -- migration (two waves) ------------------------------------------------
    def _adopt(self, arrived: dict) -> None:
        """Bind per-particle arrays by name (the constructor's rows, or
        what a migration delivered — ``acc_long`` rides along there)."""
        for name, rows in arrived.items():
            setattr(self, name, rows)

    def _post_departures(self) -> None:
        """Wave 1: wrapped positions + kick-invariant fields, the moment
        the final drift fixes every destination; matures behind the
        closing force evaluation."""
        early = {"mass": self.mass, "ids": self.ids, "gas": self.gas}
        with self.tracer.span("migration/post", cat="driver"):
            self.flight = post_migration(self.comm, self.pos, early,
                                         self.decomp)
        if self.tracer.enabled:
            self.flight_id = self.tracer.next_id()
            self.tracer.async_begin("migration/flight", self.flight_id,
                                    cat="async", tid=self.comm.rank)

    def _post_payload(self) -> None:
        """Wave 2: the fields the closing half-kick mutates (vel/u) plus
        the cached acc_long rows; matures behind the next step's opening
        evaluation."""
        late = {"vel": self.vel, "u": self.u}
        if self.cfg.gravity:
            late["acc_long"] = self.acc_long
        with self.tracer.span("migration/post", cat="driver"):
            self.flight.post_payload(late)

    def _settle_migration(self) -> None:
        """Complete wave 1 (re-homed positions + early fields) and reset
        the drift-since-migration bound.  Hydro settles the payload too —
        the opening ghost exchange ships vel/u — while gravity-only runs
        leave it maturing until after the opening short-range
        evaluation."""
        with self.tracer.span("migration/settle", cat="driver"):
            self._adopt(self.flight.settle_arrivals())
        self.drift_max = 0.0
        self.disp_accum = 0.0
        if self.cfg.hydro or not self.cfg.gravity:
            self._finish_payload()

    def _finish_payload(self) -> None:
        fl = self.flight
        if fl is None or not fl.arrivals_settled:
            return
        with self.tracer.span("migration/settle", cat="driver"):
            self._adopt(fl.settle_payload())
        if self.tracer.enabled:
            self.tracer.async_end("migration/flight", self.flight_id,
                                  cat="async", tid=self.comm.rank)
        self.flight = None


def _run_rank(comm, sim: DistributedSimulation, particles: dict,
              owner: np.ndarray, scope: str, step: int,
              a: float | None) -> RankDomain:
    """One rank of ``DistributedSimulation.run``: take the owned rows, run
    the PM steps, hand the finished domain back for the gather."""
    mine = owner == comm.rank
    rank = RankDomain(
        comm, sim.config, sim.decomp,
        {name: rows[mine].copy() for name, rows in particles.items()},
        observe=sim.observe, scope=scope, fault_plan=sim.fault_plan,
        step=step, a=a,
    )
    rank.run(sim.step_hooks)
    return rank


class DistributedSimulation:
    """SPMD gravity solver: run with ``results = sim.run(pos, vel, mass)``."""

    def __init__(self, config: DistributedConfig, n_ranks: int,
                 observe: Observatory | None = None, fault_plan=None):
        self.config = config
        self.n_ranks = n_ranks
        #: optional :class:`~repro.resilience.faults.FaultPlan`: injected
        #: rank deaths fire from inside the ranks' phase entries (or the
        #: comm layer), raising typed RankFailure for the recovery tests
        self.fault_plan = fault_plan
        #: end-of-step callbacks ``hook(comm, istep, a, my)`` run by every
        #: rank after its closing kick, where the union of owned arrays is
        #: the complete consistent global state — the checkpoint point
        #: (hooks must stay structural: same collectives on every rank)
        self.step_hooks: list = []
        # observability: one tracer serves all simulated ranks (one trace
        # track per rank); phase timers and comm-wait live in the registry
        self.observe = observe if observe is not None else Observatory()
        self.decomp = make_decomposition(config.box, n_ranks)
        if 2.0 * config.overload_width >= self.decomp.widths.min():
            raise ValueError(
                "short-range cutoff exceeds half the rank domain width; "
                "use fewer ranks or a larger box"
            )
        #: per-rank count of distributed PM solves (one forward + three
        #: gradient FFT sets each); the kick split holds this at one solve
        #: per PM step in steady state instead of two
        self.pm_eval_counts = np.zeros(n_ranks, dtype=np.int64)
        #: rank-0 per-step records (timers + per-phase comm wait)
        self.step_records: list[StepRecord] = []
        #: TrafficStats of the last run (per-rank wait/bytes counters)
        self.traffic = None

    def run(self, pos: np.ndarray, vel: np.ndarray, mass: np.ndarray,
            u: np.ndarray | None = None, gas: np.ndarray | None = None,
            step: int = 0, a: float | None = None):
        """Evolve the global particle set across the simulated ranks.

        Gravity-only: returns ``(pos, vel, ids)``.  With ``hydro=True``:
        returns ``(pos, vel, u, ids)``.  ``gas`` optionally marks the gas
        subset of a mixed DM+gas run (default: all particles are gas when
        ``hydro=True``); CRKSPH forces act on gas rows only while gravity
        couples everything.  ``ids`` maps rows back to the input order.

        ``step`` and ``a`` are the state the run starts from (default:
        step 0 at ``a_init``).  Steps count along the whole trajectory and
        each is ``(a_final - a_init) / n_pm_steps`` long, so a run resumed
        from step ``k``'s checkpoint (``step=k + 1``, its ``a``, its rows
        in id order) ends on the uninterrupted run's bits.
        """
        cfg = self.config
        if cfg.hydro and u is None:
            raise ValueError("hydro runs need initial internal energies u")
        if not 0 <= step < cfg.n_pm_steps:
            raise ValueError(f"step {step} is outside the "
                             f"{cfg.n_pm_steps}-step trajectory")
        pos = np.mod(np.asarray(pos, dtype=np.float64), cfg.box)
        n = len(pos)
        particles = {
            "pos": pos,
            "vel": np.asarray(vel),
            "mass": np.asarray(mass, dtype=np.float64),
            "u": (np.asarray(u, dtype=np.float64) if u is not None
                  else np.zeros(n)),
            "ids": np.arange(n),
            "gas": (np.asarray(gas, dtype=bool) if gas is not None
                    else np.ones(n, dtype=bool)),
        }
        world = World(self.n_ranks, latency_s=cfg.net_latency_s,
                      gb_per_s=cfg.net_gb_per_s,
                      tracer=self.observe.tracer, sanitize=cfg.sanitize,
                      fault_plan=self.fault_plan,
                      blocking=cfg.comm_mode == "blocking")
        #: kept for post-run inspection (traffic stats, sanitizer findings)
        self.world = world
        ranks = world.run(
            _run_rank, self, particles,
            self.decomp.rank_of_positions(pos),
            self.observe.scope("dist"), step, a, timeout=cfg.comm_timeout_s,
        )
        self.step_records = ranks[0].records
        self.traffic = world.stats
        self.pm_eval_counts += [r.pm_evals for r in ranks]
        self.observe.registry.absorb_traffic(world.stats)
        for rec in self.step_records:
            self.observe.registry.absorb_subcycle(rec.subcycle)
        ids = np.concatenate([r.ids for r in ranks])
        order = np.argsort(ids)
        out_pos = np.vstack([r.pos for r in ranks])[order]
        out_vel = np.vstack([r.vel for r in ranks])[order]
        if cfg.hydro:
            return (out_pos, out_vel,
                    np.concatenate([r.u for r in ranks])[order], ids[order])
        return out_pos, out_vel, ids[order]
