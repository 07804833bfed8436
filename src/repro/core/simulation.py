"""Top-level CRK-HACC simulation driver.

Evolves a mixed dark-matter + gas particle set through global PM steps.
Each PM step performs (paper Fig. 2):

  1. tree build    — validate/rebuild the cached gravity pair list
  2. long-range    — spectrally filtered PM gravity on the global grid
  3. short-range   — tree-driven pair gravity + CRKSPH hydro, subcycled on
                     power-of-two rungs
  4. subgrid       — cooling, star formation, SN and AGN feedback
  5. analysis/I/O  — user-supplied in situ and checkpoint hooks (timed)

Comoving integration uses the momentum variable p = a*v (km/s):

    dp/da = [ -grad phi + a_sph ] / (a H),   dx/da = p / (a^2 * a H)
    nabla^2 phi = 4 pi G (rho_c - rho_mean) / a
    du/da = (du_sph/dt*) / (a^2 H) - 3 (gamma - 1) u / a

where * denotes the comoving SPH work term.  Setting ``static=True``
freezes the expansion (a = 1, H -> 0 replaced by dt stepping) for
Newtonian test problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import G_COSMO, GAMMA_IDEAL, GYR_S
from ..cosmology.background import Cosmology
from ..observe import Observatory
from ..observe.taxonomy import SERIAL_PHASES
from ..tree import PairCache
from .geometry import wrap_positions
from .gravity.force_split import recommended_cutoff
from .gravity.pm import PMSolver
from .particles import Particles, Species
from .sph.eos import IdealGasEOS
from .sink_rows import crksph_rows, gravity_rows
from .sph.hydro import closure_volumes, update_smoothing_lengths
from .sph.kernels import get_kernel
from .sph.pair_batch import PairTiles
from .sph.viscosity import MonaghanViscosity
from .subgrid.agn import AGNModel
from .subgrid.cooling import CoolingModel
from .subgrid.star_formation import StarFormationModel
from .subgrid.supernova import SupernovaModel, kernel_weights_for_sources
from .timestep import (
    HierarchicalIntegrator,
    SubcycleStats,
    a_hubble,
    criteria_rungs,
    deepest_rung,
)

#: the serial phase taxonomy — StepRecord.timers keys, Fig. 2 components
PHASE_KEYS = SERIAL_PHASES


@dataclass
class SimulationConfig:
    """Configuration of a CRK-HACC mini-simulation.

    ``box`` may be a scalar (cubic box) or a 3-sequence for anisotropic
    periodic domains (e.g. quasi-1D shock tubes); gravity requires a cube.
    """

    box: float  # comoving Mpc/h; scalar or 3-vector
    pm_grid: int = 32
    a_init: float = 0.1
    a_final: float = 1.0
    n_pm_steps: int = 20
    cosmo: Cosmology = field(default_factory=Cosmology)
    hydro: bool = True
    gravity: bool = True
    subgrid: bool = False
    #: delayed enrichment channels (SNIa DTD + AGB return) on top of the
    #: prompt core-collapse feedback; requires subgrid=True
    extended_enrichment: bool = False
    kernel: str = "wendland_c4"
    n_neighbors: int = 32
    cfl: float = 0.25
    eta_accel: float = 0.05
    max_rung: int = 3
    r_split_cells: float = 2.0  # handover scale in PM grid cells
    softening_cells: float = 0.05  # Plummer softening in PM grid cells
    static: bool = False  # Newtonian (non-expanding) test mode
    #: extra subcycle depth beyond the assigned rungs, reserved for
    #: mid-step rung promotion when conditions stiffen (shocks, feedback)
    rung_margin: int = 1
    #: freeze smoothing lengths at their initial values (test/ablation use)
    fixed_h: bool = False
    #: evaluate subcycle forces only for the particles closing a substep
    #: (active sinks; inactive particles stay gather-only sources).  Off,
    #: every substep recomputes all rows — same bits (asserted), used as
    #: the reference in equivalence tests and benchmarks
    active_set: bool = True
    seed: int = 1234
    #: numerics sanitizer: check particle state for NaN/Inf and total
    #: energy for blowups at every PM-step phase boundary, raising
    #: :class:`~repro.sanitize.numerics.NumericsError` naming the step,
    #: phase, and first bad index.  Off by default (zero cost when off).
    sanitize: bool = False

    @property
    def box_array(self) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(self.box, dtype=np.float64), (3,)
        ).copy()

    @property
    def box_min(self) -> float:
        return float(self.box_array.min())

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.box_array))

    @property
    def is_cubic(self) -> bool:
        b = self.box_array
        return bool(np.all(b == b[0]))

    @property
    def r_split(self) -> float:
        return self.r_split_cells * self.box_min / self.pm_grid

    @property
    def softening(self) -> float:
        return self.softening_cells * self.box_min / self.pm_grid

    @property
    def cutoff(self) -> float:
        return recommended_cutoff(self.r_split, tol=1e-4)


@dataclass
class StepRecord:
    """Timing and bookkeeping for one PM step (feeds Fig. 2/5 analogs)."""

    step: int
    a: float
    #: per-phase wall seconds — an :class:`~repro.observe.metrics.TimerGroup`
    #: mapping view over the run's metrics registry (plain-dict shape:
    #: iteration, ``[key]``, ``items()`` all work)
    timers: dict
    n_substeps: int
    deepest_rung: int
    n_particles: int
    n_stars_formed: int = 0
    n_sn_events: int = 0
    n_bh: int = 0
    #: per-substep active-set bookkeeping (evaluations, active fractions,
    #: FFT and pair counts) for the kick-split scheduling
    subcycle: SubcycleStats | None = None
    #: long-range PM solves this step (<= 2 under kick-split scheduling)
    n_fft: int = 0
    #: per-phase seconds spent blocked on communication (distributed runs;
    #: None for the serial driver).  Under ``comm_mode="overlap"`` these
    #: shrink while ``timers`` stay comparable — the observable of overlap.
    comm_wait: dict | None = None
    #: communication mode the step ran under ("blocking"/"overlap")
    comm_mode: str | None = None


class Simulation:
    """Laptop-scale CRK-HACC analog: PM + tree gravity + CRKSPH + subgrid."""

    def __init__(self, config: SimulationConfig, particles: Particles,
                 observe: Observatory | None = None):
        self.config = config
        self.particles = particles
        # observability: tracer + metrics registry for this run.  The
        # default Observatory carries a NullTracer, so an uninstrumented
        # run pays only empty context managers (asserted <2% in tier-1).
        self.observe = observe if observe is not None else Observatory()
        self._obs_scope = self.observe.scope("sim")
        self.cosmo = config.cosmo
        self.kernel = get_kernel(config.kernel)
        self.eos = IdealGasEOS()
        self.viscosity = MonaghanViscosity()
        if config.gravity and not config.is_cubic:
            raise ValueError("gravity (PM solver) requires a cubic box")
        # cheap for repeated shapes: PMSolver's spectral tables come from
        # the module-level Green's-function memo
        self.pm = (
            PMSolver(n=config.pm_grid, box=float(config.box_array[0]),
                     r_split=config.r_split)
            if config.gravity
            else None
        )
        self.cooling = CoolingModel()
        self.star_formation = StarFormationModel()
        self.supernova = SupernovaModel()
        self.agn = AGNModel()
        from .subgrid.stellar_evolution import AGBModel, SNIaModel

        self.snia = SNIaModel()
        self.agb = AGBModel()
        self.rng = np.random.default_rng(config.seed)
        if config.sanitize:
            from ..sanitize.numerics import NumericsSanitizer

            self.nsan = NumericsSanitizer(context="serial sim")
        else:
            self.nsan = None

        self.a = config.a_init
        self.step_index = 0
        self.history: list[StepRecord] = []
        self.insitu_hooks = []
        self.io_hooks = []

        n = len(particles)
        # side arrays aligned with particle arrays (species flips never
        # reorder, so alignment is stable)
        self.birth_a = np.zeros(n)
        self.sn_fired = np.zeros(n, dtype=bool)
        self.bh_mass = np.zeros(n)
        # pair-interaction engine: Verlet-cached lists, built at most once
        # per PM step and reused across all subcycles (paper Section IV-B1).
        # The gravity cache even survives across PM steps while drift stays
        # inside the skin; the hydro cache additionally tracks the gas
        # subset (star formation shrinks it) via ids.
        self._grav_cache = PairCache(box=config.box)
        self._hydro_cache = PairCache(box=config.box)
        # kick-split long-range cache: the PM acceleration depends on
        # positions only, so the closing evaluation of one PM step (at
        # unit coefficient) is reused as the next step's opening — one FFT
        # per PM step instead of 2^depth + 1 (HACC stream/kick split)
        self._pm_acc_unit = None
        self._pm_ref_pos = None
        # each PM step times its phases into its own group and counts the
        # pair rows it streams; a force evaluation outside a step (tests,
        # analysis) times into this group and counts from zero
        self._timers = self.observe.timer_group(f"{self._obs_scope}/unstepped")
        self._n_pairs = 0

        self._init_smoothing_lengths()

    # -- setup ---------------------------------------------------------------
    def _init_smoothing_lengths(self) -> None:
        p = self.particles
        gas = p.gas
        n_gas = int(gas.sum())
        if n_gas == 0:
            return
        if self.config.fixed_h and np.all(p.h[gas] > 0):
            return  # caller supplied frozen smoothing lengths
        # initial guess from mean spacing; one relaxation pass
        spacing = (self.config.box_volume / max(n_gas, 1)) ** (1.0 / 3.0)
        eta = (3.0 * self.config.n_neighbors / (4.0 * np.pi)) ** (1 / 3)
        p.h[gas] = eta * spacing
        self._refresh_smoothing_lengths()

    def _refresh_smoothing_lengths(self) -> None:
        if self.config.fixed_h:
            return
        p = self.particles
        gas = np.nonzero(p.gas)[0]
        if len(gas) == 0:
            return
        gpos = p.pos[gas]
        gh = p.h[gas]
        rows = self._hydro_cache.get(gpos, gh, ids=gas)
        vol = closure_volumes(
            PairTiles(rows, np.arange(len(gas)), gh, self.kernel))
        p.h[gas] = update_smoothing_lengths(
            vol,
            n_target=self.config.n_neighbors,
            h_old=gh,
            h_min=0.1 * self.config.softening,
            h_max=0.45 * self.config.box_min,
            relax=0.7,
        )

    # -- time mapping ---------------------------------------------------------
    def _dt_seconds(self, a0: float, a1: float) -> float:
        """Physical seconds between scale factors (for subgrid physics)."""
        return float((self.cosmo.age(a1) - self.cosmo.age(a0)) * GYR_S)

    # -- stepping-core domain operations -------------------------------------
    # what HierarchicalIntegrator asks of the serial box; the loop itself
    # lives in repro.core.timestep
    @property
    def vel(self) -> np.ndarray:
        return self.particles.vel

    @property
    def u(self) -> np.ndarray:
        return self.particles.u

    def opening_forces(self, a: float):
        # cache hit after the first step: positions are unchanged since the
        # previous step's closing solve, so no new FFT runs here
        dp_long = self.long_range(a)
        dp_da, du_da, vsig = self.short_range(a)
        if self.nsan is not None:
            p = self.particles
            self.nsan.check_finite(
                self.step_index, "opening forces",
                pos=p.pos, vel=p.vel, u=p.u,
                dp_long=dp_long, dp_short=dp_da, du=du_da,
            )
        return dp_da, du_da, vsig, dp_long

    def long_range(self, a: float) -> np.ndarray:
        """Long-range PM contribution to dp/da (all particles).

        The PM field depends on positions only, so the solve runs at unit
        coefficient and is cached against the exact particle positions:
        within a PM step the opening half-kick reuses the previous step's
        closing solve (positions unchanged across the step boundary), so
        steady-state cost is one FFT per PM step.  Cosmology enters only
        through the ``4 pi G / a_eff`` coefficient and the ``a H`` Jacobian
        applied at evaluation time.
        """
        p = self.particles
        if not self.config.gravity:
            return np.zeros_like(p.pos)
        with self._timers.time("long_range"):
            if (
                self._pm_acc_unit is None
                or len(self._pm_acc_unit) != len(p)
                or not np.array_equal(self._pm_ref_pos, p.pos)
            ):
                self._pm_acc_unit = self.pm.accelerations(
                    p.pos, p.mass, coeff=1.0
                )
                self._pm_ref_pos = p.pos.copy()
        a_eff = 1.0 if self.config.static else a
        coeff = 4.0 * np.pi * G_COSMO / a_eff
        return self._pm_acc_unit * (coeff / a_hubble(self.config, a))

    def short_range(self, a: float, sinks=None, closing_rung=0, last=False):
        """Subcycled short-range RHS: tree gravity + CRKSPH hydro.

        Returns ``(dp_da, du_da, vsig)`` as full-length arrays.  With
        ``sinks`` (sorted active particle indices) only the sink rows are
        evaluated — inactive particles enter as gather-only sources — and
        every other row is zero; the caller merges fresh rows into its
        persistent RHS arrays.  The long-range kick is handled separately
        (:meth:`long_range`), once per PM step.  ``closing_rung`` and
        ``last`` are the rank domain's concern; pair rows streamed
        accumulate in ``_n_pairs``.
        """
        p = self.particles
        cfg = self.config
        timers = self._timers
        n = len(p)
        a_eff = 1.0 if cfg.static else a
        ah = a_hubble(cfg, a)
        out = accel, du_da, vsig = np.zeros((n, 3)), np.zeros(n), np.zeros(n)

        if cfg.gravity:
            with timers.time("short_range"):
                self._n_pairs += gravity_rows(
                    accel, self._grav_cache, p.pos, p.mass, sinks, cfg,
                    G_COSMO / a_eff,
                )

        gas = np.nonzero(p.gas)[0]
        if cfg.hydro and len(gas) > 0:
            with timers.time("hydro"):
                # map active sinks into the gas-local frame
                gas_sinks = None if sinks is None else np.searchsorted(
                    gas, sinks[p.gas[sinks]])
                if gas_sinks is None or len(gas_sinks):
                    # peculiar velocity v = p_mom / a in comoving dynamics
                    d = crksph_rows(
                        out, gas, self._hydro_cache, p.pos[gas],
                        p.vel[gas] / a_eff, p.mass[gas], p.u[gas], p.h[gas],
                        gas_sinks, self.kernel, eos=self.eos,
                        viscosity=self.viscosity, ids=gas,
                    )
                    # densities are fresh on the 1-hop closure; the final
                    # substep closes everyone, so rho is fully refreshed
                    # before subgrid physics reads it
                    p.rho[gas[d.tier1]] = d.rho
                    self._n_pairs += d.n_pairs

        dp_da = accel / ah
        # du/da: comoving work / (a^2 H) + adiabatic expansion term.  The
        # expansion term uses the *current* u of the evaluated rows only,
        # so active- and full-evaluation modes see identical values on the
        # rows they actually kick.
        du_da = du_da / (a_eff * ah)
        if not cfg.static:
            rows = slice(None) if sinks is None else sinks
            du_da[rows] -= 3.0 * (GAMMA_IDEAL - 1.0) * p.u[rows] / a
        du_da = np.where(p.gas, du_da, 0.0)
        return dp_da, du_da, vsig

    def _assign_rungs(self, dp_da, vsig, da: float) -> np.ndarray:
        p = self.particles
        return criteria_rungs(dp_da, vsig, p.gas, p.h,
                              a_hubble(self.config, self.a), da, self.config)

    def assign_rungs(self, dv_total, vsig, da: float) -> np.ndarray:
        # looked up per call: tests and benches impose a schedule by
        # rebinding ``_assign_rungs`` on the instance
        return self._assign_rungs(dv_total, vsig, da)

    def interval_depth(self, rungs) -> int:
        # the loop depth carries a margin beyond the assigned rungs so
        # particles whose conditions stiffen mid-step (shock formation,
        # feedback) can be *promoted* to deeper rungs at their own substep
        # boundaries — the Saitoh-Makino adaptivity the paper relies on
        cfg = self.config
        assigned = deepest_rung(rungs)
        if assigned > 0 or cfg.hydro:
            return min(assigned + cfg.rung_margin, cfg.max_rung)
        return assigned

    def check_state(self, label: str) -> None:
        if self.nsan is not None:
            p = self.particles
            self.nsan.check_finite(self.step_index, label,
                                   pos=p.pos, vel=p.vel, u=p.u)

    def drift(self, a_mid: float, dt: float, s: int, nsub: int) -> None:
        cfg = self.config
        p = self.particles
        a_eff = 1.0 if cfg.static else a_mid
        p.pos += p.vel * (dt / (a_eff * a_hubble(cfg, a_mid)))
        p.pos = wrap_positions(p.pos, cfg.box_array)

    def reduce_stats(self, stats: SubcycleStats, rungs) -> SubcycleStats:
        self.particles.rung[:] = rungs
        stats.n_pairs = self._n_pairs
        return stats

    # -- stepping ---------------------------------------------------------------
    def pm_step(self) -> StepRecord:
        """Advance one global PM step.

        Kick-split scheduling (HACC stream/kick split): the long-range PM
        acceleration is evaluated once per PM step and applied as two
        interval-boundary half-kicks of ``da/2`` to every particle, while
        only the short-range gravity + CRKSPH forces are re-evaluated
        inside the subcycle — and, with ``active_set``, only for the
        particles whose rung closes a substep.  The rung loop itself is
        :class:`~repro.core.timestep.HierarchicalIntegrator`, shared with
        the distributed driver.
        """
        with self.observe.tracer.span("step", cat="driver",
                                      step=self.step_index, a=self.a):
            return self._pm_step_body()

    def _pm_step_body(self) -> StepRecord:
        cfg = self.config
        p = self.particles
        da = (cfg.a_final - cfg.a_init) / cfg.n_pm_steps
        a0 = self.a
        self._timers = timers = self.observe.timer_group(
            f"{self._obs_scope}/step{self.step_index:05d}", keys=PHASE_KEYS
        )
        self._n_pairs = 0
        fft0 = self.pm.n_evaluations if self.pm is not None else 0

        # -- tree build (once per PM step) -------------------------------
        with timers.time("tree_build"):
            if cfg.gravity:
                # validate/build the cached gravity list here so its cost
                # lands in the tree-build timer; subcycle force calls reuse
                # it, and the Verlet skin lets it survive whole PM steps
                # under slow drift (paper IV-B1)
                self._grav_cache.ensure(p.pos, cfg.cutoff)

        # -- opening forces, rungs, subcycled KDK, closing long-range kick
        # (the step's one fresh FFT; the unit-coefficient solve is cached
        # and becomes the next step's opening evaluation)
        stats = HierarchicalIntegrator(
            da, active_set=cfg.active_set, promote=True
        ).run(self, a0)
        if self.nsan is not None:
            self.nsan.check_finite(
                self.step_index, "closing long-range kick", vel=p.vel
            )

        a1 = a0 + da
        stats.n_fft = (self.pm.n_evaluations - fft0) if self.pm is not None else 0
        record = StepRecord(
            step=self.step_index,
            a=a1,
            timers=timers,
            n_substeps=stats.n_substeps,
            deepest_rung=stats.deepest_rung,
            n_particles=len(p),
            subcycle=stats,
            n_fft=stats.n_fft,
        )

        # -- subgrid physics ---------------------------------------------------
        if cfg.subgrid:
            with timers.time("subgrid"):
                self._apply_subgrid(a0, a1, record)
            if self.nsan is not None:
                self.nsan.check_finite(
                    self.step_index, "subgrid",
                    u=p.u, metallicity=p.metallicity,
                )

        # -- smoothing length refresh -----------------------------------------
        with timers.time("other"):
            self._refresh_smoothing_lengths()

        # -- in situ analysis & I/O hooks ---------------------------------------
        for hook in self.insitu_hooks:
            with timers.time("analysis"):
                hook(self, record)
        for hook in self.io_hooks:
            with timers.time("io"):
                hook(self, record)

        if self.nsan is not None:
            from ..sanitize.numerics import kinetic_internal_energy

            self.nsan.check_energy(
                self.step_index,
                kinetic_internal_energy(p.mass, p.vel, p.u),
            )

        registry = self.observe.registry
        registry.absorb_subcycle(stats)
        self._grav_cache.publish(registry, cache="gravity")
        self._hydro_cache.publish(registry, cache="hydro")
        self.a = a1
        self.step_index += 1
        record.n_bh = int(self.particles.black_holes.sum())
        self.history.append(record)
        return record

    def run(self, n_steps: int | None = None) -> list[StepRecord]:
        """Run ``n_steps`` PM steps (default: the full configured span)."""
        n = n_steps if n_steps is not None else self.config.n_pm_steps
        return [self.pm_step() for _ in range(n)]

    # -- subgrid orchestration ---------------------------------------------------
    def _stellar_ages_myr(self, a1: float, stars: np.ndarray) -> np.ndarray:
        """Ages of star particles at scale factor ``a1`` in Myr.

        Vectorized over the whole star set: stars formed on the same step
        share a birth scale factor, so ``cosmo.age`` runs once per *unique*
        birth epoch instead of once per star.
        """
        birth = np.maximum(self.birth_a[stars], 1e-3)
        uniq, inverse = np.unique(birth, return_inverse=True)
        ages_gyr = self.cosmo.age(a1) - np.atleast_1d(self.cosmo.age(uniq))
        return ages_gyr[inverse] * 1.0e3

    def _apply_subgrid(self, a0: float, a1: float, record: StepRecord) -> None:
        p = self.particles
        cfg = self.config
        dt_s = self._dt_seconds(a0, a1) if not cfg.static else 1.0e14
        a_mid = 0.5 * (a0 + a1)
        rho_mean = self.cosmo.rho_mean0 * (cfg.cosmo.omega_b / cfg.cosmo.omega_m)

        gas = np.nonzero(p.gas)[0]
        if len(gas) > 0:
            # cooling (gas rho cached from the last hydro evaluation)
            p.u[gas] = self.cooling.apply(
                p.u[gas], p.rho[gas], p.metallicity[gas], dt_s, a=a_mid
            )
            # star formation
            forming_local = self.star_formation.select_forming(
                p.rho[gas], p.u[gas], dt_s, a_mid, rho_mean, self.rng,
                eos=self.eos,
            )
            forming = gas[forming_local]
            if len(forming) > 0:
                p.species[forming] = int(Species.STAR)
                self.birth_a[forming] = a_mid
                record.n_stars_formed = len(forming)

        # supernovae
        stars = np.nonzero(p.stars)[0]
        if len(stars) > 0:
            ages_myr = self._stellar_ages_myr(a1, stars)
            due = self.supernova.due(ages_myr, self.sn_fired[stars])
            firing = stars[due]
            gas = np.nonzero(p.gas)[0]
            if len(firing) > 0 and len(gas) > 0:
                radius = 2.0 * float(np.median(p.h[gas]))
                si, gi_local, w = kernel_weights_for_sources(
                    p.pos[firing], p.pos[gas], radius, box=cfg.box
                )
                new_u, new_z = self.supernova.deposit(
                    p.mass[firing], w, gi_local, si,
                    p.mass[gas], p.u[gas], p.metallicity[gas],
                )
                p.u[gas] = new_u
                p.metallicity[gas] = new_z
                self.sn_fired[firing] = True
                record.n_sn_events = len(firing)

        # delayed enrichment: SNIa heating/iron and AGB metal return from
        # aging stellar populations (opt-in; Section IV-A "stellar chemical
        # enrichment")
        if cfg.extended_enrichment:
            stars = np.nonzero(p.stars)[0]
            gas = np.nonzero(p.gas)[0]
            if len(stars) > 0 and len(gas) > 0:
                age1 = self._stellar_ages_myr(a1, stars)
                age0 = np.maximum(age1 - dt_s / 3.156e13, 0.0)
                # the enrichment models are array-valued over the star set
                expected_ia = np.asarray(
                    self.snia.events_between(p.mass[stars], age0, age1),
                    dtype=np.float64,
                )
                n_ia = self.rng.poisson(expected_ia)
                m_ret = np.asarray(
                    self.agb.mass_returned_between(p.mass[stars], age0, age1),
                    dtype=np.float64,
                )
                firing = n_ia > 0
                if firing.any() or m_ret.sum() > 0:
                    radius = 2.0 * float(np.median(p.h[gas]))
                    si, gi_local, w = kernel_weights_for_sources(
                        p.pos[stars], p.pos[gas], radius, box=cfg.box
                    )
                    # SNIa heat + iron
                    du = self.snia.specific_energy(
                        n_ia[si], p.mass[gas[gi_local]]
                    ) * w
                    p.u[gas[gi_local]] += du
                    dz_ia = self.snia.iron_mass(n_ia[si]) * w
                    dz_agb = self.agb.metal_mass_returned(m_ret[si]) * w
                    p.metallicity[gas[gi_local]] = np.clip(
                        p.metallicity[gas[gi_local]]
                        + (dz_ia + dz_agb) / p.mass[gas[gi_local]],
                        0.0, 1.0,
                    )

        # AGN: seed at extreme gas overdensities, grow, feed back
        gas = np.nonzero(p.gas)[0]
        if len(gas) > 0:
            rho_mean_gas = p.mass[gas].sum() / cfg.box_volume
            dense = gas[p.rho[gas] > 5.0e3 * rho_mean_gas]
            bh = np.nonzero(p.black_holes)[0]
            if len(dense) > 0:
                # seed at the single densest site if no BH is nearby
                cand = dense[np.argmax(p.rho[dense])]
                far = True
                if len(bh) > 0:
                    d = p.pos[bh] - p.pos[cand]
                    d -= cfg.box_array * np.round(d / cfg.box_array)
                    far = np.min(np.einsum("na,na->n", d, d)) > (0.05 * cfg.box_min) ** 2
                if far:
                    p.species[cand] = int(Species.BLACK_HOLE)
                    self.bh_mass[cand] = self.agn.seed_mass
            bh = np.nonzero(p.black_holes)[0]
            gas = np.nonzero(p.gas)[0]
            if len(bh) > 0 and len(gas) > 0:
                # local gas state: nearest-gas estimates
                for b in bh:
                    d = p.pos[gas] - p.pos[b]
                    d -= cfg.box_array * np.round(d / cfg.box_array)
                    r2 = np.einsum("na,na->n", d, d)
                    near = gas[np.argsort(r2)[:8]]
                    rho_loc = p.rho[near].mean()
                    cs_loc = self.eos.sound_speed(
                        p.rho[near], p.u[near]
                    ).mean()
                    m_new, dm = self.agn.grow(
                        np.array([self.bh_mass[b]]),
                        np.array([rho_loc]),
                        np.array([max(cs_loc, 1.0)]),
                        dt_s,
                        a=a_mid,
                    )
                    self.bh_mass[b] = m_new[0]
                    e_fb = self.agn.feedback_energy(dm)[0]  # (km/s)^2 * Msun
                    p.u[near] += e_fb / max(p.mass[near].sum(), 1e-300)

    # -- diagnostics ---------------------------------------------------------------
    def timing_summary(self) -> dict:
        """Cumulative time per component over all steps (seconds)."""
        from ..observe.derived import timing_summary

        return timing_summary(self.history)

    def timing_fractions(self) -> dict:
        """Per-component fraction of total time (Fig. 2 shape)."""
        from ..observe.derived import phase_fractions

        return phase_fractions(self.history)
