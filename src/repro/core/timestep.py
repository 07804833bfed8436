"""Hierarchical (power-of-two) adaptive timestepping.

Particles are grouped into rungs: rung ``r`` advances with step
``dt_pm / 2^r`` inside one global PM interval (Saitoh & Makino 2010 style,
paper Section IV-A).  Only "active" rungs are force-evaluated on a given
substep; the substep schedule interleaves rungs so every particle receives
exactly ``2^r`` kicks of its own size per PM step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def timestep_criteria(
    accel: np.ndarray,
    h: np.ndarray,
    vsig: np.ndarray,
    cfl: float = 0.25,
    eta_accel: float = 0.025,
    dt_max: float = np.inf,
    u: np.ndarray | None = None,
    du_dt: np.ndarray | None = None,
    cooling_factor: float = 0.25,
) -> np.ndarray:
    """Per-particle timestep limit from CFL, acceleration, and cooling time.

    dt_cfl  = cfl * h / vsig
    dt_acc  = sqrt(2 eta h / |a|)
    dt_cool = cooling_factor * u / |du/dt|
    """
    amag = np.sqrt(np.einsum("na,na->n", accel, accel))
    with np.errstate(divide="ignore", invalid="ignore"):
        dt_acc = np.sqrt(2.0 * eta_accel * h / np.maximum(amag, 1e-300))
        dt_cfl = cfl * h / np.maximum(vsig, 1e-300)
    dt = np.minimum(dt_acc, np.where(vsig > 0, dt_cfl, np.inf))
    if u is not None and du_dt is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            dt_cool = cooling_factor * np.abs(u) / np.maximum(np.abs(du_dt), 1e-300)
        dt = np.minimum(dt, np.where(np.abs(du_dt) > 0, dt_cool, np.inf))
    return np.minimum(dt, dt_max)


def assign_rungs(dt_required: np.ndarray, dt_pm: float, max_rung: int = 16) -> np.ndarray:
    """Smallest rung r such that dt_pm / 2^r <= dt_required (clipped)."""
    dt_required = np.maximum(np.asarray(dt_required, dtype=np.float64), 1e-300)
    ratio = dt_pm / dt_required
    rung = np.ceil(np.log2(np.maximum(ratio, 1.0))).astype(np.int64)
    return np.clip(rung, 0, max_rung).astype(np.int16)


def a_hubble(cfg, a: float) -> float:
    """a * H(a) in km/s/Mpc: the da/dt Jacobian of the comoving KDK (1 in
    static mode).  ``cfg`` is either driver's config (``static``, ``cosmo``).
    """
    return 1.0 if cfg.static else float(a * cfg.cosmo.hubble(a))


def criteria_rungs(dv_total, vsig, gas, h_gas, ah: float, da: float, cfg):
    """Rungs from the timestep criteria in 'a' units, for either driver.

    CFL (``dt_a = cfl h aH / vsig``) applies to the ``gas`` rows at their
    support radius ``h_gas``; the acceleration criterion applies to every
    row, with four softening lengths standing in for h on collisionless
    rows.  ``cfg`` supplies ``softening``, ``cfl``, ``eta_accel``,
    ``max_rung``.
    """
    dt_req = timestep_criteria(
        dv_total,
        np.where(gas, h_gas, cfg.softening * 4.0),
        np.where(gas, vsig, 0.0) / ah,
        cfl=cfg.cfl, eta_accel=cfg.eta_accel, dt_max=da,
    )
    return assign_rungs(dt_req, da, max_rung=cfg.max_rung)


def deepest_rung(rungs: np.ndarray) -> int:
    return int(rungs.max()) if len(rungs) else 0


def active_mask(rungs: np.ndarray, substep: int, max_rung: int) -> np.ndarray:
    """Particles whose rung is active at ``substep`` of a depth-``max_rung`` PM step.

    Rung r is active every 2^(max_rung - r) substeps.
    """
    rungs = np.asarray(rungs)
    period = 2 ** (max_rung - rungs.astype(np.int64))
    return substep % period == 0


def rung_dt(rungs: np.ndarray, dt_pm: float) -> np.ndarray:
    """Per-particle substep size dt_pm / 2^rung."""
    return dt_pm / (2.0 ** np.asarray(rungs, dtype=np.float64))


def closing_rung(substep: int, depth: int) -> int:
    """Shallowest rung closing at the end of ``substep`` (0-indexed).

    The substep boundary ``s + 1`` closes rung ``r`` exactly when
    ``(s + 1) % 2^(depth - r) == 0``; the shallowest such rung labels the
    synchronization level of the boundary — the final substep of a PM
    interval closes rung 0 (everyone), odd boundaries close only the
    deepest rung.  The distributed driver keys its per-rung phase timers
    (``"rung/<r>"``) off this value.
    """
    v = substep + 1
    trailing_zeros = (v & -v).bit_length() - 1
    return max(depth - trailing_zeros, 0)


@dataclass
class SubcycleStats:
    """Bookkeeping from one PM step of hierarchical integration.

    ``n_active_total`` accumulates the number of *active* (sink) particles
    over every force evaluation of the step, opening evaluation included;
    ``n_fft`` counts long-range PM solves and ``n_pairs`` short-range pair
    rows streamed — the quantities the active-set scheduling is supposed to
    shrink (paper Section IV-A).
    """

    n_substeps: int = 0
    n_force_evaluations: int = 0
    n_active_total: int = 0
    deepest_rung: int = 0
    n_particles: int = 0
    n_fft: int = 0
    n_pairs: int = 0
    #: global rung histogram (index r -> particles assigned rung r) when
    #: the producer records one; the substep schedule is a pure function
    #: of this multiset, which is what lets tests reconstruct and check
    #: the schedule a distributed run claims to have executed
    rung_counts: tuple | None = None

    @property
    def mean_active_fraction(self) -> float:
        """Mean fraction of particles active per force evaluation."""
        if self.n_force_evaluations == 0 or self.n_particles == 0:
            return 0.0
        return self.n_active_total / (
            self.n_force_evaluations * self.n_particles
        )


class HierarchicalIntegrator:
    """The kick-split KDK rung loop of one PM interval — its only home.

    The long-range force is applied as two interval-boundary half-kicks of
    ``dt_pm / 2``; only the short-range forces are re-evaluated inside the
    ``2^depth`` fine substeps, on the rows whose rung closes the substep,
    so a particle on rung r receives ``2^r`` KDK cycles of size
    ``dt_pm / 2^r`` while everyone drifts at the finest cadence.

    The loop is rank-count agnostic: it talks to a *domain* — the serial
    box (:class:`~repro.core.simulation.Simulation`) or one rank's owned
    rows (:class:`~repro.parallel.distributed_sim.RankDomain`) — through
    the operations below, and every collective stays inside the domain.

    ``vel``, ``u``
        arrays the loop kicks in place (not rebound between
        ``opening_forces`` and ``reduce_stats``)
    ``opening_forces(a) -> (dv, du, vsig, dv_long)``
        short-range RHS rows and the long-range kick at the interval start
    ``assign_rungs(dv_total, vsig, dt_pm) -> rungs``
    ``interval_depth(rungs) -> int``
        substep depth shared by every rank of the domain
    ``check_state(label)``
        numerics tripwire at a phase boundary (no-op unless sanitizing)
    ``drift(a_mid, dt, s, nsub)``
        fine drift of every row over substep ``s`` of ``nsub``
    ``short_range(a, sinks, closing_rung, last) -> (dv, du, vsig)``
        full-length arrays; with ``sinks`` (sorted row indices) only those
        rows are fresh.  ``closing_rung`` labels the substep's
        synchronization level, ``last`` marks the interval's final substep
    ``long_range(a) -> dv_long``
    ``reduce_stats(stats, rungs) -> SubcycleStats``
        finish the interval and fill in the domain-wide totals
    """

    def __init__(self, dt_pm: float, active_set: bool = True,
                 promote: bool = False):
        if dt_pm <= 0:
            raise ValueError("dt_pm must be positive")
        self.dt_pm = dt_pm
        #: evaluate only the closing rows of a substep (inactive rows stay
        #: gather-only sources); off, every substep recomputes every row
        self.active_set = active_set
        #: let a closing row whose fresh criterion stiffened move to a
        #: deeper rung mid-interval (needs a domain whose depth has room)
        self.promote = promote

    def run(self, dom, a0: float) -> SubcycleStats:
        """Advance ``dom`` over ``[a0, a0 + dt_pm]`` in place."""
        da = self.dt_pm
        dv, du, vsig, dv_long = dom.opening_forces(a0)
        rungs = dom.assign_rungs(dv + dv_long, vsig, da)
        depth = dom.interval_depth(rungs)
        nsub = 1 << depth
        dt_fine = da / nsub
        dts = rung_dt(rungs, da)
        n_active = len(rungs)  # substep-0 active set: everyone

        # long-range half-kick over the whole PM interval: the PM field is
        # solved once per interval, never inside the substep loop
        vel = dom.vel
        vel += 0.5 * da * dv_long
        dom.check_state("opening half-kick")

        for s in range(nsub):
            _kick(dom, active_mask(rungs, s, depth), dts, dv, du)
            dom.drift(a0 + (s + 0.5) * dt_fine, dt_fine, s, nsub)

            # closing evaluation.  The closing set of substep s equals the
            # opening (active) set of substep s+1, so evaluating exactly
            # these rows keeps every kick — opening and closing — on fresh
            # forces; stale rows of the persistent RHS arrays are never
            # read before their owner's next evaluation refreshes them.
            # The final substep closes every particle.
            closing = active_mask(rungs, s + 1, depth)
            sinks = None
            if self.active_set and not closing.all():
                sinks = np.nonzero(closing)[0]
            dv_s, du_s, vs_s = dom.short_range(
                a0 + (s + 1) * dt_fine, sinks, closing_rung(s, depth),
                s + 1 == nsub,
            )
            if sinks is None:
                dv, du, vsig = dv_s, du_s, vs_s
            else:
                dv[sinks] = dv_s[sinks]
                du[sinks] = du_s[sinks]
                vsig[sinks] = vs_s[sinks]
            n_active += int(closing.sum())
            _kick(dom, closing, dts, dv, du)

            # rung promotion: a particle at its own substep boundary whose
            # fresh timestep criterion now demands a deeper rung moves down
            # immediately (demotion only happens at PM-step boundaries).
            # The criterion sees the interval-frozen long-range force plus
            # the fresh short-range rows; only closing rows are consulted,
            # and those are fresh in both evaluation modes.
            if self.promote and s + 1 < nsub:
                need = np.minimum(
                    dom.assign_rungs(dv + dv_long, vsig, da), depth
                )
                promote = closing & (need > rungs)
                if promote.any():
                    rungs = np.where(promote, need, rungs).astype(np.int16)
                    dts = rung_dt(rungs, da)
        dom.check_state("subcycle loop")

        # closing long-range half-kick: the interval's one fresh PM solve
        vel += 0.5 * da * dom.long_range(a0 + da)
        return dom.reduce_stats(
            SubcycleStats(
                n_substeps=nsub, n_force_evaluations=1 + nsub,
                n_active_total=n_active, deepest_rung=depth,
                n_particles=len(rungs),
            ),
            rungs,
        )


def _kick(dom, rows, dts, dv, du) -> None:
    """Half-kick of ``rows`` at their own rung's step size."""
    dom.vel[rows] += 0.5 * dts[rows, None] * dv[rows]
    dom.u[rows] = np.maximum(dom.u[rows] + 0.5 * dts[rows] * du[rows], 0.0)
