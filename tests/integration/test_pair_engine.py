"""Pair-interaction engine wired into the simulation driver.

Checks the amortization contract of paper Section IV-B1: interaction lists
are built once per PM step and reused across all subcycle force
evaluations, with the Verlet skin absorbing intra-step drift.
"""

import numpy as np

from repro.core.particles import Particles
from repro.core.simulation import Simulation, SimulationConfig


def _uniform_gas(n_side=5, box=10.0, seed=3):
    rng = np.random.default_rng(seed)
    g = (np.indices((n_side,) * 3).reshape(3, -1).T + 0.5) * (box / n_side)
    pos = np.mod(g + rng.normal(scale=0.01 * box / n_side, size=g.shape), box)
    n = len(pos)
    return Particles(
        pos=pos,
        vel=np.zeros((n, 3)),
        mass=np.full(n, 1.0),
        species=np.ones(n, dtype=np.int8),
        u=np.full(n, 10.0),
    )


class TestHydroListAmortization:
    def test_at_most_one_hydro_build_per_pm_step_static(self):
        """Static, pressure-balanced gas: zero drift, so every subcycle of
        a PM step must reuse the list built for that step."""
        box = 10.0
        parts = _uniform_gas(box=box)
        cfg = SimulationConfig(
            box=box, pm_grid=8, a_init=0.5, a_final=0.7, n_pm_steps=3,
            gravity=False, static=True, max_rung=3,
        )
        sim = Simulation(cfg, parts)
        cache = sim._hydro_cache
        builds_before = cache.n_builds
        for _ in range(cfg.n_pm_steps):
            b0 = cache.n_builds
            rec = sim.pm_step()
            assert rec.n_substeps >= 2  # the amortization actually matters
            assert cache.n_builds - b0 <= 1
        assert cache.n_queries > cache.n_builds - builds_before

    def test_gravity_list_built_at_step_boundary_only(self):
        box = 12.0
        rng = np.random.default_rng(11)
        n = 160
        parts = Particles(
            pos=rng.uniform(0, box, size=(n, 3)),
            vel=np.zeros((n, 3)),
            mass=np.full(n, 5.0),
            species=np.zeros(n, dtype=np.int8),
        )
        cfg = SimulationConfig(
            box=box, pm_grid=8, a_init=0.3, a_final=0.4, n_pm_steps=2,
            static=True,
        )
        sim = Simulation(cfg, parts)
        sim.run()
        cache = sim._grav_cache
        # rebuilds can only come from drift past the skin, never from the
        # per-subcycle force evaluations themselves
        assert cache.n_builds <= 1 + cfg.n_pm_steps
        assert cache.n_queries >= cache.n_builds


class TestHydroTimerKey:
    def test_hydro_timer_separated_from_short_range(self):
        box = 10.0
        parts = _uniform_gas(box=box)
        cfg = SimulationConfig(
            box=box, pm_grid=8, a_init=0.5, a_final=0.6, n_pm_steps=1,
            gravity=False, static=True,
        )
        sim = Simulation(cfg, parts)
        rec = sim.pm_step()
        assert "hydro" in rec.timers
        assert rec.timers["hydro"] > 0.0
        # gravity off: hydro work must not leak into the gravity timer
        assert rec.timers["short_range"] == 0.0
        assert "hydro" in sim.timing_fractions()


class TestEachPairRowIsMeasuredOnce:
    @staticmethod
    def _gravity_sim(n_pm_steps):
        box = 12.0
        rng = np.random.default_rng(11)
        n = 160
        parts = Particles(
            pos=rng.uniform(0, box, size=(n, 3)),
            vel=np.zeros((n, 3)),
            mass=np.full(n, 5.0),
            species=np.zeros(n, dtype=np.int8),
        )
        cfg = SimulationConfig(
            box=box, pm_grid=8, a_init=0.3, a_final=0.4,
            n_pm_steps=n_pm_steps, static=True,
        )
        return Simulation(cfg, parts)

    @staticmethod
    def _counted(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_geometry_formed_at_the_query_only(self, monkeypatch):
        from repro.core.gravity import short_range
        from repro.tree import pair_cache

        in_query = self._counted(monkeypatch, pair_cache, "pair_geometry")
        in_kernel = self._counted(monkeypatch, short_range, "pair_geometry")
        sim = self._gravity_sim(n_pm_steps=1)
        rec = sim.pm_step()
        assert rec.subcycle.n_pairs > 0
        assert len(in_query) == sim._grav_cache.n_queries > 0
        assert in_kernel == []

    def test_cutoff_bisection_runs_once_per_r_split(self, monkeypatch):
        from repro.core.gravity import force_split

        force_split.recommended_cutoff.cache_clear()
        calls = self._counted(monkeypatch, force_split, "short_range_shape")
        sim = self._gravity_sim(n_pm_steps=2)
        sim.run()
        scalar = [a for a in calls if np.ndim(a[0]) == 0]
        assert 0 < len(scalar) <= 80
        assert {a[1] for a in scalar} == {sim.config.r_split}
