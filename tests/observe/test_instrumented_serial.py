"""Serial driver instrumentation: spans, registry views, determinism."""

import numpy as np
import pytest

from repro.core.simulation import PHASE_KEYS, Simulation, SimulationConfig
from repro.cosmology import PLANCK18, zeldovich_ics
from repro.core.particles import make_gas_dm_pair
from repro.observe import Observatory
from repro.observe.taxonomy import SERIAL_PHASES


def _small_sim(observe=None, seed=9, n_pm_steps=2):
    box = 20.0
    ics = zeldovich_ics(5, box, PLANCK18, a_init=0.25, seed=seed)
    parts = make_gas_dm_pair(
        ics.positions, ics.velocities, ics.particle_mass,
        PLANCK18.omega_b, PLANCK18.omega_m, u_init=20.0, box=box,
    )
    cfg = SimulationConfig(
        box=box, pm_grid=12, a_init=0.25, a_final=0.35,
        n_pm_steps=n_pm_steps, cosmo=PLANCK18, max_rung=2,
    )
    return Simulation(cfg, parts, observe=observe)


class TestStepRecordShape:
    def test_timers_public_dict_shape_unchanged(self):
        """StepRecord.timers is now a registry view but keeps the public
        mapping behaviour consumers relied on."""
        sim = _small_sim()
        records = sim.run()
        for rec in records:
            assert set(rec.timers) == set(PHASE_KEYS)
            assert all(isinstance(v, float) for v in rec.timers.values())
            assert sum(rec.timers.values()) > 0.0
        assert PHASE_KEYS == SERIAL_PHASES

    def test_timers_are_registry_views(self):
        obs = Observatory()
        sim = _small_sim(observe=obs)
        records = sim.run()
        keys = [k for k in obs.registry.names() if k.startswith("sim")]
        assert len(keys) == len(records) * len(PHASE_KEYS)
        for rec in records:
            for phase in PHASE_KEYS:
                (full,) = [k for k in keys
                           if k.endswith(f"step{rec.step:05d}/{phase}")]
                assert obs.registry.get(full).value == rec.timers[phase]

    def test_subcycle_stats_absorbed(self):
        obs = Observatory()
        sim = _small_sim(observe=obs)
        records = sim.run()
        total_sub = sum(r.n_substeps for r in records)
        assert obs.registry.get("subcycle/n_substeps").value == total_sub
        assert obs.registry.get("subcycle/active_fraction").count == \
            len(records)

    def test_pair_cache_builds_published_each_step(self):
        """Each PM step adds its caches' builds and rebuild reasons to the
        run's counters, so a run's rebuilds read off its metrics."""
        obs = Observatory()
        sim = _small_sim(observe=obs, n_pm_steps=3)
        reg = obs.registry
        caches = {"gravity": sim._grav_cache, "hydro": sim._hydro_cache}
        for _ in range(3):
            sim.pm_step()
            for name, cache in caches.items():
                assert reg.get(f"pair_cache/builds{{cache={name}}}").value \
                    == cache.n_builds
                for reason in ("drift", "h", "ids"):
                    key = f"pair_cache/rebuilds{{cache={name},reason={reason}}}"
                    assert reg.get(key).value == \
                        getattr(cache, f"n_rebuilds_{reason}")
        assert sim._hydro_cache.n_builds >= 1

    def test_timing_summary_matches_records(self):
        sim = _small_sim()
        sim.run()
        summary = sim.timing_summary()
        for phase in PHASE_KEYS:
            expect = sum(r.timers[phase] for r in sim.history)
            assert summary[phase] == pytest.approx(expect, abs=1e-12)
        fr = sim.timing_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)


class TestSerialTrace:
    def test_step_spans_wrap_phase_spans(self):
        obs = Observatory(tracing=True)
        sim = _small_sim(observe=obs)
        records = sim.run()
        steps = obs.tracer.spans("step")
        assert len(steps) == len(records)
        assert all(s.cat == "driver" and s.depth == 0 for s in steps)
        # every phase span sits strictly inside a step span
        for phase in ("tree_build", "long_range", "short_range", "hydro"):
            for ev in obs.tracer.spans(phase):
                assert ev.depth >= 1
                host = [s for s in steps
                        if s.ts - 1e-9 <= ev.ts
                        and ev.ts + ev.dur <= s.ts + s.dur + 1e-9]
                assert host, f"{phase} span not inside any step span"

    def test_step_span_args_carry_step_and_a(self):
        obs = Observatory(tracing=True)
        sim = _small_sim(observe=obs, n_pm_steps=1)
        sim.run()
        (step,) = obs.tracer.spans("step")
        assert step.args["step"] == 0
        assert step.args["a"] == pytest.approx(0.25)

    def test_span_structure_deterministic_across_runs(self):
        """Same configuration, same seed -> identical span skeleton
        (names, nesting, order); timestamps are free to differ."""

        def structure():
            obs = Observatory(tracing=True)
            sim = _small_sim(observe=obs)
            sim.run()
            return list(obs.tracer.structure().values())

        assert structure() == structure()

    def test_no_events_recorded_when_off(self):
        obs = Observatory()
        sim = _small_sim(observe=obs)
        sim.run()
        assert obs.tracing is False
        assert not hasattr(obs.tracer, "events")
