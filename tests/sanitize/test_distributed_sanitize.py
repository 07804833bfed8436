"""Distributed runs under the sanitizers: clean overlap runs are silent
and bit-identical; injected faults are caught with attribution."""

import numpy as np
import pytest

from repro.cosmology import PLANCK18, zeldovich_ics
from repro.parallel.comm import CommError
from repro.parallel.distributed_sim import DistributedConfig, DistributedSimulation


@pytest.fixture(scope="module")
def ic_setup():
    box = 100.0
    ics = zeldovich_ics(8, box, PLANCK18, a_init=0.2, seed=17)
    mass = np.full(8**3, ics.particle_mass)
    return box, ics.positions, ics.velocities, mass


def _config(box, **kw):
    defaults = dict(
        box=box, pm_grid=32, a_init=0.2, a_final=0.3, n_pm_steps=2,
        cosmo=PLANCK18, r_split_cells=1.0,
    )
    defaults.update(kw)
    return DistributedConfig(**defaults)


class TestCleanOverlapRun:
    def test_four_rank_overlap_run_is_clean_and_bit_identical(self, ic_setup):
        """The acceptance bar: a clean 4-rank comm_mode="overlap" run with
        every sanitizer armed reports zero findings and does not perturb
        the trajectory."""
        box, pos, vel, mass = ic_setup
        plain = DistributedSimulation(_config(box, comm_mode="overlap"), 4)
        p0, v0, i0 = plain.run(pos, vel, mass)
        checked = DistributedSimulation(
            _config(box, comm_mode="overlap", sanitize=True), 4
        )
        p1, v1, i1 = checked.run(pos, vel, mass)  # would raise on findings
        assert np.array_equal(p0, p1)
        assert np.array_equal(v0, v1)
        np.testing.assert_array_equal(i0, i1)
        assert checked.world.sanitizer is not None
        assert checked.world.sanitizer.findings == []

    def test_blocking_mode_also_clean(self, ic_setup):
        box, pos, vel, mass = ic_setup
        sim = DistributedSimulation(_config(box, sanitize=True), 2)
        sim.run(pos, vel, mass)
        assert sim.world.sanitizer.findings == []


class TestInjectedFaults:
    def test_nan_velocity_is_caught_with_phase_attribution(self, ic_setup):
        box, pos, vel, mass = ic_setup
        bad_vel = vel.copy()
        bad_vel[5, 2] = np.nan
        sim = DistributedSimulation(_config(box, sanitize=True), 2)
        with pytest.raises(CommError) as exc:
            sim.run(pos, bad_vel, mass)
        msg = str(exc.value)
        assert "NumericsError" in msg or "non-finite" in msg
        assert "half-kick" in msg or "migration" in msg

    def test_nan_caught_under_overlap_too(self, ic_setup):
        """The overlap engine's error path must cancel its posted
        requests: the numerics failure surfaces as the primary error, not
        as a sanitizer leak report or a hang."""
        box, pos, vel, mass = ic_setup
        bad_vel = vel.copy()
        bad_vel[0, 0] = np.inf
        sim = DistributedSimulation(
            _config(box, comm_mode="overlap", sanitize=True), 4
        )
        with pytest.raises(CommError) as exc:
            sim.run(pos, bad_vel, mass)
        assert "leaked-request" not in str(exc.value)
