"""Distributed simulation tests: rank-decomposed = serial, to roundoff."""

import numpy as np
import pytest

from repro.cosmology import PLANCK18, zeldovich_ics
from repro.parallel.distributed_sim import DistributedConfig, DistributedSimulation


@pytest.fixture(scope="module")
def ic_setup():
    box = 100.0
    n = 8
    ics = zeldovich_ics(n, box, PLANCK18, a_init=0.2, seed=17)
    mass = np.full(n**3, ics.particle_mass)
    return box, ics.positions, ics.velocities, mass


def make_config(box, **kw):
    # r_split of 1 grid cell keeps the short-range cutoff (~6.5 r_split
    # at the 1e-4 force tolerance) below half the narrowest rank domain
    # even at 8 ranks (50 Mpc/h wide)
    defaults = dict(
        box=box, pm_grid=32, a_init=0.2, a_final=0.3, n_pm_steps=2,
        cosmo=PLANCK18, r_split_cells=1.0,
    )
    defaults.update(kw)
    return DistributedConfig(**defaults)


class TestDistributedEqualsSerial:
    def test_two_ranks_match_one_rank(self, ic_setup):
        box, pos, vel, mass = ic_setup
        cfg = make_config(box)
        p1, v1, _ = DistributedSimulation(cfg, 1).run(pos, vel, mass)
        p2, v2, _ = DistributedSimulation(cfg, 2).run(pos, vel, mass)
        d = p1 - p2
        d -= box * np.round(d / box)
        assert np.abs(d).max() < 1e-8
        np.testing.assert_allclose(v1, v2, atol=1e-8)

    def test_eight_ranks_match_one_rank(self, ic_setup):
        box, pos, vel, mass = ic_setup
        cfg = make_config(box)
        p1, v1, _ = DistributedSimulation(cfg, 1).run(pos, vel, mass)
        p8, v8, _ = DistributedSimulation(cfg, 8).run(pos, vel, mass)
        d = p1 - p8
        d -= box * np.round(d / box)
        assert np.abs(d).max() < 1e-8
        np.testing.assert_allclose(v1, v8, atol=1e-8)

    def test_ids_preserved(self, ic_setup):
        box, pos, vel, mass = ic_setup
        cfg = make_config(box)
        _, _, ids = DistributedSimulation(cfg, 4).run(pos, vel, mass)
        np.testing.assert_array_equal(ids, np.arange(len(pos)))


class TestPhysicsSanity:
    def test_structure_grows(self, ic_setup):
        """Clustering increases over the run (gravity is attractive)."""
        from repro.core.gravity.pm import cic_deposit

        box, pos, vel, mass = ic_setup
        cfg = make_config(box, a_final=0.45, n_pm_steps=5)
        p_out, _, _ = DistributedSimulation(cfg, 4).run(pos, vel, mass)

        def rms(p):
            rho = cic_deposit(p, mass, 16, box)
            return (rho / rho.mean() - 1.0).std()

        assert rms(p_out) > rms(pos) * 1.2

    def test_momentum_roughly_conserved(self, ic_setup):
        box, pos, vel, mass = ic_setup
        # static (Newtonian) mode needs a *short* time span: cosmology-unit
        # masses give huge accelerations, and unbounded drift would blow up
        # the spatial structures (the chaining mesh guards against this)
        cfg = make_config(box, static=True, a_init=0.0, a_final=1.0e-5,
                          n_pm_steps=2)
        _, v_out, _ = DistributedSimulation(cfg, 2).run(pos, vel, mass)
        p_in = (mass[:, None] * vel).sum(axis=0)
        p_out = (mass[:, None] * v_out).sum(axis=0)
        scale = np.abs(mass[:, None] * v_out).sum() + 1e-30
        assert np.all(np.abs(p_out - p_in) < 1e-6 * scale)


class TestValidation:
    def test_too_many_ranks_rejected(self, ic_setup):
        box, *_ = ic_setup
        cfg = make_config(box)
        # 64 ranks on a 100 box -> 25-wide domains < 2x cutoff (~41)
        with pytest.raises(ValueError, match="cutoff"):
            DistributedSimulation(cfg, 64)


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_rank_green_tables_are_the_serial_ones_on_the_half_grid(n_ranks):
    """The serial PM solve (rfft layout) and the rank solve (full-complex
    y-slabs) filter with the same Green's function: on the non-negative
    z frequencies both layouts hold, the tables agree bitwise."""
    from repro.core.gravity.pm import PMSolver
    from repro.parallel import World, slab_bounds
    from repro.parallel.decomposition import make_decomposition
    from repro.parallel.distributed_sim import RankDomain

    cfg = make_config(120.0)
    n = cfg.pm_grid
    serial = PMSolver(n=n, box=cfg.box, r_split=cfg.r_split)._green

    def rank_green(comm):
        rank = RankDomain(comm, cfg, make_decomposition(cfg.box, n_ranks), {
            "pos": np.zeros((0, 3)), "vel": np.zeros((0, 3)),
            "mass": np.zeros(0), "u": np.zeros(0),
            "ids": np.zeros(0, dtype=np.int64),
            "gas": np.zeros(0, dtype=bool),
        })
        return rank._green_tables()[0]

    for r, green in enumerate(World(n_ranks).run(rank_green)):
        ys, ye = slab_bounds(n, n_ranks, r)
        assert green.shape == (n, ye - ys, n)
        assert np.array_equal(green[..., : n // 2 + 1], serial[:, ys:ye])
