"""HOD mock-catalog tests."""

import numpy as np
import pytest

from repro.analysis import (
    FOFCatalog,
    HODParams,
    populate_halos,
    virial_velocity,
)


def make_halo_catalog(masses, box=100.0, seed=0):
    rng = np.random.default_rng(seed)
    n = len(masses)
    return FOFCatalog(
        labels=np.repeat(np.arange(n), 1),
        n_halos=n,
        halo_mass=np.asarray(masses, dtype=np.float64),
        halo_size=np.full(n, 100),
        halo_center=rng.uniform(0, box, (n, 3)),
        halo_vel=rng.normal(0, 300, (n, 3)),
    )


class TestHODParams:
    def test_central_step(self):
        hod = HODParams(log_m_min=12.0, sigma_logm=0.25)
        assert hod.mean_centrals(1e12) == pytest.approx(0.5)
        assert hod.mean_centrals(1e14) == pytest.approx(1.0, abs=1e-6)
        assert hod.mean_centrals(1e10) < 1e-6

    def test_satellite_power_law(self):
        hod = HODParams(log_m0=12.2, log_m1=13.3, alpha=1.0)
        m1 = 10**13.3 + 10**12.2
        assert hod.mean_satellites(m1) == pytest.approx(
            hod.mean_centrals(m1), rel=1e-6
        )
        assert hod.mean_satellites(1e12) == 0.0

    def test_satellites_increase_with_mass(self):
        hod = HODParams()
        m = np.logspace(12.5, 15, 10)
        ns = hod.mean_satellites(m)
        assert np.all(np.diff(ns) > 0)


class TestPopulation:
    def test_massive_halos_hosted(self):
        cat = make_halo_catalog([1e14, 2e14, 5e14])
        gals = populate_halos(cat, box=100.0, rng=np.random.default_rng(1))
        # every cluster-mass halo gets a central
        assert gals.n_centrals == 3
        assert gals.n_satellites > 3  # clusters host satellites

    def test_low_mass_halos_empty(self):
        cat = make_halo_catalog([1e10, 2e10, 5e10])
        gals = populate_halos(cat, box=100.0, rng=np.random.default_rng(2))
        assert len(gals) == 0

    def test_mean_counts_match_hod(self):
        """Over many halos the realized counts track the HOD expectation."""
        masses = np.full(400, 1e14)
        cat = make_halo_catalog(masses)
        gals = populate_halos(cat, box=500.0, rng=np.random.default_rng(3))
        hod = HODParams()
        expected = 400 * (hod.mean_centrals(1e14) + hod.mean_satellites(1e14))
        assert len(gals) == pytest.approx(expected, rel=0.1)

    def test_satellites_within_virial_radius(self):
        box = 200.0
        cat = make_halo_catalog([1e15])
        rho_mean = 1e15 / box**3
        gals = populate_halos(cat, box=box, rng=np.random.default_rng(5),
                              rho_mean=rho_mean)
        r_vir = (3 * 1e15 / (4 * np.pi * 200 * rho_mean)) ** (1 / 3)
        d = gals.positions - cat.halo_center[0]
        d -= box * np.round(d / box)
        r = np.linalg.norm(d, axis=1)
        assert r.max() <= r_vir * 1.0001

    def test_satellite_velocity_dispersion(self):
        box = 200.0
        cat = make_halo_catalog([1e15] * 50, box=box)
        rho_mean = 50 * 1e15 / box**3
        gals = populate_halos(cat, box=box, rng=np.random.default_rng(6),
                              rho_mean=rho_mean)
        sats = ~gals.is_central
        dv = gals.velocities[sats] - cat.halo_vel[gals.host_halo[sats]]
        r_vir = (3 * 1e15 / (4 * np.pi * 200 * rho_mean)) ** (1 / 3)
        sigma_exp = virial_velocity(1e15, r_vir) / np.sqrt(3.0)
        assert dv.std() == pytest.approx(sigma_exp, rel=0.15)

    def test_empty_catalog(self):
        cat = make_halo_catalog([])
        gals = populate_halos(cat, box=100.0)
        assert len(gals) == 0

    def test_galaxy_clustering_exceeds_halo_clustering(self):
        """Satellites inside halos boost small-scale clustering — the
        one-halo term that makes HOD catalogs useful."""
        from repro.analysis import natural_estimator

        rng = np.random.default_rng(7)
        box = 300.0
        masses = 10 ** rng.uniform(13.5, 15.0, 120)
        cat = make_halo_catalog(masses, box=box, seed=8)
        gals = populate_halos(cat, box=box, rng=rng)
        edges = np.array([0.5, 2.0, 8.0])
        xi_gal = natural_estimator(gals.positions, edges, box=box)
        xi_halo = natural_estimator(cat.halo_center, edges, box=box)
        assert xi_gal[0] > xi_halo[0] + 1.0


class TestRedshiftSpace:
    def test_shift_magnitude(self):
        from repro.analysis import redshift_space_positions
        from repro.cosmology import PLANCK18

        pos = np.array([[50.0, 50.0, 50.0]])
        vel = np.array([[0.0, 0.0, 500.0]])
        s = redshift_space_positions(pos, vel, 100.0, PLANCK18, a=1.0)
        expected = 50.0 + 500.0 / PLANCK18.hubble(1.0)
        assert s[0, 2] == pytest.approx(expected)
        np.testing.assert_array_equal(s[0, :2], pos[0, :2])

    def test_fingers_of_god(self):
        """Virialized satellite velocities stretch halos along the line of
        sight in redshift space — the classic anisotropy signature."""
        from repro.analysis import redshift_space_positions
        from repro.cosmology import PLANCK18

        box = 200.0
        cat = make_halo_catalog([1e15] * 40, box=box, seed=9)
        cat.halo_vel[:] = 0.0  # isolate the satellite dispersion
        gals = populate_halos(cat, box=box, rng=np.random.default_rng(10),
                              rho_mean=40 * 1e15 / box**3)
        s = redshift_space_positions(
            gals.positions, gals.velocities, box, PLANCK18, a=1.0
        )
        sats = ~gals.is_central
        d_real = gals.positions[sats] - cat.halo_center[gals.host_halo[sats]]
        d_red = s[sats] - cat.halo_center[gals.host_halo[sats]]
        for d in (d_real, d_red):
            d -= box * np.round(d / box)
        # real space isotropic; redshift space elongated along z
        assert np.std(d_real[:, 2]) == pytest.approx(
            np.std(d_real[:, 0]), rel=0.2
        )
        assert np.std(d_red[:, 2]) > 2.0 * np.std(d_red[:, 0])
