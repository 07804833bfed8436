"""Power spectrum measurement and mass function tests."""

import numpy as np
import pytest

from repro.analysis import (
    cluster_count,
    halo_mass_function,
    measure_power_spectrum,
    press_schechter_mass_function,
)
from repro.cosmology import PLANCK18, LinearPower, gaussian_field


class TestPowerMeasurement:
    def test_random_particles_shot_noise(self):
        """Poisson particles: P(k) ~ V/N (shot noise) at all k."""
        rng = np.random.default_rng(0)
        n, box = 5000, 100.0
        pos = rng.uniform(0, box, (n, 3))
        k, pk = measure_power_spectrum(pos, np.ones(n), box, n_grid=32)
        sel = np.isfinite(pk) & (k < 0.8)  # avoid Nyquist cells
        expected = box**3 / n
        assert np.nanmean(pk[sel]) == pytest.approx(expected, rel=0.25)

    def test_shot_noise_subtraction(self):
        rng = np.random.default_rng(1)
        n, box = 5000, 100.0
        pos = rng.uniform(0, box, (n, 3))
        k, pk = measure_power_spectrum(
            pos, np.ones(n), box, n_grid=32, subtract_shot_noise=True
        )
        sel = np.isfinite(pk) & (k < 0.8)
        assert abs(np.nanmean(pk[sel])) < 0.3 * box**3 / n

    def test_single_mode_recovered(self):
        """Particles weighted by a cosine mode show power at that k only."""
        box, ng = 100.0, 32
        # use a displaced lattice carrying one mode
        npd = 32
        coords = (np.arange(npd) + 0.5) * (box / npd)
        gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
        pos = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        kmode = 2 * np.pi / box * 4
        amp = 0.5
        pos[:, 0] += amp * np.sin(kmode * pos[:, 0])  # Zel'dovich-like mode
        pos = np.mod(pos, box)
        k, pk = measure_power_spectrum(pos, np.ones(len(pos)), box, n_grid=ng)
        peak_k = k[np.nanargmax(pk)]
        assert peak_k == pytest.approx(kmode, rel=0.2)

    def test_gaussian_field_realization_consistency(self):
        """Sampling particles from a Gaussian field recovers its P(k) shape."""
        power = LinearPower(PLANCK18)
        box, ng = 500.0, 32
        delta = gaussian_field(ng, box, power, a=1.0, seed=7)
        # Poisson-sample tracers with rate proportional to (1 + delta)
        rng = np.random.default_rng(8)
        lam = np.clip(1.0 + delta, 0.0, None)
        counts = rng.poisson(lam * 3.0)
        idx = np.nonzero(counts.ravel())[0]
        reps = counts.ravel()[idx]
        cell = box / ng
        base = np.stack(np.unravel_index(idx, (ng, ng, ng)), axis=-1) * cell
        pos = np.repeat(base, reps, axis=0) + rng.uniform(0, cell, (reps.sum(), 3))
        k, pk = measure_power_spectrum(
            pos, np.ones(len(pos)), box, n_grid=ng, subtract_shot_noise=True
        )
        sel = (k > 0.03) & (k < 0.1) & np.isfinite(pk)
        expected = power(k[sel])
        ratio = np.nanmean(pk[sel] / expected)
        assert ratio == pytest.approx(1.0, abs=0.45)

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError):
            measure_power_spectrum(np.empty((0, 3)), np.empty(0), 10.0, n_grid=8)


class TestMassFunction:
    def test_binning_counts(self):
        masses = np.array([1e12, 2e12, 5e13, 1e14, 2e14])
        m, dn, counts = halo_mass_function(masses, box=100.0, n_bins=5)
        assert counts.sum() == 5
        assert np.all(dn >= 0)

    def test_volume_normalization(self):
        masses = np.full(100, 1e13)
        _, dn1, _ = halo_mass_function(masses, box=100.0, n_bins=1,
                                       m_min=1e12, m_max=1e14)
        _, dn2, _ = halo_mass_function(masses, box=200.0, n_bins=1,
                                       m_min=1e12, m_max=1e14)
        assert dn1[0] / dn2[0] == pytest.approx(8.0)

    def test_empty_catalog(self):
        m, dn, counts = halo_mass_function(np.array([]), box=10.0)
        assert len(m) == 0

    def test_press_schechter_shape(self):
        """PS mass function decreases with mass and falls exponentially at
        the cluster scale."""
        masses = np.logspace(12, 15, 8)
        dn = press_schechter_mass_function(masses, PLANCK18, a=1.0)
        assert np.all(np.diff(np.log(dn)) < 0)
        # exponential cutoff: slope steepens
        slopes = np.diff(np.log(dn)) / np.diff(np.log(masses))
        assert slopes[-1] < slopes[0]

    def test_press_schechter_growth(self):
        """Cluster-scale abundance grows strongly with time."""
        m = np.array([1e14])
        early = press_schechter_mass_function(m, PLANCK18, a=0.5)
        late = press_schechter_mass_function(m, PLANCK18, a=1.0)
        assert late[0] > 2.0 * early[0]

    def test_cluster_count(self):
        masses = np.array([1e13, 5e13, 1e14, 3e14])
        assert cluster_count(masses) == 2
        assert cluster_count(masses, m_cluster=1e13) == 4
