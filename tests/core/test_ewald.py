"""Ewald summation tests + the definitive force-split validation."""

import numpy as np
import pytest

from repro.constants import G_COSMO
from repro.core.gravity import (
    PMSolver,
    ewald_accelerations,
    recommended_cutoff,
    short_range_accelerations,
)
from repro.tree import neighbor_pairs


class TestEwaldReference:
    def test_close_pair_is_newtonian(self):
        box = 100.0
        pos = np.array([[49.0, 50.0, 50.0], [51.0, 50.0, 50.0]])
        mass = np.array([1e10, 1e10])
        a = ewald_accelerations(pos, mass, box)
        newton = G_COSMO * 1e10 / 4.0
        assert a[0, 0] == pytest.approx(newton, rel=1e-3)
        np.testing.assert_allclose(a[0], -a[1], rtol=1e-12, atol=1e-12)

    def test_momentum_conserved(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 10, (20, 3))
        mass = rng.uniform(1, 2, 20) * 1e9
        a = ewald_accelerations(pos, mass, 10.0)
        net = np.abs((mass[:, None] * a).sum(axis=0)).max()
        scale = np.abs(mass[:, None] * a).sum()
        assert net < 1e-12 * scale

    def test_truncation_converged(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 10, (15, 3))
        mass = rng.uniform(1, 2, 15) * 1e9
        a = ewald_accelerations(pos, mass, 10.0)
        a_hi = ewald_accelerations(pos, mass, 10.0, n_real=3, n_fourier=7)
        assert np.abs(a - a_hi).max() < 1e-9 * np.abs(a_hi).max()

    def test_alpha_independence(self):
        """The split parameter must not change the physical answer."""
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 10, (12, 3))
        mass = rng.uniform(1, 2, 12) * 1e9
        a1 = ewald_accelerations(pos, mass, 10.0, alpha=0.15,
                                 n_real=3, n_fourier=7)
        a2 = ewald_accelerations(pos, mass, 10.0, alpha=0.3,
                                 n_real=3, n_fourier=7)
        np.testing.assert_allclose(a1, a2, rtol=1e-6,
                                   atol=1e-9 * np.abs(a1).max())

    def test_uniform_lattice_zero_force(self):
        """A perfect lattice feels no net force by symmetry."""
        n = 4
        coords = (np.arange(n) + 0.5) * (8.0 / n)
        g = np.meshgrid(coords, coords, coords, indexing="ij")
        pos = np.stack([c.ravel() for c in g], axis=-1)
        mass = np.ones(len(pos)) * 1e9
        a = ewald_accelerations(pos, mass, 8.0)
        # scale: force from one neighbor at lattice spacing
        scale = G_COSMO * 1e9 / 2.0**2
        assert np.abs(a).max() < 1e-8 * scale


class TestForceSplitVsEwald:
    """The definitive completeness test: PM(long) + tree(short) must equal
    the true periodic (Ewald) force for a random particle cloud — the
    validation the paper's separation-of-scales design rests on."""

    def test_random_cloud_total_force(self):
        rng = np.random.default_rng(5)
        n_part, box, ngrid = 48, 20.0, 64
        pos = rng.uniform(0, box, (n_part, 3))
        mass = rng.uniform(1, 2, n_part) * 1e10
        r_split = 2.0 * box / ngrid
        softening = 1e-4
        cutoff = recommended_cutoff(r_split, tol=1e-5)

        solver = PMSolver(n=ngrid, box=box, r_split=r_split)
        acc_long = solver.accelerations(pos, mass, coeff=4 * np.pi * G_COSMO)
        pi, pj = neighbor_pairs(pos, np.full(n_part, cutoff), box=box)
        half = pi < pj
        pi, pj = pi[half], pj[half]
        acc_short = short_range_accelerations(
            pos, mass, pi, pj, r_split=r_split, softening=softening, box=box
        )
        total = acc_long + acc_short

        exact = ewald_accelerations(pos, mass, box, softening=softening)
        err = np.linalg.norm(total - exact, axis=1)
        ref = np.linalg.norm(exact, axis=1)
        rel = err / np.maximum(ref, np.percentile(ref, 20))
        # PM mesh noise dominates the residual; typical TreePM accuracy
        assert np.median(rel) < 0.02
        assert np.percentile(rel, 95) < 0.10
