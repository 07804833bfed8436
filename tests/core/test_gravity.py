"""Gravity tests: PM accuracy, force splitting completeness, short-range."""

import numpy as np
import pytest

from repro.constants import G_COSMO
from repro.core.gravity import (
    PMSolver,
    cic_deposit,
    cic_interpolate,
    direct_accelerations,
    long_range_shape,
    newtonian_pair_kernel,
    recommended_cutoff,
    short_range_accelerations,
    short_range_shape,
)
from repro.core.geometry import pair_geometry
from repro.tree import neighbor_pairs


class TestCIC:
    def test_deposit_conserves_mass(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 10, (300, 3))
        mass = rng.uniform(0.5, 2.0, 300)
        n, box = 16, 10.0
        rho = cic_deposit(pos, mass, n, box)
        cell_vol = (box / n) ** 3
        assert rho.sum() * cell_vol == pytest.approx(mass.sum(), rel=1e-12)

    def test_deposit_single_particle_at_cell_center(self):
        """A particle exactly at a cell center deposits all mass in one cell."""
        n, box = 8, 8.0
        pos = np.array([[0.5, 0.5, 0.5]])  # center of cell (0,0,0)
        rho = cic_deposit(pos, np.array([1.0]), n, box)
        assert rho[0, 0, 0] == pytest.approx(1.0, rel=1e-12)
        assert np.count_nonzero(rho) == 1

    def test_interpolate_constant_field(self):
        n, box = 8, 4.0
        field = np.full((n, n, n), 3.5)
        pos = np.random.default_rng(1).uniform(0, box, (50, 3))
        vals = cic_interpolate(field, pos, box)
        np.testing.assert_allclose(vals, 3.5, rtol=1e-12)

    def test_interpolate_vector_field(self):
        n, box = 8, 4.0
        field = np.zeros((n, n, n, 3))
        field[..., 1] = 2.0
        pos = np.random.default_rng(2).uniform(0, box, (20, 3))
        vals = cic_interpolate(field, pos, box)
        np.testing.assert_allclose(vals[:, 1], 2.0, rtol=1e-12)
        np.testing.assert_allclose(vals[:, 0], 0.0)

    def test_deposit_interpolate_roundtrip_linear(self):
        """CIC interpolation of a linear grid field is exact away from wrap."""
        n, box = 16, 16.0
        x = (np.arange(n) + 0.5) * (box / n)
        field = np.broadcast_to(x[:, None, None], (n, n, n)).copy()
        pos = np.random.default_rng(3).uniform(2.0, 14.0, (100, 3))
        vals = cic_interpolate(field, pos, box)
        np.testing.assert_allclose(vals, pos[:, 0], rtol=1e-10)


class TestPMSolver:
    def test_sinusoidal_density_potential(self):
        """Analytic check: delta = sin(k x) -> phi = -coeff sin(k x)/k^2."""
        n, box = 32, 1.0
        solver = PMSolver(n=n, box=box, deconvolve_cic=False)
        kx = 2.0 * np.pi / box * 2  # mode 2
        x = (np.arange(n) + 0.5) * (box / n)
        rho = 1.0 + 0.1 * np.sin(kx * x)[:, None, None] * np.ones((1, n, n))
        coeff = 4.0 * np.pi
        phi = solver.potential(rho, coeff)
        expected = -coeff * 0.1 * np.sin(kx * x) / kx**2
        got = phi[:, 0, 0] - phi[:, 0, 0].mean()
        np.testing.assert_allclose(got, expected - expected.mean(), atol=1e-10)

    def test_acceleration_is_minus_grad_phi(self):
        n, box = 32, 1.0
        solver = PMSolver(n=n, box=box, deconvolve_cic=False)
        kx = 2.0 * np.pi / box * 3
        x = (np.arange(n) + 0.5) * (box / n)
        rho = 1.0 + 0.05 * np.cos(kx * x)[:, None, None] * np.ones((1, n, n))
        acc = solver.acceleration_grid(rho, 4.0 * np.pi)
        expected_ax = -4.0 * np.pi * 0.05 * np.sin(kx * x) / kx
        np.testing.assert_allclose(acc[:, 0, 0, 0], expected_ax, atol=1e-10)
        np.testing.assert_allclose(acc[..., 1], 0.0, atol=1e-10)

    def test_two_particle_pm_force_matches_newton(self):
        """Well-separated particle pair: PM force ~ Newtonian attraction."""
        n, box = 64, 100.0
        solver = PMSolver(n=n, box=box)
        sep = 25.0
        pos = np.array([[37.5, 50.0, 50.0], [37.5 + sep, 50.0, 50.0]])
        mass = np.array([1.0e10, 1.0e10])
        acc = solver.accelerations(pos, mass, coeff=4.0 * np.pi * G_COSMO)
        expected = G_COSMO * mass[1] / sep**2
        # particle 0 pulled toward +x (periodic images contribute ~1%)
        assert acc[0, 0] == pytest.approx(expected, rel=0.05)
        assert acc[1, 0] == pytest.approx(-expected, rel=0.05)

    def test_momentum_conserved_by_pm(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 50, (100, 3))
        mass = rng.uniform(1, 3, 100) * 1e10
        solver = PMSolver(n=32, box=50.0)
        acc = solver.accelerations(pos, mass, coeff=4.0 * np.pi * G_COSMO)
        net = np.sum(mass[:, None] * acc, axis=0)
        scale = np.abs(mass[:, None] * acc).sum()
        assert np.all(np.abs(net) < 1e-8 * scale)

    def test_uniform_density_no_force(self):
        n, box = 16, 8.0
        solver = PMSolver(n=n, box=box)
        rho = np.full((n, n, n), 2.0)
        acc = solver.acceleration_grid(rho, 4.0 * np.pi)
        np.testing.assert_allclose(acc, 0.0, atol=1e-12)


class TestForceSplit:
    def test_shape_functions_sum_to_one(self):
        r = np.linspace(0.01, 10.0, 200)
        rs = 1.3
        np.testing.assert_allclose(
            short_range_shape(r, rs) + long_range_shape(r, rs), 1.0, rtol=1e-12
        )

    def test_short_range_dominates_small_r(self):
        rs = 1.0
        assert short_range_shape(np.array([0.01]), rs)[0] == pytest.approx(1.0, abs=1e-6)

    def test_long_range_dominates_large_r(self):
        rs = 1.0
        assert short_range_shape(np.array([8.0]), rs)[0] < 1e-6

    def test_recommended_cutoff_property(self):
        rs = 2.0
        rc = recommended_cutoff(rs, tol=1e-4)
        assert short_range_shape(np.array([rc * 1.01]), rs)[0] < 1e-4
        assert short_range_shape(np.array([rc * 0.9]), rs)[0] > 1e-4

    def test_zero_split_shape(self):
        np.testing.assert_allclose(short_range_shape(np.ones(3), 0.0), 0.0)
        assert recommended_cutoff(0.0) == 0.0


class TestSplitCompleteness:
    """PM(long) + tree(short) should equal the direct Newtonian force."""

    def test_handover_seamless_two_particles(self):
        """Sweep a particle pair through the handover region: PM(long) +
        pair(short) must recover Newton's 1/r^2 at every separation.

        The box is much larger than the separations so periodic images are
        negligible and the un-Ewald-summed Newtonian force is a valid
        reference (unlike a random cloud, where minimum-image direct
        summation is *not* the true periodic force).
        """
        box, ngrid = 100.0, 64
        r_split = 2.0 * box / ngrid  # ~3 Mpc/h: a few grid cells, HACC-style
        softening = 1e-4
        solver = PMSolver(n=ngrid, box=box, r_split=r_split)
        mass = np.array([1.0e10, 1.0e10])
        pi, pj = np.array([0]), np.array([1])  # the one unordered pair
        # beyond ~3 r_split the periodic-image attraction (a real effect the
        # PM solver includes but the 1/r^2 reference does not) exceeds 1%
        seps = np.array([0.6, 1.0, 1.8, 3.0]) * r_split
        for sep in seps:
            pos = np.array(
                [[50.0 - sep / 2, 50.0, 50.0], [50.0 + sep / 2, 50.0, 50.0]]
            )
            acc_long = solver.accelerations(
                pos, mass, coeff=4.0 * np.pi * G_COSMO
            )
            acc_short = short_range_accelerations(
                pos, mass, pi, pj, r_split=r_split, softening=softening, box=box
            )
            total = acc_long + acc_short
            expected = G_COSMO * mass[1] / sep**2
            assert total[0, 0] == pytest.approx(expected, rel=0.02), sep
            assert total[1, 0] == pytest.approx(-expected, rel=0.02), sep

    def test_short_range_antisymmetry(self):
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        mass = np.array([5.0, 3.0])
        pi, pj = np.array([0]), np.array([1])
        acc = short_range_accelerations(
            pos, mass, pi, pj, r_split=1.0, softening=0.01, box=None
        )
        f0 = mass[0] * acc[0]
        f1 = mass[1] * acc[1]
        np.testing.assert_allclose(f0, -f1, rtol=1e-12)
        assert acc[0, 0] > 0  # pulled toward +x neighbor

    def test_self_and_directed_rows_rejected(self):
        """A symmetric list would double every force: any row with
        ``pi >= pj`` is refused."""
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for pi, pj in (([0, 1], [1, 0]), ([0, 1], [1, 1]), ([1], [0])):
            with pytest.raises(ValueError, match="unordered"):
                short_range_accelerations(pos, np.ones(2), np.array(pi),
                                          np.array(pj), 1.0, 0.1)

    def test_direct_summation_conserves_momentum(self):
        rng = np.random.default_rng(8)
        pos = rng.uniform(0, 5.0, (60, 3))
        mass = rng.uniform(0.5, 2.0, 60)
        acc = direct_accelerations(pos, mass, softening=0.05, g_newton=1.0)
        # each of the n(n-1)/2 pairs pulls both ends; checked against the
        # directed O(N^2) sum
        dx = pos[:, None, :] - pos[None, :, :]
        r2 = np.einsum("ija,ija->ij", dx, dx) + 0.05**2
        want = -np.einsum("j,ij,ija->ia", mass, r2**-1.5, dx)
        np.testing.assert_allclose(acc, want, rtol=1e-12)
        net = np.abs((mass[:, None] * acc).sum(axis=0))
        assert np.all(net <= 1e-13 * np.abs(mass[:, None] * acc).sum())


def _directed_reference(pos, mass, pi, pj, r_split, softening, box,
                        g_newton=G_COSMO):
    """The directed-row kernel the unordered one replaced: each
    orientation of a pair is evaluated and summed into its ``pi`` end."""
    dx, r2 = pair_geometry(pos, pi, pj, box)
    r = np.sqrt(r2)
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = newtonian_pair_kernel(r, softening)
        if r_split > 0:
            kern = kern * short_range_shape(r, r_split)
        contrib = np.where(r2[:, None] > 0,
                           -g_newton * (mass[pj] * kern)[:, None]
                           * (dx / r[:, None]), 0.0)
    out = np.zeros((len(pos), 3))
    np.add.at(out, pi, contrib)
    return out


class TestCarriedGeometry:
    """``short_range_accelerations`` takes each pair once (``pi < pj``) and
    applies it to both ends; it consumes the ``(dx, r2)`` a cache query
    carries, and the forces are bitwise those it computes from
    positions."""

    @staticmethod
    def _setup(box):
        rng = np.random.default_rng(23)
        n = 140
        pos = rng.uniform(0, 9.0, (n, 3))
        pos[17] = pos[4]  # two coincident particles, listed as a pair
        mass = rng.uniform(0.5, 2.0, n)
        pi, pj = neighbor_pairs(pos, 1.6, box=box)  # self pairs included
        assert np.any(pi == pj)
        assert np.any((pi == 4) & (pj == 17))
        half = pi < pj
        return pos, mass, pi, pj, pi[half], pj[half]

    @pytest.mark.parametrize("box", [9.0, None])
    def test_matches_the_directed_sum(self, box):
        pos, mass, pi, pj, hi, hj = self._setup(box)
        kw = dict(r_split=0.6, softening=0.05, box=box)
        got = short_range_accelerations(pos, mass, hi, hj, **kw)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(
            got, _directed_reference(pos, mass, pi, pj, **kw), rtol=1e-12,
            atol=1e-12 * np.abs(got).max())

    @pytest.mark.parametrize("box", [9.0, None])
    def test_supplied_geometry_gives_the_same_forces(self, box):
        pos, mass, _, _, pi, pj = self._setup(box)
        dx, r2 = pair_geometry(pos, pi, pj, box)
        kw = dict(r_split=0.6, softening=0.05, box=box)
        full = short_range_accelerations(pos, mass, pi, pj, **kw)
        assert np.array_equal(
            short_range_accelerations(pos, mass, pi, pj, dx=dx, r2=r2, **kw),
            full,
        )
        # half-supplied geometry: the missing r2 is formed from dx
        assert np.array_equal(
            short_range_accelerations(pos, mass, pi, pj, dx=dx, **kw), full)
        # the rows touching a sink, in order, give that sink its full bits
        sinks = np.arange(3, len(pos), 4)
        m = np.isin(pi, sinks) | np.isin(pj, sinks)
        part = short_range_accelerations(pos, mass, pi[m], pj[m],
                                         dx=dx[m], r2=r2[m], **kw)
        assert np.array_equal(part[sinks], full[sinks])

    def test_zero_separation_rows_add_nothing(self):
        """Coincident particles (r == 0) contribute exact zeros, also
        unsoftened: dropping their row leaves every force bitwise
        unchanged."""
        pos, mass, _, _, pi, pj = self._setup(9.0)
        _, r2 = pair_geometry(pos, pi, pj, 9.0)
        assert np.any(r2 == 0)
        for softening in (0.05, 0.0):
            kw = dict(r_split=0.6, softening=softening, box=9.0)
            with_zero = short_range_accelerations(pos, mass, pi, pj, **kw)
            assert np.all(np.isfinite(with_zero))
            m = r2 > 0
            assert np.array_equal(
                short_range_accelerations(pos, mass, pi[m], pj[m], **kw),
                with_zero,
            )
