"""Distributed FFT (SWFFT analog) tests against numpy.fft."""

import numpy as np
import pytest

from repro.core.gravity.pm import build_green_tables
from repro.parallel import (
    DistributedFFT,
    World,
    gather_slabs,
    scatter_slabs,
    slab_bounds,
)


def run_forward(field, n_ranks):
    """Distributed forward FFT of a global field; returns global spectrum."""
    n = field.shape[0]
    slabs = scatter_slabs(field, n_ranks)

    def fn(comm):
        fft = DistributedFFT(comm, n)
        return fft.forward(slabs[comm.rank])

    world = World(n_ranks)
    out = world.run(fn)
    # forward output is y-slab layout: (n, y_local, n) per rank
    return np.concatenate(out, axis=1)


class TestSlabBounds:
    def test_even_split(self):
        assert [slab_bounds(8, 4, r) for r in range(4)] == [
            (0, 2), (2, 4), (4, 6), (6, 8),
        ]

    def test_uneven_split_covers_everything(self):
        bounds = [slab_bounds(10, 3, r) for r in range(3)]
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
            assert e0 == s1

    def test_scatter_gather_roundtrip(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(9, 9, 9))
        np.testing.assert_array_equal(
            gather_slabs(scatter_slabs(field, 4)), field
        )


class TestDistributedFFT:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_forward_matches_numpy(self, n_ranks):
        rng = np.random.default_rng(1)
        n = 8
        field = rng.normal(size=(n, n, n))
        spec = run_forward(field, n_ranks)
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-10)

    def test_forward_uneven_slabs(self):
        rng = np.random.default_rng(2)
        n = 10
        field = rng.normal(size=(n, n, n))
        spec = run_forward(field, 3)
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-10)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        n, n_ranks = 8, 4
        field = rng.normal(size=(n, n, n))
        slabs = scatter_slabs(field, n_ranks)

        def fn(comm):
            fft = DistributedFFT(comm, n)
            spec = fft.forward(slabs[comm.rank])
            return fft.inverse(spec)

        world = World(n_ranks)
        out = world.run(fn)
        recon = np.concatenate(out, axis=0).real
        np.testing.assert_allclose(recon, field, atol=1e-12)

    def test_distributed_poisson_matches_serial(self):
        """Green's-function application agrees with the serial PM solve."""
        rng = np.random.default_rng(4)
        n, box, n_ranks = 8, 4.0, 2
        rho = rng.normal(1.0, 0.1, size=(n, n, n))
        coeff = 4.0 * np.pi
        slabs = scatter_slabs(rho - rho.mean(), n_ranks)

        def fn(comm):
            fft = DistributedFFT(comm, n)
            spec = fft.forward(slabs[comm.rank])
            green = build_green_tables(
                n, box, deconvolve_cic=False, half_z=False,
                y_slab=slab_bounds(n, comm.size, comm.rank),
            )[-1]
            return fft.inverse(coeff * green * spec)

        world = World(n_ranks)
        phi = np.concatenate(world.run(fn), axis=0).real

        # serial reference (full-complex FFT, same convention)
        dk = 2 * np.pi / box
        k1 = np.fft.fftfreq(n, d=1.0 / n) * dk
        k2 = (
            k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k1[None, None, :] ** 2
        )
        g = np.zeros_like(k2)
        g[k2 > 0] = -coeff / k2[k2 > 0]
        ref = np.fft.ifftn(g * np.fft.fftn(rho - rho.mean())).real
        np.testing.assert_allclose(phi, ref, atol=1e-12)

    def test_grid_too_small(self):
        world = World(4)

        def fn(comm):
            DistributedFFT(comm, 2)

        with pytest.raises(Exception, match="grid too small"):
            world.run(fn)
