"""Mixed-precision (FP32 short-range) tests."""

import numpy as np
import pytest

from repro.core.gravity import (
    compare_precisions,
    short_range_accelerations,
    short_range_accelerations_fp32,
)
from repro.tree import neighbor_pairs


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(3)
    box = 20.0
    pos = rng.uniform(0, box, (400, 3))
    mass = rng.uniform(1, 2, 400) * 1e10
    r_split, cutoff = 2.0, 9.0
    pi, pj = neighbor_pairs(pos, np.full(400, cutoff), box=box)
    half = pi < pj  # the kernels take each pair once
    return pos, mass, pi[half], pj[half], r_split, box


class TestFP32ShortRange:
    def test_fp32_matches_fp64_closely(self, cloud):
        pos, mass, pi, pj, r_split, box = cloud
        report = compare_precisions(
            pos, mass, pi, pj, r_split=r_split, softening=0.05, box=box
        )
        assert report.rms_relative_error < 1e-3
        assert report.median_relative_error < 1e-4
        assert report.acceptable

    def test_fp32_output_dtype_and_memory(self, cloud):
        pos, mass, pi, pj, r_split, box = cloud
        a32 = short_range_accelerations_fp32(
            pos, mass, pi, pj, r_split=r_split, softening=0.05, box=box
        )
        assert a32.dtype == np.float32
        report = compare_precisions(
            pos, mass, pi, pj, r_split=r_split, softening=0.05, box=box
        )
        assert report.memory_ratio == 0.5

    def test_fp32_error_below_pm_noise(self, cloud):
        """The design criterion: FP32 short-range error must sit well
        below the ~1% PM mesh noise, so it never dominates the force
        error budget (paper's 'without compromising scientific fidelity')."""
        pos, mass, pi, pj, r_split, box = cloud
        report = compare_precisions(
            pos, mass, pi, pj, r_split=r_split, softening=0.05, box=box
        )
        pm_noise_level = 0.01
        assert report.rms_relative_error < 0.1 * pm_noise_level

    def test_antisymmetry_preserved_in_fp32(self):
        pos = np.array([[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]])
        mass = np.array([5e9, 3e9])
        pi, pj = np.array([0]), np.array([1])
        a = short_range_accelerations_fp32(
            pos, mass, pi, pj, r_split=2.0, softening=0.01
        )
        f0 = mass[0] * a[0].astype(np.float64)
        f1 = mass[1] * a[1].astype(np.float64)
        np.testing.assert_allclose(f0, -f1, rtol=1e-5)

    def test_vector_box(self):
        """A per-axis periodic box works in FP32 as it does in FP64."""
        rng = np.random.default_rng(4)
        box = np.array([10.0, 10.0, 12.0])
        pos = rng.uniform(0, 1, (200, 3)) * box
        mass = rng.uniform(1, 2, 200) * 1e10
        pi, pj = neighbor_pairs(pos, np.full(200, 4.0), box=box)
        half = pi < pj
        kw = dict(r_split=1.0, softening=0.05, box=box)
        a32 = short_range_accelerations_fp32(pos, mass, pi[half], pj[half],
                                             **kw)
        a64 = short_range_accelerations(pos, mass, pi[half], pj[half], **kw)
        assert a32.dtype == np.float32
        scale = np.abs(a64).max()
        np.testing.assert_allclose(a32, a64, rtol=0, atol=1e-4 * scale)
        report = compare_precisions(pos, mass, pi[half], pj[half], **kw)
        assert report.acceptable

    def test_directed_rows_rejected(self, cloud):
        pos, mass, pi, pj, r_split, box = cloud
        with pytest.raises(ValueError, match="unordered"):
            short_range_accelerations_fp32(
                pos, mass, np.concatenate([pi, pj]), np.concatenate([pj, pi]),
                r_split=r_split, softening=0.05, box=box)
