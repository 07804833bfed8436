"""Occupancy model tests."""

import pytest

from repro.gpusim import (
    H100_SXM5,
    MI250X_GCD,
    OccupancyModel,
    hydro_force_kernel,
    warp_splitting_occupancy_gain,
)


class TestOccupancyModel:
    def setup_method(self):
        self.model = OccupancyModel()

    def test_fewer_registers_more_warps(self):
        w_low = self.model.resident_warps(32, warp_size=64)
        w_high = self.model.resident_warps(128, warp_size=64)
        assert w_low > w_high

    def test_warp_cap(self):
        assert self.model.resident_warps(1, warp_size=32) == 32

    def test_register_file_arithmetic(self):
        # 64 regs x 64 lanes = 4096 regs/warp -> 65536/4096 = 16 warps
        assert self.model.resident_warps(64, warp_size=64) == 16
        # 32-wide warps fit twice as many
        assert self.model.resident_warps(64, warp_size=32) == 32

    def test_allocation_granularity(self):
        """Registers round up to multiples of 8."""
        assert self.model.resident_warps(57, warp_size=64) == \
            self.model.resident_warps(64, warp_size=64)

    def test_occupancy_bounds(self):
        for regs in (8, 64, 255):
            occ = self.model.occupancy(regs, 64)
            assert 0.0 < occ <= 1.0

    def test_latency_hiding_saturates(self):
        m = self.model
        assert m.latency_hiding_efficiency(m.saturation_occupancy) == 1.0
        assert m.latency_hiding_efficiency(1.0) == 1.0
        assert m.latency_hiding_efficiency(m.saturation_occupancy / 2) == 0.5

    def test_invalid_registers(self):
        with pytest.raises(ValueError):
            self.model.resident_warps(0, 64)


class TestWarpSplittingGain:
    def test_split_never_worse(self):
        kern = hydro_force_kernel()
        for device in (MI250X_GCD, H100_SXM5):
            gain = warp_splitting_occupancy_gain(kern, device)
            assert gain["split"]["registers"] < gain["naive"]["registers"]
            assert gain["split"]["occupancy"] >= gain["naive"]["occupancy"]
            assert gain["efficiency_gain"] >= 1.0

    def test_heavy_kernel_gains_on_wide_warps(self):
        """The 64-wide AMD wavefront is more register-file constrained, so
        the register saving buys real occupancy there."""
        kern = hydro_force_kernel()
        gain = warp_splitting_occupancy_gain(kern, MI250X_GCD)
        assert gain["split"]["resident_warps"] > gain["naive"]["resident_warps"]
