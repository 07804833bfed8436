"""Warp-splitting executor tests: correctness, coverage, traffic profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    H100_SXM5,
    MI250X_GCD,
    PVC_TILE,
    OpCounters,
    SeparablePairKernel,
    coulomb_kernel,
    crk_coefficient_kernel,
    execute_leaf_pair_naive,
    execute_leaf_pair_warpsplit,
    sph_density_kernel,
)


def direct_density(pos_i, pos_j, m_j, h):
    out = np.zeros(len(pos_i))
    for j in range(len(pos_j)):
        d = pos_i - pos_j[j]
        r = np.sqrt((d**2).sum(axis=1))
        q = np.clip(r / h, 0, 1)
        u = 1 - q
        w = np.where(
            r < h, 495 / (32 * np.pi) / h**3 * u**6 * (1 + 6 * q + 35 / 3 * q**2), 0
        )
        out += m_j[j] * w
    return out


def pair_count_kernel() -> SeparablePairKernel:
    """phi_i counts partners: verifies each (i, j) visited exactly once."""
    return SeparablePairKernel(
        name="pair_count",
        fields_i=(),
        fields_j=(),
        f_i=lambda s: 1.0,
        g_j=lambda s: 1.0,
        h_ij=lambda pi, pj, si, sj: np.ones(len(pi)),
        combine=lambda f, g, h: f * g * h,
    )


class TestCorrectness:
    @pytest.mark.parametrize("device", [MI250X_GCD, PVC_TILE, H100_SXM5])
    @pytest.mark.parametrize("ni,nj", [(5, 7), (32, 32), (37, 53), (128, 96)])
    def test_density_matches_direct(self, device, ni, nj):
        rng = np.random.default_rng(ni * 100 + nj)
        pos_i = rng.uniform(0, 1, (ni, 3))
        pos_j = rng.uniform(0, 1, (nj, 3))
        m = rng.uniform(1, 2, nj)
        k = sph_density_kernel()
        phi, _, _ = execute_leaf_pair_warpsplit(
            k, pos_i, {"h": np.full(ni, 0.5)}, pos_j, {"m": m}, device
        )
        np.testing.assert_allclose(phi, direct_density(pos_i, pos_j, m, 0.5),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("device", [MI250X_GCD, H100_SXM5])
    def test_pair_coverage_exact(self, device):
        """Every (i, j) pair evaluated exactly once, odd sizes included."""
        for ni, nj in [(1, 1), (3, 65), (33, 31), (64, 64), (100, 17)]:
            phi, _, _ = execute_leaf_pair_warpsplit(
                pair_count_kernel(),
                np.zeros((ni, 3)),
                {},
                np.zeros((nj, 3)),
                {},
                device,
            )
            np.testing.assert_allclose(phi, nj)

    def test_symmetric_reaction_accumulated(self):
        """Pair-energy kernel: phi_j reaction equals direct j-side sum."""
        rng = np.random.default_rng(3)
        ni, nj = 40, 24
        pos_i = rng.uniform(0, 1, (ni, 3))
        pos_j = rng.uniform(2, 3, (nj, 3))  # disjoint: no self pairs
        qi = rng.uniform(1, 2, ni)
        qj = rng.uniform(1, 2, nj)
        k = coulomb_kernel(k_e=1.0, softening=0.1)
        phi_i, phi_j, _ = execute_leaf_pair_warpsplit(
            k, pos_i, {"q": qi}, pos_j, {"q": qj}, MI250X_GCD
        )
        # direct
        ref_i = np.zeros(ni)
        ref_j = np.zeros(nj)
        for j in range(nj):
            d = pos_i - pos_j[j]
            val = qi * qj[j] / np.sqrt((d**2).sum(axis=1) + 0.01)
            ref_i += val
            ref_j[j] += val.sum()
        np.testing.assert_allclose(phi_i, ref_i, rtol=1e-12)
        np.testing.assert_allclose(phi_j, ref_j, rtol=1e-12)

    def test_naive_matches_warpsplit_result(self):
        rng = np.random.default_rng(4)
        ni, nj = 50, 60
        pos_i = rng.uniform(0, 1, (ni, 3))
        pos_j = rng.uniform(0, 1, (nj, 3))
        m = rng.uniform(1, 2, nj)
        k = sph_density_kernel()
        si = {"h": np.full(ni, 0.4)}
        sj = {"m": m}
        phi_split, _, _ = execute_leaf_pair_warpsplit(
            k, pos_i, si, pos_j, sj, MI250X_GCD
        )
        phi_naive, _, _ = execute_leaf_pair_naive(
            k, pos_i, si, pos_j, sj, MI250X_GCD
        )
        np.testing.assert_allclose(phi_split, phi_naive, rtol=1e-10)

    @given(ni=st.integers(1, 80), nj=st.integers(1, 80), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_property_pair_coverage(self, ni, nj, seed):
        phi, _, _ = execute_leaf_pair_warpsplit(
            pair_count_kernel(),
            np.zeros((ni, 3)),
            {},
            np.zeros((nj, 3)),
            {},
            PVC_TILE,
        )
        np.testing.assert_allclose(phi, nj)


class TestTrafficProfile:
    """Warp splitting's performance claims, measured on the executor."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.ni = self.nj = 64
        self.pos_i = rng.uniform(0, 1, (self.ni, 3))
        self.pos_j = rng.uniform(0, 1, (self.nj, 3))
        self.k = sph_density_kernel()
        self.si = {"h": np.full(self.ni, 0.5)}
        self.sj = {"m": rng.uniform(1, 2, self.nj)}

    def test_split_reads_each_particle_once_per_tile_pair(self):
        _, _, c = execute_leaf_pair_warpsplit(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        # MI250X: half-warp 32 -> 2 i-tiles x 2 j-tiles; i read once per
        # i-tile, j once per (i-tile, j-tile)
        bytes_i = 4 * (3 + 1)
        bytes_j = 4 * (3 + 1)
        expected = self.ni * bytes_i + 2 * self.nj * bytes_j
        assert c.global_load_bytes == expected

    def test_split_moves_less_memory_than_naive(self):
        _, _, cs = execute_leaf_pair_warpsplit(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        _, _, cn = execute_leaf_pair_naive(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        assert cs.global_load_bytes < 0.5 * cn.global_load_bytes

    def test_split_uses_fewer_registers(self):
        assert self.k.register_estimate(split=True) < self.k.register_estimate(
            split=False
        )
        heavy = crk_coefficient_kernel()
        assert heavy.register_estimate(split=True) < heavy.register_estimate(
            split=False
        )

    def test_shuffles_replace_memory_traffic(self):
        _, _, cs = execute_leaf_pair_warpsplit(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        _, _, cn = execute_leaf_pair_naive(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        assert cs.shuffles > 0
        assert cn.shuffles == 0

    def test_atomics_per_leaf_not_per_pair(self):
        _, _, c = execute_leaf_pair_warpsplit(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        # one atomic per i particle (leaf-level reduction), not ni*nj
        assert c.atomics == self.ni

    def test_lane_efficiency_full_tiles(self):
        _, _, c = execute_leaf_pair_warpsplit(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        assert c.lane_efficiency == 1.0

    def test_lane_efficiency_padded_tiles(self):
        _, _, c = execute_leaf_pair_warpsplit(
            self.k,
            self.pos_i[:20],
            {"h": self.si["h"][:20]},
            self.pos_j[:20],
            {"m": self.sj["m"][:20]},
            MI250X_GCD,  # half-warp 32 > 20 -> padding waste
        )
        # 20 valid i lanes x 20 valid j partners out of 32 x 32 issued
        assert c.lane_efficiency == pytest.approx((20.0 / 32.0) ** 2)

    def test_flops_scale_with_pairs(self):
        _, _, c1 = execute_leaf_pair_warpsplit(
            self.k, self.pos_i[:32], {"h": self.si["h"][:32]},
            self.pos_j[:32], {"m": self.sj["m"][:32]}, MI250X_GCD,
        )
        _, _, c2 = execute_leaf_pair_warpsplit(
            self.k, self.pos_i, self.si, self.pos_j, self.sj, MI250X_GCD
        )
        # 4x the pairs -> ~4x the pair-stage flops (amortized stages differ)
        assert 3.0 < c2.flops / c1.flops < 5.0


class TestCounters:
    def test_fma_convention(self):
        c = OpCounters(fp32_add=10, fp32_mul=5, fp32_fma=20, fp32_transcendental=3)
        assert c.flops == 10 + 5 + 40 + 3

    def test_merge(self):
        a = OpCounters(fp32_add=1, shuffles=2)
        b = OpCounters(fp32_add=3, atomics=4)
        a.merge(b)
        assert a.fp32_add == 4 and a.shuffles == 2 and a.atomics == 4

    def test_arithmetic_intensity(self):
        c = OpCounters(fp32_add=100, global_load_bytes=40, global_store_bytes=10)
        assert c.arithmetic_intensity == pytest.approx(2.0)
        assert OpCounters(fp32_add=5).arithmetic_intensity == float("inf")

    def test_snapshot_contains_flops(self):
        c = OpCounters(fp32_fma=2)
        assert c.snapshot()["flops"] == 4
