"""Performance-model tests: every paper anchor the model must reproduce."""

import numpy as np
import pytest

from repro.constants import (
    FRONTIER_E_GPU_RESIDENCY,
    FRONTIER_E_PARTICLES_PER_SEC,
    FRONTIER_E_PEAK_PFLOPS,
    FRONTIER_E_SUSTAINED_PFLOPS,
    FRONTIER_E_TTS_FRACTIONS,
    FRONTIER_E_WALLCLOCK_HOURS,
)
from repro.gpusim import MI250X_GCD
from repro.perfmodel import (
    CampaignModel,
    capability_leap_factor,
    clustering_amplitude,
    data_imbalance,
    figure4_table,
    frontier,
    hydro_vs_gravity_cost_ratio,
    landscape_catalog,
    machine_flop_rates,
    matching_resolution_elements,
    rank_utilization_samples,
    strong_efficiency,
    subcycle_depth,
    weak_efficiency,
    weak_scaling_rate,
)
from repro.perfmodel.landscape import FRONTIER_E, HYDRO_SIMULATIONS


class TestMachine:
    def test_frontier_theoretical_peak(self):
        """9,000 nodes x 8 GCDs x 23.9 TF = 1.72 EFLOPs FP32 (paper V-A)."""
        m = frontier()
        assert m.peak_fp32_eflops == pytest.approx(1.7208, rel=1e-3)
        assert m.n_ranks == 72000

    def test_aggregate_nvme_bandwidth(self):
        """36 TB/s aggregate node-local write bandwidth (paper V-A)."""
        assert frontier().aggregate_nvme_write_tbps == pytest.approx(36.0)


class TestWorkload:
    def test_clustering_monotone(self):
        a = np.linspace(0.02, 1.0, 50)
        c = [clustering_amplitude(x) for x in a]
        assert all(np.diff(c) > 0)
        assert c[0] < 0.01 and c[-1] > 0.9

    def test_data_imbalance_reaches_two(self):
        """Paper VI-B: imbalance grew to nearly a factor of two."""
        assert data_imbalance(0.02) == pytest.approx(1.0, abs=0.02)
        assert data_imbalance(1.0) == pytest.approx(2.0, abs=0.1)

    def test_subcycle_depth_thousands_at_low_z(self):
        """Paper IV-A: thousands of substeps per PM step at late times."""
        assert 2 ** subcycle_depth(1.0) >= 2048
        assert 2 ** subcycle_depth(0.05) <= 8

    def test_utilization_distribution_broadens_at_low_z(self):
        hz = rank_utilization_samples(MI250X_GCD, a=0.1, n_ranks=9000, seed=1)
        lz = rank_utilization_samples(MI250X_GCD, a=1.0, n_ranks=9000, seed=1)
        assert lz.std() > 2.0 * hz.std()
        assert lz.mean() > hz.mean()  # low-z utilization improves

    def test_flat_mode_tightens_distribution_same_mean(self):
        """Fig. 6: 'low-z Flat' removes timestep variability but keeps the
        average performance — adaptivity costs nothing."""
        native = rank_utilization_samples(MI250X_GCD, a=1.0, n_ranks=9000, seed=2)
        flat = rank_utilization_samples(
            MI250X_GCD, a=1.0, n_ranks=9000, seed=2, flat=True
        )
        assert flat.std() < 0.25 * native.std()
        assert flat.mean() == pytest.approx(native.mean(), rel=0.02)

    def test_highz_sustained_mean(self):
        hz = rank_utilization_samples(MI250X_GCD, a=0.1, n_ranks=20000, seed=3)
        assert hz.mean() == pytest.approx(0.265, abs=0.01)


class TestScaling:
    def test_anchor_efficiencies(self):
        """92% strong / 95% weak at 9,000 nodes (paper VI-A)."""
        assert float(weak_efficiency(9000)) == pytest.approx(0.95, abs=1e-6)
        assert float(strong_efficiency(9000)) == pytest.approx(0.92, abs=1e-6)

    def test_anchor_particle_rate(self):
        assert float(weak_scaling_rate(9000)) == pytest.approx(
            FRONTIER_E_PARTICLES_PER_SEC, rel=1e-6
        )

    def test_efficiency_monotone_decreasing(self):
        nodes = np.array([128, 256, 512, 1024, 2048, 4096, 9000])
        assert np.all(np.diff(weak_efficiency(nodes)) < 0)
        assert np.all(np.diff(strong_efficiency(nodes)) < 0)
        assert float(weak_efficiency(128)) == 1.0

    def test_weak_rate_nearly_linear(self):
        r = weak_scaling_rate(np.array([128, 9000]))
        # ideal would be 9000/128 = 70.3x; with 95% efficiency ~66.8x
        assert r[1] / r[0] == pytest.approx(70.3 * 0.95, rel=0.01)

    def test_strong_time_shrinks(self):
        table = figure4_table()
        times = [p.strong_seconds_per_step for p in table]
        assert all(np.diff(times) < 0)

    def test_machine_rate_anchors(self):
        """513.1 peak / 420.5 sustained PFLOPs."""
        rates = machine_flop_rates()
        assert rates["peak_pflops"] == pytest.approx(
            FRONTIER_E_PEAK_PFLOPS, rel=0.005
        )
        assert rates["sustained_pflops"] == pytest.approx(
            FRONTIER_E_SUSTAINED_PFLOPS, rel=0.005
        )


class TestCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return CampaignModel().run()

    def test_wallclock_and_node_hours(self, result):
        assert result.wallclock_hours == pytest.approx(
            FRONTIER_E_WALLCLOCK_HOURS, rel=0.02
        )
        assert result.node_hours == pytest.approx(1.75e6, rel=0.03)

    def test_tts_fractions(self, result):
        for key, target in FRONTIER_E_TTS_FRACTIONS.items():
            assert result.fractions[key] == pytest.approx(target, abs=0.006), key

    def test_gpu_residency(self, result):
        assert result.gpu_resident_fraction == pytest.approx(
            FRONTIER_E_GPU_RESIDENCY, abs=0.01
        )

    def test_total_data_exceeds_100_pb(self, result):
        assert result.total_data_pb > 100.0
        assert result.science_data_pb == pytest.approx(12.0, rel=0.05)

    def test_effective_io_bandwidth_beats_pfs_peak(self, result):
        """5.45 TB/s effective vs 4.6 TB/s Orion peak."""
        assert result.effective_io_tbps > 4.6
        assert result.effective_io_tbps == pytest.approx(5.45, rel=0.15)

    def test_io_hours(self, result):
        assert result.io_hours == pytest.approx(5.1, rel=0.15)

    def test_cumulative_curves_shapes(self, result):
        """Fig. 5 top: short-range cumulative accelerates; long-range is
        linear in step."""
        cshort = result.cumulative("short")
        clong = result.cumulative("long")
        n = len(cshort)
        # late-half slope much steeper than early-half for short-range
        early = cshort[n // 4] - cshort[0]
        late = cshort[-1] - cshort[-n // 4]
        assert late > 3.0 * early
        # long-range linear: equal quarters
        lq1 = clong[n // 4] - clong[0]
        lq4 = clong[-1] - clong[-n // 4]
        assert lq4 == pytest.approx(lq1, rel=0.05)

    def test_nvme_bandwidth_declines_with_imbalance(self, result):
        """Fig. 5 bottom: effective NVMe bandwidth halves by run end."""
        bw = [s.nvme_bw_tbps for s in result.steps]
        assert bw[-1] == pytest.approx(bw[0] / 2.0, rel=0.15)

    def test_pfs_bandwidth_in_paper_envelope(self, result):
        bw = np.array([s.pfs_bw_tbps for s in result.steps])
        assert np.median(bw) > 0.5
        assert bw.max() <= 4.6

    def test_gravity_only_ratio(self):
        r = hydro_vs_gravity_cost_ratio()
        assert r["gravity_only_hours"] == pytest.approx(12.0, rel=0.1)
        assert 14.0 < r["ratio"] < 18.0


class TestLandscape:
    def test_frontier_e_breaks_trillion_barrier(self):
        assert FRONTIER_E.resolution_elements > 1.0e12
        for s in HYDRO_SIMULATIONS:
            assert s.resolution_elements < 2.0e11

    def test_capability_leap_at_least_15x(self):
        assert capability_leap_factor() > 15.0

    def test_finer_resolution_than_largest_volume_hydro(self):
        """Frontier-E beats the two largest-volume hydro sims on mass
        resolution (lower volume-per-element)."""
        by_volume = sorted(HYDRO_SIMULATIONS, key=lambda s: -s.box_gpc)
        for s in by_volume[:2]:
            assert FRONTIER_E.mass_resolution_proxy < s.mass_resolution_proxy

    def test_matching_resolution_line(self):
        """The dotted line passes through the Frontier-E point."""
        val = matching_resolution_elements(FRONTIER_E.box_gpc)
        assert val == pytest.approx(FRONTIER_E.resolution_elements)
        assert matching_resolution_elements(2.35) == pytest.approx(
            FRONTIER_E.resolution_elements / 8.0
        )

    def test_catalog_complete(self):
        cat = landscape_catalog()
        names = {s.name for s in cat}
        assert {"FLAMINGO", "MillenniumTNG", "Magneticum", "Euclid Flagship",
                "Last Journey", "Uchuu", "Frontier-E"} <= names
        assert cat[-1].name == "Frontier-E"
        assert cat[-1].gpu_accelerated
        assert not any(s.gpu_accelerated for s in cat[:-1])
