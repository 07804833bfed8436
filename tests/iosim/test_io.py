"""I/O substrate tests: NVMe/PFS models, multi-tier pipeline, faults."""

import numpy as np
import pytest

from repro.iosim import (
    DirectPFSWriter,
    MultiTierWriter,
    NVMeModel,
    PFSModel,
    simulate_run_with_faults,
    young_daly_interval,
)
from repro.iosim.faults import (
    FaultRunStats,
    interarrival_gaps,
    interruption_steps,
)


class TestNVMe:
    def test_write_duration(self):
        nvme = NVMeModel(write_bw_gbps=4.0)
        # 0.02 TB = 20 GB at 4 GB/s -> 5 s
        assert nvme.write_seconds(0.02) == pytest.approx(5.0)

    def test_read_interference_slows_writes(self):
        nvme = NVMeModel()
        assert nvme.write_seconds(0.02, concurrent_read=True) > nvme.write_seconds(
            0.02
        )

    def test_capacity_enforced(self):
        nvme = NVMeModel(capacity_tb=1.0)
        nvme.store("a", 0.8)
        with pytest.raises(IOError, match="NVMe full"):
            nvme.store("b", 0.3)
        nvme.remove("a")
        nvme.store("b", 0.3)
        assert nvme.free_tb == pytest.approx(0.7)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NVMeModel().store("x", -1.0)


class TestPFS:
    def test_bandwidth_scales_then_saturates(self):
        pfs = PFSModel(seed=0)
        low = pfs.effective_write_tbps(10, sample_variability=False)
        mid = pfs.effective_write_tbps(1000, sample_variability=False)
        high = pfs.effective_write_tbps(int(pfs.saturation_clients()),
                                        sample_variability=False)
        assert low < mid <= high
        assert high == pytest.approx(pfs.peak_write_tbps, rel=0.01)

    def test_contention_beyond_saturation(self):
        pfs = PFSModel(seed=0)
        n_star = int(pfs.saturation_clients())
        over = pfs.effective_write_tbps(n_star * 8, sample_variability=False)
        assert over < pfs.peak_write_tbps

    def test_variability_within_paper_envelope(self):
        """At Frontier scale, sampled bandwidth spans ~0.75-3.7 TB/s."""
        pfs = PFSModel(seed=3)
        samples = np.array(
            [pfs.effective_write_tbps(9000) for _ in range(400)]
        )
        assert samples.min() > 0.05
        assert samples.max() <= pfs.peak_write_tbps
        assert 0.5 < np.median(samples) < 4.0

    def test_zero_writers(self):
        assert PFSModel().effective_write_tbps(0) == 0.0


class TestMultiTier:
    def make_writer(self, **kw):
        return MultiTierWriter(
            n_nodes=9000,
            nvme=NVMeModel(capacity_tb=3.5),
            pfs=PFSModel(seed=1),
            **kw,
        )

    def test_sync_time_much_shorter_than_bleed(self):
        """150 TB over 9000 nodes: tens of seconds locally (paper VI-B)."""
        w = self.make_writer()
        rec = w.checkpoint(0, data_tb=150.0, compute_seconds=600.0)
        assert rec.sync_seconds < 60.0
        assert rec.bleed_seconds > rec.sync_seconds

    def test_aggregate_nvme_bandwidth_matches_paper_scale(self):
        """9000 nodes x 4 GB/s = 36 TB/s aggregate local bandwidth."""
        w = self.make_writer()
        rec = w.checkpoint(0, data_tb=150.0, compute_seconds=600.0)
        assert rec.nvme_bw_tbps == pytest.approx(36.0, rel=0.01)

    def test_imbalance_halves_effective_bandwidth(self):
        w1 = self.make_writer()
        r1 = w1.checkpoint(0, 150.0, 600.0, imbalance=1.0)
        w2 = self.make_writer()
        r2 = w2.checkpoint(0, 150.0, 600.0, imbalance=2.0)
        assert r2.nvme_bw_tbps == pytest.approx(r1.nvme_bw_tbps / 2.0, rel=0.01)

    def test_no_stall_when_compute_hides_bleed(self):
        w = self.make_writer()
        for step in range(5):
            rec = w.checkpoint(step, 150.0, compute_seconds=3600.0)
            assert rec.stall_seconds == 0.0

    def test_stall_when_compute_too_short(self):
        w = self.make_writer()
        w.checkpoint(0, 170.0, compute_seconds=1.0)
        rec = w.checkpoint(1, 170.0, compute_seconds=1.0)
        assert rec.stall_seconds > 0.0

    def test_pruning_keeps_nvme_from_filling(self):
        w = self.make_writer(retention_steps=2)
        for step in range(60):
            w.checkpoint(step, 170.0, compute_seconds=1200.0)
        # shard ~18.9 GB/step; without pruning 60 steps ~ 1.1 TB; retention
        # keeps only 2 shards resident
        assert w.nvme.used_tb < 3 * (170.0 / 9000) * 1.01
        assert len(w.nvme.files) <= 2

    def test_effective_bandwidth_exceeds_pfs_peak(self):
        """The paper's headline: 5.45 TB/s effective > 4.6 TB/s Orion peak,
        because the blocking path is the NVMe write, not the PFS drain."""
        w = self.make_writer()
        for step in range(25):
            w.checkpoint(step, 165.0, compute_seconds=1100.0, imbalance=1.5)
        assert w.effective_bandwidth_tbps > w.pfs.peak_write_tbps

    def test_multitier_beats_direct_pfs(self):
        mt = self.make_writer()
        direct = DirectPFSWriter(n_nodes=9000, pfs=PFSModel(seed=1))
        for step in range(10):
            mt.checkpoint(step, 150.0, compute_seconds=1200.0)
            direct.checkpoint(step, 150.0, compute_seconds=1200.0)
        assert mt.total_io_seconds < 0.5 * direct.total_io_seconds

    def test_input_validation(self):
        w = self.make_writer()
        with pytest.raises(ValueError):
            w.checkpoint(0, -1.0, 10.0)
        with pytest.raises(ValueError):
            w.checkpoint(0, 1.0, 10.0, imbalance=0.5)


class TestFaults:
    def test_young_daly(self):
        assert young_daly_interval(0.01, 2.0) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            young_daly_interval(0.1, 0.0)

    def test_fault_free_run(self):
        stats = simulate_run_with_faults(
            total_work_hours=100.0,
            checkpoint_interval_hours=1.0,
            checkpoint_cost_hours=0.01,
            mtti_hours=1.0e9,
            rng=np.random.default_rng(0),
        )
        assert stats.n_interrupts == 0
        assert stats.wallclock_hours == pytest.approx(101.0)

    def test_interruptions_cost_time(self):
        stats = simulate_run_with_faults(
            total_work_hours=200.0,
            checkpoint_interval_hours=0.5,
            checkpoint_cost_hours=0.01,
            mtti_hours=4.0,
            rng=np.random.default_rng(1),
        )
        assert stats.n_interrupts > 20
        assert stats.lost_hours > 0
        assert stats.wallclock_hours > 200.0
        assert 0.5 < stats.efficiency < 1.0

    def test_frequent_checkpointing_beats_rare_under_short_mtti(self):
        """The paper's choice: with MTTI of a few hours, checkpoint every
        step (~20 min) rather than e.g. every 12 hours."""
        common = dict(
            total_work_hours=196.0,
            checkpoint_cost_hours=20.0 / 3600.0,  # ~20 s in hours
            mtti_hours=3.0,
        )
        frequent = simulate_run_with_faults(
            checkpoint_interval_hours=0.3,
            rng=np.random.default_rng(2),
            **common,
        )
        rare = simulate_run_with_faults(
            checkpoint_interval_hours=12.0,
            rng=np.random.default_rng(2),
            max_wallclock_hours=1.0e6,
            **common,
        )
        assert frequent.wallclock_hours < rare.wallclock_hours

    def test_impossible_run_raises(self):
        with pytest.raises(RuntimeError):
            simulate_run_with_faults(
                total_work_hours=100.0,
                checkpoint_interval_hours=50.0,
                checkpoint_cost_hours=1.0,
                mtti_hours=0.5,
                rng=np.random.default_rng(3),
                max_wallclock_hours=500.0,
            )

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            simulate_run_with_faults(1.0, 0.0, 0.1, 1.0)

    def test_one_mtti_draw_keeps_the_seeded_outputs(self):
        """Both models consume one interarrival generator; pinned to the
        values recorded at 9081083, where each drew inline."""
        assert interruption_steps(3.0, 40, np.random.default_rng(5)) == [
            5, 8, 12, 13, 13, 15, 17, 17, 17, 20, 23, 27, 27, 34, 38]
        stats = simulate_run_with_faults(100, 2, 0.1, 24,
                                         rng=np.random.default_rng(5))
        assert stats == FaultRunStats(
            wallclock_hours=float.fromhex("0x1.b9119456c3bd2p+6"),
            work_hours=100,
            checkpoint_hours=float.fromhex("0x1.3fffffffffffep+2"),
            lost_hours=float.fromhex("0x1.2119456c3bd80p+2"),
            restart_hours=0.75,
            n_interrupts=3,
        )
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        gaps = interarrival_gaps(4.0, rng_a)
        assert [next(gaps) for _ in range(5)] == [
            rng_b.exponential(4.0) for _ in range(5)]
