"""Real-thread async bleed tests (the paper's actual I/O mechanism)."""

import os
import time

import numpy as np
import pytest

from repro.iosim import AsyncBleeder, write_checkpoint
from repro.core.particles import Particles


def write_local(bleeder, local_dir, name, nbytes=4096):
    path = os.path.join(local_dir, name)
    with open(path, "wb") as f:
        f.write(os.urandom(nbytes))
    bleeder.submit(path)
    return path


@pytest.fixture
def nvme(tmp_path):
    path = tmp_path / "nvme"
    path.mkdir()
    return str(path)


class TestAsyncBleeder:
    def test_files_copy_to_pfs_keeping_source(self, tmp_path, nvme):
        with AsyncBleeder(str(tmp_path / "pfs")) as b:
            for i in range(5):
                write_local(b, nvme, f"ckpt_{i}.bin")
            assert b.drain()
            for i in range(5):
                pfs = (tmp_path / "pfs" / f"ckpt_{i}.bin").read_bytes()
                # the NVMe copy stays: it is the preferred restore tier
                assert (tmp_path / "nvme" / f"ckpt_{i}.bin").read_bytes() \
                    == pfs
        assert b.stats.files_bled == 5
        assert b.stats.bytes_bled == 5 * 4096
        assert b.stats.errors == 0

    def test_submit_does_not_block_on_slow_pfs(self, tmp_path, nvme):
        """The whole point: a throttled PFS must not stall the producer."""
        b = AsyncBleeder(str(tmp_path / "pfs"),
                         throttle_bps=64 * 1024)  # slow drain
        t0 = time.perf_counter()
        for i in range(4):
            write_local(b, nvme, f"c{i}.bin", nbytes=32 * 1024)
        submit_time = time.perf_counter() - t0
        # writing+queueing 128 kB must be near-instant even though draining
        # it takes ~2 s at 64 kB/s
        assert submit_time < 0.5
        assert b.drain(timeout=30)
        b.close()
        assert b.stats.files_bled == 4

    def test_no_torn_files_on_pfs(self, tmp_path, nvme):
        """Readers only ever see fully-renamed files (no .part visible
        after drain)."""
        with AsyncBleeder(str(tmp_path / "pfs"),
                          throttle_bps=256 * 1024) as b:
            write_local(b, nvme, "big.bin", nbytes=128 * 1024)
            b.drain(timeout=30)
        names = os.listdir(tmp_path / "pfs")
        assert names == ["big.bin"]
        assert os.path.getsize(tmp_path / "pfs" / "big.bin") == 128 * 1024

    def test_missing_file_counts_error_and_continues(self, tmp_path, nvme):
        with AsyncBleeder(str(tmp_path / "pfs")) as b:
            b.submit(os.path.join(nvme, "does_not_exist.bin"))
            write_local(b, nvme, "ok.bin")
            b.drain()
        assert b.stats.errors == 1
        assert b.stats.files_bled == 1

    def test_closed_bleeder_rejects_submissions(self, tmp_path, nvme):
        b = AsyncBleeder(str(tmp_path / "pfs"))
        b.close()
        with pytest.raises(RuntimeError):
            b.submit(os.path.join(nvme, "late.bin"))

    def test_end_to_end_with_real_checkpoints(self, tmp_path, nvme):
        """Simulation-style flow: write CRC'd checkpoints locally, bleed,
        then restore from the PFS copy."""
        from repro.iosim import read_checkpoint

        rng = np.random.default_rng(0)
        parts = Particles(
            pos=rng.uniform(0, 1, (30, 3)),
            vel=rng.normal(0, 1, (30, 3)),
            mass=np.ones(30),
            species=np.zeros(30, dtype=np.int8),
        )
        with AsyncBleeder(str(tmp_path / "pfs")) as b:
            for step in range(3):
                path = os.path.join(nvme, f"ckpt_{step}.gio")
                write_checkpoint(path, parts, a=0.1 * step, step=step)
                b.submit(path)
            b.drain()
        restored, meta = read_checkpoint(str(tmp_path / "pfs" / "ckpt_2.gio"))
        assert meta["step"] == 2
        np.testing.assert_array_equal(restored.pos, parts.pos)
