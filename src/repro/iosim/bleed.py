"""Asynchronous bleed: a background thread copying NVMe files to the PFS.

This is the real mechanism of paper Section IV-B4, with real files and
real threads: the simulation synchronously writes checkpoints to a
node-local directory (the NVMe tier) and a background thread copies each
completed file to the parallel-file-system directory.  The NVMe copy is
kept — it is the preferred restore tier — and the simulation never
blocks on the PFS.  :class:`repro.resilience.store.TieredCheckpointStore`
runs one as its PFS tier.
"""

from __future__ import annotations

import os
import queue
import shutil
import threading
import time
from dataclasses import dataclass

from ..observe.trace import NullTracer

_NULL_TRACER = NullTracer()


@dataclass
class BleedStats:
    files_bled: int = 0
    bytes_bled: int = 0
    errors: int = 0


class AsyncBleeder:
    """Background copier from node-local files into a PFS directory.

    ``submit(path)`` enqueues a completed local file; the worker thread
    copies it to ``pfs_dir`` under the same base name.  ``throttle_bps``
    optionally rate-limits the drain (to emulate a slow PFS and test
    stall behaviour).  Completed transfers are atomic on the PFS side
    (temp name + rename), so readers never observe torn files.
    """

    def __init__(self, pfs_dir: str, throttle_bps: float | None = None,
                 tracer=None):
        self.pfs_dir = pfs_dir
        self.throttle_bps = throttle_bps
        #: each submit -> drain lifetime becomes an ``io/pfs_drain`` async
        #: slice on the submitting thread's track (real wall clock; the
        #: worker thread closes it on that track)
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        os.makedirs(pfs_dir, exist_ok=True)
        self.stats = BleedStats()
        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._worker, daemon=True)
        self._thread.start()

    # -- producer side ----------------------------------------------------------
    def submit(self, path: str) -> None:
        """Queue a completed local file for draining (non-blocking)."""
        if self._stop.is_set():
            raise RuntimeError("bleeder already closed")
        slice_ = None
        tr = self.tracer
        if tr.enabled:
            slice_ = (tr.next_id(), tr.track())
            tr.async_begin("io/pfs_drain", slice_[0], cat="io",
                           file=os.path.basename(path))
        self._queue.put((path, slice_))

    # -- worker ------------------------------------------------------------------
    def _worker(self) -> None:
        while not self._stop.is_set() or not self._queue.empty():
            try:
                path, slice_ = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            try:
                self._bleed_one(path, slice_)
            except Exception:  # noqa: BLE001 - must keep draining
                self.stats.errors += 1
            finally:
                self._queue.task_done()

    def _bleed_one(self, src: str, slice_: tuple | None) -> None:
        dst = os.path.join(self.pfs_dir, os.path.basename(src))
        size = os.path.getsize(src)
        if self.throttle_bps:
            # copy in chunks, sleeping to honor the bandwidth cap
            chunk = max(int(self.throttle_bps * 0.01), 4096)
            with open(src, "rb") as fin, open(dst + ".part", "wb") as fout:
                while True:
                    buf = fin.read(chunk)
                    if not buf:
                        break
                    fout.write(buf)
                    time.sleep(len(buf) / self.throttle_bps)
                fout.flush()
                os.fsync(fout.fileno())
        else:
            shutil.copyfile(src, dst + ".part")
        os.replace(dst + ".part", dst)
        self.stats.files_bled += 1
        self.stats.bytes_bled += size
        if slice_ is not None:
            drain_id, tid = slice_
            self.tracer.async_end("io/pfs_drain", drain_id, cat="io",
                                  tid=tid, bytes=size)

    # -- lifecycle -----------------------------------------------------------------
    def drain(self, timeout: float = 30.0) -> bool:
        """Block until the queue is empty (end-of-run flush)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._queue.empty() and self._queue.unfinished_tasks == 0:
                return True
            time.sleep(0.01)
        return False

    def close(self, timeout: float = 30.0) -> BleedStats:
        """Flush outstanding work and stop the worker."""
        self.drain(timeout)
        self._stop.set()
        self._thread.join(timeout)
        return self.stats

    def __enter__(self) -> "AsyncBleeder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
