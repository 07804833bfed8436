"""Node-local NVMe SSD model (paper Section V-A).

Frontier nodes carry two NVMe M.2 drives: ~3.5 TB combined, 8 GB/s read and
4 GB/s write sustained.  The model tracks capacity and computes transfer
durations, including the read+write interference the paper observed during
analysis output steps (up to 30% effective write-speed loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NVMeModel:
    """One node's local SSD."""

    capacity_tb: float = 3.5
    write_bw_gbps: float = 4.0  # GB/s
    read_bw_gbps: float = 8.0
    #: effective write-speed multiplier while concurrent reads are active
    read_interference: float = 0.7

    used_tb: float = 0.0
    files: dict = field(default_factory=dict)

    def write_seconds(self, size_tb: float, concurrent_read: bool = False) -> float:
        """Duration of a synchronous local write."""
        bw = self.write_bw_gbps * (self.read_interference if concurrent_read else 1.0)
        return size_tb * 1000.0 / bw

    def store(self, name: str, size_tb: float) -> None:
        if size_tb < 0:
            raise ValueError("negative file size")
        if self.used_tb + size_tb > self.capacity_tb:
            raise IOError(
                f"NVMe full: {self.used_tb + size_tb:.2f} > {self.capacity_tb} TB"
            )
        self.files[name] = self.files.get(name, 0.0) + size_tb
        self.used_tb += size_tb

    def remove(self, name: str) -> float:
        size = self.files.pop(name, 0.0)
        self.used_tb -= size
        return size

    @property
    def free_tb(self) -> float:
        return self.capacity_tb - self.used_tb
