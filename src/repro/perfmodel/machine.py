"""Machine description: Frontier, the campaign system (paper Section V-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpusim.device import MI250X_GCD, GPUSpec
from ..iosim.nvme import NVMeModel
from ..iosim.pfs import PFSModel


@dataclass(frozen=True)
class Machine:
    """A GPU system as CRK-HACC sees it: ranks = GPU compute units."""

    name: str
    n_nodes: int
    gpus_per_node: int  # MPI ranks per node (one per GCD / tile / device)
    device: GPUSpec
    nvme_per_node: NVMeModel = field(default_factory=NVMeModel)
    pfs: PFSModel = field(default_factory=PFSModel)
    interconnect: str = "Slingshot 11 dragonfly"

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def peak_fp32_flops(self) -> float:
        return self.n_ranks * self.device.peak_fp32_flops

    @property
    def peak_fp32_eflops(self) -> float:
        return self.peak_fp32_flops / 1.0e18

    @property
    def aggregate_nvme_write_tbps(self) -> float:
        return self.n_nodes * self.nvme_per_node.write_bw_gbps / 1000.0


def frontier(n_nodes: int = 9000) -> Machine:
    """OLCF Frontier: 64-core Trento + 4x MI250X (8 GCDs) per node.

    The Frontier-E campaign used 9,000 of the 9,408 nodes (>95%), for a
    theoretical 1.72 EFLOPs FP32 and 36 TB/s aggregate NVMe write bandwidth.
    """
    return Machine(
        name="Frontier",
        n_nodes=n_nodes,
        gpus_per_node=8,
        device=MI250X_GCD,
        nvme_per_node=NVMeModel(capacity_tb=3.5, write_bw_gbps=4.0,
                                read_bw_gbps=8.0),
        pfs=PFSModel(peak_write_tbps=4.6, peak_read_tbps=5.5),
    )
