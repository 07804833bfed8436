"""Simulated distributed substrate: ranks, decomposition, overload, SWFFT."""

from .comm import (
    CommAborted,
    CommError,
    RankFailure,
    Request,
    SimComm,
    TrafficStats,
    World,
)
from .decomposition import (
    CartesianDecomposition,
    factor_ranks_3d,
    make_decomposition,
)
from .overload import (
    OverloadedDomain,
    build_overloaded_domains,
    exchange_overload,
    migrate_particles,
)
from .swfft import DistributedFFT, gather_slabs, scatter_slabs, slab_bounds

__all__ = [
    "CartesianDecomposition",
    "CommAborted",
    "CommError",
    "DistributedFFT",
    "RankFailure",
    "Request",
    "OverloadedDomain",
    "SimComm",
    "TrafficStats",
    "World",
    "build_overloaded_domains",
    "exchange_overload",
    "factor_ranks_3d",
    "gather_slabs",
    "make_decomposition",
    "migrate_particles",
    "scatter_slabs",
    "slab_bounds",
]
