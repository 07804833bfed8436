"""CRKSPH: conservative reproducing-kernel smoothed particle hydrodynamics."""

from .crk import CRKCorrections, compute_corrections, corrected_kernel_pairs
from .eos import IdealGasEOS
from .hydro import (
    HydroDerivatives,
    compute_density,
    compute_number_density,
    crksph_derivatives,
    crksph_derivatives_active,
    update_smoothing_lengths,
)
from .kernels import KERNELS, CubicSpline, Kernel, WendlandC2, WendlandC4, get_kernel
from .pair_batch import PairBatch, make_pair_batch
from .viscosity import MonaghanViscosity, balsara_switch

__all__ = [
    "KERNELS",
    "CRKCorrections",
    "CubicSpline",
    "HydroDerivatives",
    "IdealGasEOS",
    "Kernel",
    "MonaghanViscosity",
    "PairBatch",
    "WendlandC2",
    "WendlandC4",
    "balsara_switch",
    "compute_corrections",
    "compute_density",
    "compute_number_density",
    "corrected_kernel_pairs",
    "crksph_derivatives",
    "crksph_derivatives_active",
    "get_kernel",
    "make_pair_batch",
    "update_smoothing_lengths",
]
