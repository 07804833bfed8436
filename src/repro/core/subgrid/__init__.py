"""Subgrid astrophysics: cooling, star formation, SN/AGN feedback, enrichment."""

from .agn import AGNModel, bondi_rate, eddington_rate
from .cooling import CoolingModel, lambda_cooling, uv_heating_rate
from .star_formation import StarFormationModel
from .stellar_evolution import AGBModel, SNIaModel
from .supernova import SupernovaModel, kernel_weights_for_sources

__all__ = [
    "AGBModel",
    "AGNModel",
    "CoolingModel",
    "SNIaModel",
    "StarFormationModel",
    "SupernovaModel",
    "bondi_rate",
    "eddington_rate",
    "kernel_weights_for_sources",
    "lambda_cooling",
    "uv_heating_rate",
]
