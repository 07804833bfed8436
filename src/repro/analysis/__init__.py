"""GPU-accelerated in situ analysis analogs: clustering, P(k), halo stats."""

from .correlation import natural_estimator, pair_counts
from .dbscan import DBSCANResult, brute_force_dbscan_labels, dbscan
from .fof import FOFCatalog, brute_force_fof_labels, catalog_from_labels, fof_halos
from .insitu import InSituPipeline, InSituReport, density_temperature_slices
from .mass_function import (
    cluster_count,
    halo_mass_function,
    press_schechter_mass_function,
)
from .mock_catalog import (
    GalaxyCatalog,
    HODParams,
    populate_halos,
    redshift_space_positions,
    virial_velocity,
)
from .power import measure_power_spectrum
from .skymaps import (
    AngularMap,
    LightconeBuilder,
    LightconeShell,
    angles_from_vectors,
    compton_y_weights,
    xray_luminosity_weights,
)
from .unionfind import UnionFind

__all__ = [
    "AngularMap",
    "DBSCANResult",
    "FOFCatalog",
    "GalaxyCatalog",
    "HODParams",
    "InSituPipeline",
    "InSituReport",
    "LightconeBuilder",
    "LightconeShell",
    "UnionFind",
    "angles_from_vectors",
    "brute_force_dbscan_labels",
    "brute_force_fof_labels",
    "catalog_from_labels",
    "cluster_count",
    "dbscan",
    "density_temperature_slices",
    "compton_y_weights",
    "fof_halos",
    "natural_estimator",
    "pair_counts",
    "populate_halos",
    "halo_mass_function",
    "measure_power_spectrum",
    "press_schechter_mass_function",
    "redshift_space_positions",
    "virial_velocity",
    "xray_luminosity_weights",
]
