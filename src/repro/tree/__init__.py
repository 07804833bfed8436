"""Chaining mesh + coarse-leaf k-d tree spatial structures (Section IV-B1)."""

from .chaining_mesh import ChainingMesh, build_chaining_mesh, neighbor_pairs
from .interaction_lists import (
    InteractionList,
    active_leaf_mask,
    build_interaction_list,
    expand_to_particle_pairs,
)
from .kdtree import LeafSet, build_leaf_set
from .pair_cache import ActivePairSlices, PairCache, PairRows

__all__ = [
    "ActivePairSlices",
    "ChainingMesh",
    "InteractionList",
    "LeafSet",
    "PairCache",
    "PairRows",
    "active_leaf_mask",
    "build_chaining_mesh",
    "build_interaction_list",
    "build_leaf_set",
    "expand_to_particle_pairs",
    "neighbor_pairs",
]
