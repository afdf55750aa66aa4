"""Desk-scale numerical laboratory for droplet states of the anisotropic chain."""

from .configspace import (
    Lattice,
    SectorBasis,
    config_distance,
    distance_to_clustered,
    distance_to_edge,
    enumerate_sector,
)
from .entanglement import Bipartition, matricize, renyi_entropy
from .hamiltonian import ModelParams, assemble_full_oracle, assemble_sector, cluster_mask, restrict
from .spectral import (
    DropletWindow,
    auto_window,
    droplet_projector,
    eigensolve,
    evolve,
    fit_exponential_envelope,
    greens_function,
    ground_state_check,
    local_dos,
    threshold_check,
)
from .states import AmplitudeMap, from_amplitudes, uniform_cluster_state

__version__ = "0.1.0"

__all__ = [
    "AmplitudeMap",
    "Bipartition",
    "DropletWindow",
    "Lattice",
    "ModelParams",
    "SectorBasis",
    "assemble_full_oracle",
    "assemble_sector",
    "auto_window",
    "cluster_mask",
    "config_distance",
    "distance_to_clustered",
    "distance_to_edge",
    "droplet_projector",
    "eigensolve",
    "enumerate_sector",
    "evolve",
    "fit_exponential_envelope",
    "from_amplitudes",
    "greens_function",
    "ground_state_check",
    "local_dos",
    "matricize",
    "renyi_entropy",
    "restrict",
    "threshold_check",
    "uniform_cluster_state",
]
