"""Configuration-loop reference versions of vectorized package code.

The package assembles sectors from a cached field-free template, reads the
window floors' single-cluster diagonals off a small template and caches the
layout of its window stacks.  The functions here compute the same things one
configuration at a time, as the package once did, and serve as the oracle the
fast paths must reproduce byte for byte.
"""

import numpy as np

from droplet_lab.configspace import Config, Lattice, SectorBasis, all_cluster_configs
from droplet_lab.entanglement import _split_indices
from droplet_lab.hamiltonian import ModelParams, SectorMatrix
from droplet_lab.spectral import spectral_floors


def diagonal_energy(params: ModelParams, lattice: Lattice, x: Config) -> float:
    """Diagonal matrix element: walls/2 + beta * boundary occupancy + field."""
    occupied = set(x)
    walls = sum(
        1 for s in range(-lattice.L, lattice.L) if (s in occupied) != (s + 1 in occupied)
    )
    boundary = (-lattice.L in occupied) + (lattice.L in occupied)
    onsite = sum(params.field_value(u) for u in x)
    return 0.5 * walls + params.beta * boundary + onsite


def assemble_sector_loop(params: ModelParams, basis: SectorBasis) -> SectorMatrix:
    """Dense sector matrix, one configuration and one hop at a time."""
    lattice = basis.lattice
    dim = len(basis)
    entries = np.zeros((dim, dim))
    hop = -0.5 * params.delta_inv
    for i, x in enumerate(basis):
        entries[i, i] = diagonal_energy(params, lattice, x)
        occupied = set(x)
        for k, u in enumerate(x):
            for v in (u - 1, u + 1):
                if v in lattice and v not in occupied:
                    y = list(x)
                    y[k] = v
                    y.sort()
                    entries[i, basis.index_of(tuple(y))] = hop
    return SectorMatrix(basis=basis, entries=entries)


def field_diagonal(basis: SectorBasis, field_by_site: np.ndarray) -> np.ndarray:
    """Per-configuration field energies for an array indexed by site + L."""
    L = basis.lattice.L
    out = np.zeros(len(basis))
    for i, x in enumerate(basis):
        out[i] = sum(field_by_site[u + L] for u in x)
    return out


def window_floors_loop(params: ModelParams, lattice: Lattice, e_max: float) -> np.ndarray:
    """`spectral.window_floors` with diag(PHP) from `diagonal_energy` per single cluster."""
    floors = spectral_floors(params, lattice)
    if params.boundary_mode != "standard":
        return floors
    values = np.sort([params.field_value(s) for s in lattice.sites])
    for n in range(2, lattice.size):
        gap = 2.0 * (1.0 - params.delta_inv) + values[:n].sum() - e_max
        if gap <= 0:
            continue
        lowest = min(diagonal_energy(params, lattice, x) for x in all_cluster_configs(lattice, n))
        floors[n] = max(floors[n], lowest - params.delta_inv**2 / gap)
    return floors


def window_stack_uncached(lattice: Lattice, part, vectors: dict[int, np.ndarray]):
    """`entanglement._window_stack` with its row/column layout rebuilt on every call."""
    layout = []
    present = []
    offset = 0
    for n in sorted(vectors):
        m = vectors[n].shape[1]
        layout.append((offset, offset + m))
        if m:
            present.append((n, offset, offset + m))
        offset += m
    if not present:
        return np.zeros((0, 1, 1)), layout
    splits = [_split_indices(lattice, part.sites, n) for n, _, _ in present]
    row_ids, row_of = np.unique(np.concatenate([r for r, _ in splits]), return_inverse=True)
    col_ids, col_of = np.unique(np.concatenate([c for _, c in splits]), return_inverse=True)
    stack = np.zeros((offset, len(row_ids), len(col_ids)))
    start = 0
    for (n, lo, hi), (rows, _) in zip(present, splits):
        end = start + len(rows)
        stack[lo:hi, row_of[start:end], col_of[start:end]] = vectors[n].T
        start = end
    return stack, layout
