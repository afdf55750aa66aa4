"""Configuration-loop reference versions of vectorized package code.

The package assembles sectors from a cached field-free template, counts
clusters and reads the window floors' single-cluster diagonals off such
templates, places block splits by the combinatorial rank of each side,
caches the layout of its window stacks and reads every Renyi entropy through
one batched formula.  The functions here compute the same things one
configuration (or one state) at a time, with explicit subset lists,
dictionaries and the package's former per-state formula, and serve as the
oracle the fast paths must reproduce byte for byte.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from droplet_lab.configspace import Config, Lattice, SectorBasis, all_cluster_configs
from droplet_lab.hamiltonian import ModelParams, SectorMatrix
from droplet_lab.spectral import spectral_floors


@dataclass(frozen=True)
class ClusterDecomposition:
    """Maximal runs of adjacent occupied sites, left to right."""

    clusters: tuple[tuple[int, int], ...]  # (start site, length)
    touches_left: bool
    touches_right: bool

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def is_clustered(self) -> bool:
        # Vacuum (k=0) and single clusters count as clustered.
        return self.k <= 1


def cluster_decompose(lattice: Lattice, x: Config) -> ClusterDecomposition:
    """`hamiltonian.cluster_mask`'s cluster count, one configuration at a time."""
    clusters = []
    start = None
    prev = None
    for site in x:
        if start is None:
            start = prev = site
        elif site == prev + 1:
            prev = site
        else:
            clusters.append((start, prev - start + 1))
            start = prev = site
    if start is not None:
        clusters.append((start, prev - start + 1))
    return ClusterDecomposition(
        clusters=tuple(clusters),
        touches_left=bool(x) and x[0] == -lattice.L,
        touches_right=bool(x) and x[-1] == lattice.L,
    )


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
    index = {x: i for i, x in enumerate(basis)}
    for i, x in enumerate(basis):
        entries[i, i] = diagonal_energy(params, lattice, x)
        occupied = set(x)
        for k, u in enumerate(x):
            for v in (u - 1, u + 1):
                if v in lattice and v not in occupied:
                    y = list(x)
                    y[k] = v
                    y.sort()
                    entries[i, index[tuple(y)]] = hop
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


def subset_index(sites: tuple[int, ...]) -> tuple[list[Config], dict[Config, int]]:
    """All subsets of the ascending `sites` ordered by (count, colex); with their positions."""
    subsets: list[Config] = []
    for count in range(len(sites) + 1):
        subsets.extend(sorted(itertools.combinations(sites, count), key=lambda c: c[::-1]))
    return subsets, {c: i for i, c in enumerate(subsets)}


def split_indices_loop(lattice: Lattice, row_sites: tuple[int, ...], n: int):
    """`entanglement._split_indices` by looking up each side of each configuration."""
    inside = set(row_sites)
    col_sites = tuple(s for s in lattice.sites if s not in inside)
    _, row_pos = subset_index(row_sites)
    _, col_pos = subset_index(col_sites)
    basis = SectorBasis(lattice, n)
    rows = np.empty(len(basis), dtype=int)
    cols = np.empty(len(basis), dtype=int)
    for i, x in enumerate(basis):
        rows[i] = row_pos[tuple(u for u in x if u in inside)]
        cols[i] = col_pos[tuple(u for u in x if u not in inside)]
    return rows, cols


def window_stack_uncached(lattice: Lattice, part, vectors: dict[int, np.ndarray]):
    """`entanglement._window_stack` with its layout rebuilt from `split_indices_loop` on every call."""
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
    splits = [split_indices_loop(lattice, part.sites, n) for n, _, _ in present]
    row_ids, row_of = np.unique(np.concatenate([r for r, _ in splits]), return_inverse=True)
    col_ids, col_of = np.unique(np.concatenate([c for _, c in splits]), return_inverse=True)
    stack = np.zeros((offset, len(row_ids), len(col_ids)))
    start = 0
    for (n, lo, hi), (rows, _) in zip(present, splits):
        end = start + len(rows)
        stack[lo:hi, row_of[start:end], col_of[start:end]] = vectors[n].T
        start = end
    return stack, layout


def renyi_from_spectrum(matrix: np.ndarray, alpha: float, rank_tol: float = 1e-12) -> tuple[float, int]:
    """`entanglement.renyi_entropy`'s value and rank, by the per-state formula it replaced."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    lam = np.sort(sv * sv)[::-1]
    threshold = rank_tol * lam[0] if lam.size else 0.0
    rank = int(np.sum(lam > threshold))
    if alpha == 0:
        return max(float(np.log(rank)), 0.0), rank
    positive = lam[lam > 0]
    if alpha == 1:
        return max(float(-np.sum(positive * np.log(positive))), 0.0), rank
    return max(float(np.log(np.sum(positive**alpha)) / (1.0 - alpha)), 0.0), rank


def assemble_full_oracle_dense(params: ModelParams, lattice: Lattice) -> np.ndarray:
    """`hamiltonian.assemble_full_oracle` with dense Kronecker products throughout."""
    s1 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    s2 = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
    s3 = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def lifted(ops: dict[int, np.ndarray]) -> np.ndarray:
        factors = [ops.get(s, eye) for s in lattice.sites]
        return reduce(np.kron, factors)

    dim = 1 << lattice.size
    H = np.zeros((dim, dim), dtype=complex)
    for x in range(-lattice.L, lattice.L):
        H -= params.delta_inv * lifted({x: s1, x + 1: s1})
        H -= params.delta_inv * lifted({x: s2, x + 1: s2})
        H -= lifted({x: s3, x + 1: s3}) - 0.25 * np.eye(dim)
    beta = params.beta
    H += beta * (np.eye(dim) - lifted({-lattice.L: s3}) - lifted({lattice.L: s3}))
    for x in lattice.sites:
        b = params.field_value(x)
        if b:
            H += b * (0.5 * np.eye(dim) - lifted({x: s3}))
    assert np.abs(H.imag).max() <= 1e-12
    return H.real
