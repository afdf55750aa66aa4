"""Sector matrices of the anisotropic chain with boundary and on-site fields.

The Hamiltonian conserves particle number, so it is assembled sector by
sector in the hard-core basis: diagonal entries carry half the domain-wall
count plus the boundary-field and on-site-field energies, off-diagonal
entries couple configurations related by one hop into an empty neighbor with
amplitude -delta_inv/2.  Both assemblers read a field-free template of the
sector (walls, end-site occupancy, particle sites and hop positions), built
once per sector with one vectorized pass per bond: `assemble_sector` scatters
it into a dense matrix, `assemble_sector_sparse` wraps the same arrays as a
sparse array for the sectors large enough to be solved by Lanczos.  An
independent full tensor-product assembly over the 2^|lattice| spin space
serves as the oracle both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from math import comb
from typing import Mapping

import numpy as np

from .configspace import Config, Lattice, SectorBasis, cluster_decompose
from .errors import DomainError, ResourceError

BOUNDARY_MODES = ("standard", "droplet")

_FULL_ORACLE_MAX_SITES = 14
# Sectors above this dimension are solved by Lanczos (`spectral.eigensolve`)
# from a sparse assembly, and their templates are rebuilt on every call
# instead of cached.
LANCZOS_MIN_DIM = 1000


@dataclass(frozen=True)
class ModelParams:
    """Anisotropy, boundary-field convention and on-site field.

    delta_inv is the inverse anisotropy in [0, 1).  The boundary field is
    (1 - delta_inv)/2 in "standard" mode and sqrt(1 - delta_inv^2)/2 in
    "droplet" mode; it is recomputed from delta_inv on access so the two can
    never disagree.  `field` maps sites to the non-negative on-site couplings.
    """

    delta_inv: float
    boundary_mode: str = "standard"
    field: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta_inv < 1.0:
            raise DomainError(f"delta_inv must lie in [0, 1), got {self.delta_inv}")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise DomainError(f"boundary_mode must be one of {BOUNDARY_MODES}")
        if self.field is not None:
            for site, value in self.field.items():
                if value < 0:
                    raise DomainError(f"field at site {site} is negative: {value}")

    @property
    def beta(self) -> float:
        if self.boundary_mode == "standard":
            return 0.5 * (1.0 - self.delta_inv)
        return 0.5 * np.sqrt(1.0 - self.delta_inv**2)

    def field_value(self, site: int) -> float:
        if self.field is None:
            return 0.0
        return float(self.field.get(site, 0.0))

    def with_field(self, field: Mapping[int, float] | None) -> "ModelParams":
        return replace(self, field=None if field is None else dict(field))

    def without_field(self) -> "ModelParams":
        return replace(self, field=None)


@dataclass(frozen=True)
class SectorMatrix:
    """Symmetric matrix of one particle-number sector (or a restriction).

    `entries` is a dense array, or a `scipy.sparse` CSR array when built by
    `assemble_sector_sparse`.  `kept` is None for a full sector; for a
    restriction it lists the retained ordinals of `basis`.
    """

    basis: SectorBasis
    entries: np.ndarray
    kept: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class RestrictionMask:
    """Ordered subset of sector ordinals to keep."""

    kept: tuple[int, ...]


@dataclass(frozen=True)
class _SectorTemplate:
    """Field-free structure of one sector, per configuration in basis order.

    `sites` holds each configuration's site indices (site + L), ascending;
    `hop_rows`/`hop_cols` are the off-diagonal positions, bond by bond.
    """

    half_walls: np.ndarray
    boundary: np.ndarray
    sites: np.ndarray
    hop_rows: np.ndarray
    hop_cols: np.ndarray


def _build_template(basis: SectorBasis) -> _SectorTemplate:
    """One sector's template from its occupation bit mask.

    The basis is in colex order, so configuration i has rank
    sum_k C(i_k, k) = i, where i_k is the site index of the k-th particle and
    k its cumulative occupation count.  A hop across bond (j, j+1) moves
    particle k between the two sites and changes the rank by
    C(j+1, k) - C(j, k) (rightward), so each bond is one vectorized pass.
    """
    lattice = basis.lattice
    dim, N, n = len(basis), lattice.size, basis.n
    sites = np.array(basis.configs, dtype=np.int64).reshape(dim, n) + lattice.L
    occ = np.zeros((dim, N), dtype=bool)
    occ[np.arange(dim)[:, None], sites] = True
    walls = np.sum(occ[:, :-1] != occ[:, 1:], axis=1)
    boundary = occ[:, 0].astype(int) + occ[:, -1]
    binom = np.array([[comb(j, k) for k in range(n + 1)] for j in range(N + 1)], dtype=np.int64)
    count = np.cumsum(occ, axis=1)
    rows, cols = [], []
    for j in range(N - 1):
        right = np.flatnonzero(occ[:, j] & ~occ[:, j + 1])
        left = np.flatnonzero(~occ[:, j] & occ[:, j + 1])
        k_right, k_left = count[right, j], count[left, j + 1]
        rows += [right, left]
        cols += [
            right + binom[j + 1, k_right] - binom[j, k_right],
            left + binom[j, k_left] - binom[j + 1, k_left],
        ]
    return _SectorTemplate(
        half_walls=0.5 * walls,
        boundary=boundary,
        sites=sites,
        hop_rows=np.concatenate(rows),
        hop_cols=np.concatenate(cols),
    )


_template_cache: dict[tuple[int, int], _SectorTemplate] = {}


def _sector_template(basis: SectorBasis) -> _SectorTemplate:
    """The basis's template, cached per (L, n) up to LANCZOS_MIN_DIM and rebuilt above it."""
    key = (basis.lattice.L, basis.n)
    template = _template_cache.get(key)
    if template is None:
        template = _build_template(basis)
        if len(basis) <= LANCZOS_MIN_DIM:
            _template_cache[key] = template
    return template


def _diagonal(params: ModelParams, basis: SectorBasis, template: _SectorTemplate) -> np.ndarray:
    """walls/2 + beta * boundary occupancy + the on-site field of every particle.

    The field is summed particle by particle from the left, the order of a
    per-configuration sum, so the entries do not depend on the vectorization.
    """
    values = np.array([params.field_value(u) for u in basis.lattice.sites])
    onsite = np.zeros(len(basis))
    for k in range(basis.n):
        onsite += values[template.sites[:, k]]
    return template.half_walls + params.beta * template.boundary + onsite


def assemble_sector(params: ModelParams, basis: SectorBasis) -> SectorMatrix:
    """The sector's dense matrix: the template's hops and diagonal scattered into zeros."""
    template = _sector_template(basis)
    entries = np.zeros((len(basis), len(basis)))
    entries[template.hop_rows, template.hop_cols] = -0.5 * params.delta_inv
    np.fill_diagonal(entries, _diagonal(params, basis, template))
    return SectorMatrix(basis=basis, entries=entries)


def assemble_sector_sparse(params: ModelParams, basis: SectorBasis) -> SectorMatrix:
    """`assemble_sector`'s entries, bit for bit, as a CSR array (for the Lanczos solves)."""
    import scipy.sparse  # imported here: only sectors solved by Lanczos need it

    template = _sector_template(basis)
    dim = len(basis)
    rows = np.concatenate([np.arange(dim), template.hop_rows])
    cols = np.concatenate([np.arange(dim), template.hop_cols])
    data = np.full(len(rows), -0.5 * params.delta_inv)
    data[:dim] = _diagonal(params, basis, template)
    entries = scipy.sparse.csr_array((data, (rows, cols)), shape=(dim, dim))
    return SectorMatrix(basis=basis, entries=entries)


def cluster_mask(basis: SectorBasis, k_min: int) -> RestrictionMask:
    """Ordinals of the configurations with at least k_min clusters."""
    if k_min < 1:
        raise DomainError(f"k_min must be >= 1, got {k_min}")
    lattice = basis.lattice
    kept = tuple(
        i for i, x in enumerate(basis) if cluster_decompose(lattice, x).k >= k_min
    )
    return RestrictionMask(kept=kept)


def restrict(matrix: SectorMatrix, mask: RestrictionMask) -> SectorMatrix:
    if matrix.kept is not None:
        raise DomainError("matrix is already a restriction")
    dim = matrix.dim
    for i in mask.kept:
        if not 0 <= i < dim:
            raise DomainError(f"mask ordinal {i} outside [0, {dim})")
    idx = np.asarray(mask.kept, dtype=int)
    sub = matrix.entries[np.ix_(idx, idx)]
    return SectorMatrix(basis=matrix.basis, entries=sub, kept=tuple(mask.kept))


def product_state_index(lattice: Lattice, x: Config) -> int:
    """Index of the spin product state of `x` in the tensor basis.

    Site -L is the leading tensor factor; per site, spin up precedes spin
    down (= occupied).
    """
    N = lattice.size
    return sum(1 << (N - 1 - (u + lattice.L)) for u in x)


def assemble_full_oracle(params: ModelParams, lattice: Lattice) -> np.ndarray:
    """Full 2^|lattice| matrix built literally from the spin couplings.

    Independent of the sector path: spin-1/2 matrices with eigenvalues +-1/2
    are lifted by Kronecker products, bond by bond.  Intended for cross-checks
    at small sizes only.
    """
    N = lattice.size
    if N > _FULL_ORACLE_MAX_SITES:
        raise ResourceError(
            f"full oracle limited to {_FULL_ORACLE_MAX_SITES} sites, got {N}"
        )
    s1 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    s2 = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
    s3 = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def lifted(ops: dict[int, np.ndarray]) -> np.ndarray:
        factors = [ops.get(s, eye) for s in lattice.sites]
        return reduce(np.kron, factors)

    dim = 1 << N
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
    if np.abs(H.imag).max() > 1e-12:
        raise AssertionError("oracle matrix acquired an imaginary part")
    return H.real


def oracle_sector_block(full: np.ndarray, lattice: Lattice, basis: SectorBasis) -> np.ndarray:
    """Rows/columns of the full oracle reordered to one sector basis."""
    idx = np.array([product_state_index(lattice, x) for x in basis], dtype=int)
    return full[np.ix_(idx, idx)]
