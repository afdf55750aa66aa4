"""Sector matrices of the anisotropic chain with boundary and on-site fields.

The Hamiltonian conserves particle number, so it is assembled sector by
sector in the hard-core basis: diagonal entries carry half the domain-wall
count plus the boundary-field and on-site-field energies, off-diagonal
entries couple configurations related by one hop into an empty neighbor with
amplitude -delta_inv/2.  Both assemblers read the basis's site array and a
field-free template of the sector (walls, end-site occupancy and hop
positions), built once per sector with one vectorized pass per bond: `assemble_sector` scatters
it into a dense matrix, `assemble_sector_sparse` wraps the same arrays as a
sparse array for the sectors large enough to be solved by Lanczos.  An
independent full tensor-product assembly over the 2^|lattice| spin space
serves as the oracle both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Mapping

import numpy as np

from .configspace import Lattice, SectorBasis, _binomials
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
    restriction it is the int array of the retained ordinals of `basis`.
    """

    basis: SectorBasis
    entries: np.ndarray
    kept: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class _SectorTemplate:
    """Field-free structure of one sector, per configuration in basis order.

    `walls` counts the domain walls inside the chain and `boundary` the
    occupied end sites; `hop_rows`/`hop_cols` are the off-diagonal
    positions, bond by bond.
    """

    walls: np.ndarray
    boundary: np.ndarray
    hop_rows: np.ndarray
    hop_cols: np.ndarray


def _build_template(basis: SectorBasis) -> _SectorTemplate:
    """One sector's template from its occupation mask, one vectorized pass per bond.

    The basis is in colex order: a configuration's ordinal is the sum of
    C(i_t, t) over its particles (site index i_t, 1-based position t).  A hop
    into an empty neighbor passes no other particle, so only the mover's term
    changes, from C(src, t) to C(dst, t): the hop lands at its row plus
    C(src, t - 1) to the right, minus C(dst, t - 1) to the left.
    """
    occ = basis.occupation()
    position = np.cumsum(occ, axis=1)
    binomials = _binomials(basis.lattice.size)
    rows, cols = [], []
    for j in range(basis.lattice.size - 1):
        for src, dst, sign in ((j, j + 1, 1), (j + 1, j, -1)):
            movers = np.flatnonzero(occ[:, src] & ~occ[:, dst])
            rows.append(movers)
            cols.append(movers + sign * binomials[j, position[movers, src] - 1])
    return _SectorTemplate(
        walls=np.sum(occ[:, :-1] != occ[:, 1:], axis=1),
        boundary=occ[:, 0].astype(int) + occ[:, -1],
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
        onsite += values[basis.sites[:, k]]
    return 0.5 * template.walls + params.beta * template.boundary + onsite


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


def cluster_mask(basis: SectorBasis, k_min: int) -> np.ndarray:
    """Ascending ordinals (an int array) of the configurations with at least k_min clusters."""
    if k_min < 1:
        raise DomainError(f"k_min must be >= 1, got {k_min}")
    template = _sector_template(basis)
    # Every cluster has two walls, but an occupied end site stands in for one.
    clusters = (template.walls + template.boundary) // 2
    return np.flatnonzero(clusters >= k_min)


def restrict(matrix: SectorMatrix, kept: np.ndarray) -> SectorMatrix:
    """The sub-block of a full sector's matrix on the ordinals `kept` (an int array)."""
    if matrix.kept is not None:
        raise DomainError("matrix is already a restriction")
    dim = matrix.dim
    outside = (kept < 0) | (kept >= dim)
    if outside.any():
        raise DomainError(f"mask ordinal {kept[outside][0]} outside [0, {dim})")
    sub = matrix.entries[np.ix_(kept, kept)]
    return SectorMatrix(basis=matrix.basis, entries=sub, kept=kept)


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
    """Rows/columns of the full oracle reordered to one sector basis.

    Site -L is the leading tensor factor; per site, spin up precedes spin down (= occupied).
    """
    idx = basis.occupation() @ (1 << np.arange(lattice.size - 1, -1, -1))
    return full[np.ix_(idx, idx)]
