"""Eigendecompositions, spectral windows, restricted resolvents, dynamics.

Everything here works per particle-number sector: dense symmetric
eigensolves (full, or only for the eigenpairs inside an energy window), the
lower-threshold checks for multi-cluster restrictions, the spectral floors
that let a window skip whole sectors, the low-energy spectral projector and
its diagonal (the local density of states), the positive-definite restricted
Green's function, and phase evolution of amplitude maps.  Exponential-decay
claims are reduced to least-squares fits on the log scale so they become
falsifiable numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .configspace import Config, Lattice, enumerate_sector
from .errors import DomainError, NumericError, ResourceError, VerificationError
from .hamiltonian import ModelParams, SectorMatrix, assemble_sector, cluster_mask, restrict
from .states import AmplitudeMap

EIG_TOL = 1e-10
SECTOR_DIM_CAP = 15_000
EDGE_TIE_TOL = 1e-12
# The windowed solve asks LAPACK for a slightly wider interval than the
# closed window and then applies the window's own mask, so an eigenvalue on
# the edge is kept or dropped exactly as a full solve would.
WINDOW_PAD = 1e-9
# A sector is skipped only when its spectral floor clears the window edge by
# this much: the k=1 floor is attained up to rounding by field-free sectors.
SKIP_MARGIN = 1e-9
# Sign convention: the first entry above SIGN_TOL times the column's largest
# magnitude is positive.  A plain argmax is not used because
# reflection-symmetric states have mirrored maxima.
SIGN_TOL = 1e-6


def validity_limit(params: ModelParams) -> float:
    """The two-cluster limit 2(1 - 3 delta_inv) that droplet windows must stay below."""
    return 2.0 * (1.0 - 3.0 * params.delta_inv)


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues with the matching orthonormal eigenvector columns.

    A full solve holds every eigenpair of `matrix`, a windowed solve only the
    eigenpairs inside its window.  Columns are sign-canonical (SIGN_TOL).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: SectorMatrix

    @property
    def dim(self) -> int:
        """Dimension of the sector matrix that was solved."""
        return self.matrix.dim


_VALIDATE_FULL_DIM = 512
_VALIDATE_COLUMNS = 32


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's first entry above SIGN_TOL x its
    largest magnitude is positive."""
    if vectors.size:
        magnitude = np.abs(vectors)
        first = np.argmax(magnitude > SIGN_TOL * magnitude.max(axis=0), axis=0)
        vectors *= np.sign(vectors[first, np.arange(vectors.shape[1])])
    return vectors


def eigensolve(matrix: SectorMatrix, e_max: float | None = None) -> SpectralData:
    """Dense symmetric eigendecomposition, validated against EIG_TOL.

    With `e_max` only the eigenpairs in the closed window
    [-EDGE_TIE_TOL, e_max + EDGE_TIE_TOL] are computed and returned.
    Columns come back sign-canonical, so the full and the windowed solve give
    the same vector for a non-degenerate eigenvalue.  Up to _VALIDATE_FULL_DIM
    columns are validated in full; above it the residual and orthonormality
    checks run on a deterministic column subset so validation stays cheaper
    than the solve itself.
    """
    dim = matrix.dim
    if dim > SECTOR_DIM_CAP:
        raise ResourceError(
            f"sector dimension {dim} exceeds the cap {SECTOR_DIM_CAP}; "
            "reduce L or the sector range"
        )
    try:
        if e_max is None:
            w, v = scipy.linalg.eigh(matrix.entries)
        else:
            lo, hi = -EDGE_TIE_TOL, e_max + EDGE_TIE_TOL
            w, v = scipy.linalg.eigh(
                matrix.entries, subset_by_value=(lo - WINDOW_PAD, hi + WINDOW_PAD)
            )
            keep = (w >= lo) & (w <= hi)
            w, v = w[keep], v[:, keep]
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"eigensolve failed to converge: {exc}") from exc
    v = _canonical_signs(v)
    # Row-sum norm: an upper bound on the spectral norm that a windowed solve
    # cannot read off its own eigenvalues.
    scale = max(1.0, float(np.abs(matrix.entries).sum(axis=1).max(initial=0.0)))
    count = len(w)
    if count:
        if count <= _VALIDATE_FULL_DIM:
            cols = np.arange(count)
        else:
            cols = np.random.default_rng(count).choice(count, _VALIDATE_COLUMNS, replace=False)
        sub = v[:, cols]
        residual = np.abs(matrix.entries @ sub - sub * w[cols]).max()
        ortho = np.abs(sub.T @ sub - np.eye(len(cols))).max()
    else:
        residual = ortho = 0.0
    if residual > EIG_TOL * scale or ortho > EIG_TOL:
        raise NumericError(
            f"eigensolve accuracy check failed: residual={residual:.3e}, "
            f"orthogonality={ortho:.3e}, dim={dim}"
        )
    return SpectralData(eigenvalues=w, eigenvectors=v, matrix=matrix)


def sector_spectra(
    params: ModelParams, lattice: Lattice, n_max: int | None = None
) -> dict[int, SpectralData]:
    """Eigendecompose sectors 0..n_max (default: the whole lattice)."""
    if n_max is None:
        n_max = lattice.size
    return {
        n: eigensolve(assemble_sector(params, enumerate_sector(lattice, n)))
        for n in range(n_max + 1)
    }


@dataclass(frozen=True)
class GroundStateReport:
    minimum: float
    minimum_sector: int
    second_lowest: float
    all_nonnegative: bool


def ground_state_check(params: ModelParams, lattice: Lattice, tol: float = 1e-10) -> GroundStateReport:
    """Check positivity of the field-free chain and simplicity of its zero mode."""
    if params.field is not None and any(v != 0 for v in params.field.values()):
        raise DomainError("ground-state check requires a vanishing on-site field")
    if params.boundary_mode != "standard":
        raise DomainError("ground-state check requires the standard boundary mode")
    lowest: list[tuple[float, int]] = []
    for n in range(lattice.size + 1):
        data = eigensolve(assemble_sector(params, enumerate_sector(lattice, n)))
        if data.eigenvalues[0] < -tol:
            raise VerificationError(
                f"negative eigenvalue {data.eigenvalues[0]!r} in sector n={n}"
            )
        for w in data.eigenvalues[:2]:
            lowest.append((float(w), n))
    lowest.sort()
    minimum, sector = lowest[0]
    second = lowest[1][0]
    if abs(minimum) > tol:
        raise VerificationError(f"lowest eigenvalue {minimum!r} differs from 0 (sector {sector})")
    if sector != 0:
        raise VerificationError(f"zero eigenvalue attained in sector n={sector}, not n=0")
    if second <= tol:
        raise VerificationError(
            f"zero eigenvalue is not simple: second-lowest {second!r} in sector {lowest[1][1]}"
        )
    return GroundStateReport(
        minimum=minimum,
        minimum_sector=sector,
        second_lowest=second,
        all_nonnegative=True,
    )


def threshold_check(params: ModelParams, lattice: Lattice, k: int) -> float:
    """Smallest eigenvalue of the >=k-cluster restriction minus k(1 - delta_inv).

    The margin is computed for the field-free chain; when the params carry a
    field the restricted full matrix is additionally checked to dominate the
    restricted field-free one (the added diagonal must be non-negative).
    """
    if k < 1:
        raise DomainError(f"cluster threshold index k must be >= 1, got {k}")
    bare = params.without_field()
    margin = math.inf
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        mask = cluster_mask(basis, k)
        if not mask.kept:
            continue
        h_matrix = assemble_sector(bare, basis)
        h_restricted = restrict(h_matrix, mask)
        lowest = eigensolve(h_restricted).eigenvalues[0]
        margin = min(margin, float(lowest) - k * (1.0 - params.delta_inv))
        if params.field is not None:
            full = restrict(assemble_sector(params, basis), mask)
            added = np.diag(full.entries - h_restricted.entries)
            if added.min(initial=0.0) < -1e-12 or np.abs(
                (full.entries - h_restricted.entries) - np.diag(added)
            ).max() > 1e-12:
                raise VerificationError(
                    f"field term fails to dominate in sector n={n}, k={k}"
                )
    return margin


@dataclass(frozen=True)
class DropletWindow:
    """Low-energy window [0, e_max] for selecting near-clustered states."""

    e_max: float

    def __post_init__(self) -> None:
        if self.e_max < 0:
            raise DomainError(f"window edge must be >= 0, got {self.e_max}")

    def is_valid_for(self, params: ModelParams) -> bool:
        return self.e_max < validity_limit(params)


def auto_window(params: ModelParams, fraction: float = 0.9) -> DropletWindow:
    """Window at `fraction` of the two-cluster validity limit 2(1 - 3 delta_inv)."""
    limit = validity_limit(params)
    if limit <= 0:
        raise DomainError(
            f"no valid window: 2(1 - 3*delta_inv) = {limit!r} <= 0 at "
            f"delta_inv={params.delta_inv}"
        )
    return DropletWindow(e_max=fraction * limit)


@dataclass(frozen=True)
class SectorSelection:
    """Eigenpairs of one sector falling inside the window."""

    n: int
    eigenvalues: np.ndarray
    vectors: np.ndarray  # dim x count, columns aligned with eigenvalues


@dataclass(frozen=True)
class DropletProjector:
    """Per-sector eigenpair selection realizing the window's spectral projector."""

    lattice: Lattice
    window: DropletWindow
    selections: dict[int, SectorSelection] = field(repr=False)
    n_max: int

    @property
    def rank(self) -> int:
        return sum(len(sel.eigenvalues) for sel in self.selections.values())

    def sector_matrix(self, n: int) -> np.ndarray:
        """The projector block on sector n as a dense matrix (for tests)."""
        sel = self.selections[n]
        return sel.vectors @ sel.vectors.T


def spectral_floors(params: ModelParams, lattice: Lattice) -> np.ndarray:
    """Lower bounds on the spectrum of each sector n = 0..|lattice|.

    In the standard boundary mode every configuration with n >= 1 particles
    has at least one cluster, so the field-free sector lies above the k=1
    cluster threshold 1 - delta_inv (`threshold_check` verifies it).  The
    field adds a non-negative diagonal whose smallest entry is the sum of the
    n smallest field values, and by Weyl's inequality the two floors add.
    The vacuum sits at 0.  Other boundary modes have no such threshold and
    get -inf.
    """
    floors = np.full(lattice.size + 1, -math.inf)
    if params.boundary_mode == "standard":
        values = np.sort([params.field_value(s) for s in lattice.sites])
        floors[0] = 0.0
        floors[1:] = (1.0 - params.delta_inv) + np.cumsum(values)
    return floors


def droplet_projector(
    params: ModelParams,
    lattice: Lattice,
    window: DropletWindow,
    n_max: int | None = None,
    override_window_check: bool = False,
) -> DropletProjector:
    """Select all eigenpairs with eigenvalue in [0, e_max] across sectors 0..n_max.

    A sector whose spectral floor (`spectral_floors`) lies above the window
    edge by more than SKIP_MARGIN is neither assembled nor solved and gets an
    empty selection; every other sector is solved for its in-window
    eigenpairs only.
    """
    if not override_window_check and not window.is_valid_for(params):
        raise DomainError(
            f"window edge {window.e_max!r} is not below the validity limit "
            f"2(1 - 3*delta_inv) = {validity_limit(params)!r}"
        )
    if n_max is None:
        n_max = lattice.size
    floors = spectral_floors(params, lattice)
    selections = {}
    for n in range(n_max + 1):
        if floors[n] > window.e_max + SKIP_MARGIN:
            dim = math.comb(lattice.size, n)
            selections[n] = SectorSelection(
                n=n, eigenvalues=np.empty(0), vectors=np.empty((dim, 0))
            )
            continue
        data = eigensolve(assemble_sector(params, enumerate_sector(lattice, n)), window.e_max)
        selections[n] = SectorSelection(
            n=n, eigenvalues=data.eigenvalues, vectors=data.eigenvectors
        )
    return DropletProjector(lattice=lattice, window=window, selections=selections, n_max=n_max)


def local_dos(projector: DropletProjector, x: Config) -> float:
    """Diagonal projector element at configuration x."""
    n = len(x)
    if n > projector.n_max:
        raise DomainError(
            f"configuration has {n} particles but the projector covers n <= {projector.n_max}"
        )
    basis = enumerate_sector(projector.lattice, n)
    sel = projector.selections[n]
    row = sel.vectors[basis.index_of(tuple(x)), :]
    return float(np.dot(row, row))


def local_dos_by_sector(projector: DropletProjector, n: int) -> np.ndarray:
    """All diagonal projector elements of sector n at once."""
    sel = projector.selections[n]
    return np.einsum("ij,ij->i", sel.vectors, sel.vectors)


def droplet_eigenstates(projector: DropletProjector):
    """Yield (n, eigenvalue, amplitude map) for every selected eigenpair."""
    for n, sel in sorted(projector.selections.items()):
        for j, lam in enumerate(sel.eigenvalues):
            yield n, float(lam), AmplitudeMap(projector.lattice, {n: sel.vectors[:, j]})


def random_droplet_state(
    projector: DropletProjector, rng: np.random.Generator, sector: int | None = None
) -> AmplitudeMap:
    """Random unit combination of the selected eigenvectors.

    With `sector` given the combination stays inside that sector; otherwise it
    runs over the whole selected family.
    """
    items = (
        [(sector, projector.selections[sector])]
        if sector is not None
        else sorted(projector.selections.items())
    )
    sizes = [sel.vectors.shape[1] for _, sel in items]
    total = sum(sizes)
    if total == 0:
        raise DomainError("the selected droplet family is empty")
    coeff = rng.standard_normal(total)
    coeff /= np.linalg.norm(coeff)
    parts = {}
    offset = 0
    for (n, sel), m in zip(items, sizes):
        if m:
            parts[n] = sel.vectors @ coeff[offset : offset + m]
        offset += m
    return AmplitudeMap(projector.lattice, parts)


class GreensSlice:
    """Columns of the inverse of the >=2-cluster restriction of (H - E).

    Columns are solved on demand from a Cholesky factorization and cached, so
    the full inverse is only ever materialized column by column.
    """

    def __init__(self, energy: float, kept: tuple[int, ...], basis, factor):
        self.energy = energy
        self.kept = kept
        self.basis = basis
        self._factor = factor
        self._columns: dict[int, np.ndarray] = {}
        self._position = {ordinal: i for i, ordinal in enumerate(kept)}

    @property
    def dim(self) -> int:
        return len(self.kept)

    def column(self, j: int) -> np.ndarray:
        col = self._columns.get(j)
        if col is None:
            rhs = np.zeros(self.dim)
            rhs[j] = 1.0
            col = scipy.linalg.cho_solve(self._factor, rhs)
            self._columns[j] = col
        return col

    def value(self, i: int, j: int) -> float:
        return float(self.column(j)[i])

    def config_index(self, x: Config) -> int:
        ordinal = self.basis.index_of(tuple(x))
        pos = self._position.get(ordinal)
        if pos is None:
            raise DomainError(f"{tuple(x)} is not in the >=2-cluster restriction")
        return pos


def greens_function(params: ModelParams, basis, energy: float) -> GreensSlice:
    """Restricted resolvent at a real energy inside the positive-definite window."""
    limit = validity_limit(params)
    if energy < 0 or energy >= limit:
        raise DomainError(
            f"energy {energy!r} outside the admissible window [0, {limit!r})"
        )
    mask = cluster_mask(basis, 2)
    matrix = restrict(assemble_sector(params, basis), mask)
    shifted = matrix.entries - energy * np.eye(matrix.dim)
    try:
        factor = scipy.linalg.cho_factor(shifted)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            f"restricted operator minus E={energy!r} is not positive definite; "
            "the window is too large for these parameters"
        ) from exc
    return GreensSlice(energy=energy, kept=matrix.kept, basis=basis, factor=factor)


@dataclass(frozen=True)
class EnvelopeFit:
    """Least-squares exponential envelope c * exp(-mu * d) over (distance, value) data."""

    c: float
    mu: float
    max_violation: float
    points: int


def fit_exponential_envelope(points) -> EnvelopeFit:
    """Fit ln(value) = ln(c) - mu * distance; report the worst upward deviation."""
    usable = [(float(d), float(v)) for d, v in points if v > 1e-300]
    distances = sorted({d for d, _ in usable})
    if len(distances) < 3:
        raise DomainError(
            f"need >= 3 points with distinct distances and positive values, got {len(distances)}"
        )
    d = np.array([p[0] for p in usable])
    logv = np.log(np.array([p[1] for p in usable]))
    slope, intercept = np.polyfit(d, logv, 1)
    violation = float(np.max(logv - (intercept + slope * d)))
    return EnvelopeFit(
        c=float(np.exp(intercept)), mu=float(-slope), max_violation=violation, points=len(usable)
    )


def evolve(spectra: dict[int, SpectralData], psi: AmplitudeMap, t: float) -> AmplitudeMap:
    """Apply the unitary phase factors exp(-i * eigenvalue * t) sector by sector."""
    psi.require_normalized()
    parts = {}
    for n, vec in psi.parts.items():
        if not np.any(vec != 0):
            continue
        if n not in spectra:
            raise DomainError(f"sector n={n} of the state has not been diagonalized")
        data = spectra[n]
        coeff = data.eigenvectors.T @ vec
        phases = np.exp(-1j * data.eigenvalues * t)
        parts[n] = data.eigenvectors @ (phases * coeff)
    out = AmplitudeMap(psi.lattice, parts)
    drift = abs(out.norm() - psi.norm())
    if drift > 1e-10:
        raise NumericError(f"norm drift {drift:.3e} under evolution exceeds 1e-10")
    return out
