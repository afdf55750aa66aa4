"""Eigendecompositions, spectral windows, restricted resolvents, dynamics.

Everything here works per particle-number sector: symmetric eigensolves
(full and dense, of the lowest few eigenpairs, or of only the eigenpairs
inside an energy window, by one Lanczos call for large sectors), the
lower-threshold checks for multi-cluster restrictions, the spectral floors
and the Feshbach floors of in-window eigenvalues that let a window skip
whole sectors, the low-energy spectral projector and
its diagonal (the local density of states), the positive-definite restricted
Green's function, and phase evolution of amplitude maps.  Exponential-decay
claims are reduced to least-squares fits on the log scale so they become
falsifiable numbers.

The Lanczos call of a window is sized by a count: if c rows of a sector have
a Gershgorin disc reaching down to the window edge, at most c eigenvalues lie
at or below it.  The block on the other rows has all its discs above the
edge, so all its eigenvalues too, and by min-max the sector's (c + 1)-th
eigenvalue is at least that block's lowest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .configspace import Config, Lattice, enumerate_sector
from .errors import DomainError, NumericError, ResourceError, VerificationError
from .hamiltonian import (
    ModelParams,
    SectorMatrix,
    assemble_sector,
    assemble_sector_sparse,
    cluster_mask,
    restrict,
)
from .states import AmplitudeMap

EIG_TOL = 1e-10
# Largest sector solved densely: its matrix alone takes 8 dim^2 bytes
# (1.8 GB at the cap).  A Lanczos solve holds the sparse matrix, with at most
# 2n + 1 entries a row, and 3k Lanczos vectors of 8 dim bytes: about 0.4 GB
# at its own cap and k = 64.
SECTOR_DIM_CAP = 15_000
LANCZOS_DIM_CAP = 250_000
# Windowed solves of sectors above LANCZOS_MIN_DIM use implicitly restarted
# Lanczos (ARPACK through scipy.sparse.linalg.eigsh), one call sized by the
# Gershgorin count (`_window_count`); smaller sectors, and every full solve,
# stay dense.  With one BLAS thread, sparse assembly and the Lanczos solve
# against the dense windowed solve, summed over 12 seeded uniform fields on
# [0, 2] in `disorder-dos`'s window (the droplet edge plus 2): 71 against
# 75 ms at dim 330, 192 against 173 ms at dim 455, 301 against 459 ms at
# dim 680 and 94 against 426 ms at dim 715.  In the droplet window and on
# the field-free chain Lanczos is ahead from dim 330.  The threshold lies
# between 455 and 680, so every sector at L <= 5 stays dense.
LANCZOS_MIN_DIM = 500
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
    eigenpairs inside its window, and a solve of the lowest k pairs
    (`eigensolve(matrix, lowest=k)`) the k smallest.  Columns are
    sign-canonical (SIGN_TOL).
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


def _require_dim(dim: int, cap: int, solver: str) -> None:
    if dim > cap:
        raise ResourceError(
            f"sector dimension {dim} exceeds the cap {cap} of a {solver} solve; "
            "reduce L or the sector range"
        )


def _window_count(entries, row_sums: np.ndarray, hi: float) -> int:
    """Rows whose Gershgorin disc reaches down to `hi`: H_xx - sum_{y != x} |H_xy| <= hi.

    At most this many eigenvalues lie at or below `hi` (the module docstring
    gives the proof).  `row_sums` are the sums of |H_xy| over each row.
    """
    diagonal = entries.diagonal()
    return int(np.count_nonzero(diagonal - (row_sums - np.abs(diagonal)) <= hi))


def _diagonal_window(diagonal: np.ndarray, lo: float, hi: float):
    """In-window eigenpairs of a diagonal matrix: its entries in the window, with unit vectors.

    Each Gershgorin disc is a point, so the count of `_window_count` is the
    rank of the window and no Lanczos call is needed (a Krylov space would
    hold one vector of each degenerate eigenvalue only).
    """
    rows = np.flatnonzero((diagonal >= lo) & (diagonal <= hi))
    rows = rows[np.argsort(diagonal[rows], kind="stable")]
    vectors = np.zeros((len(diagonal), len(rows)))
    vectors[rows, np.arange(len(rows))] = 1.0
    return diagonal[rows], vectors


def _lanczos_window(entries, lo: float, hi: float, count: int):
    """In-window eigenpairs of a large sector by one Lanczos call, or None.

    `count` bounds the eigenvalues at or below `hi` (`_window_count`), so the
    count + 1 smallest eigenpairs hold the whole window; if the largest of
    them lies inside it, the count was wrong and NumericError is raised.  A
    window of `count` pairs is complete by the bound, and so is an empty one.
    A window holding some but fewer pairs may lack copies of a degenerate
    eigenvalue, since a Krylov space holds one vector per eigenspace; a
    second call on the matrix with the found pairs shifted above `hi`, from
    another start, checks it (`_holds_the_rest`).  A window that fails the
    check returns None, as does a count + 1 that reaches dim - 1, where
    ARPACK stops.  The start vectors are seeded by the dimension alone:
    ARPACK's own start depends on earlier calls, and a reflection-symmetric
    start (such as all ones) would keep the Krylov space inside one parity
    sector of the field-free chain.
    """
    import scipy.sparse.linalg  # imported here: only large sectors need it

    dim = entries.shape[0]
    k = count + 1
    if k >= dim - 1:
        return None
    start = np.random.default_rng(dim).standard_normal(dim)
    try:
        w, v = scipy.sparse.linalg.eigsh(
            entries, k=k, which="SA", v0=start, ncv=min(dim, max(3 * k, 20))
        )
    except scipy.sparse.linalg.ArpackError as exc:  # pragma: no cover
        raise NumericError(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    if w[-1] <= hi:
        raise NumericError(
            f"Lanczos window count {count} is too low: eigenvalue {count + 1} "
            f"({w[-1]!r}) lies inside the window edge {hi!r}"
        )
    inside = w <= hi
    if 0 < np.count_nonzero(inside) < count and not _holds_the_rest(
        entries, w[inside], v[:, inside], hi
    ):
        return None
    keep = inside & (w >= lo)
    return w[keep], v[:, keep]


def _holds_the_rest(entries, w: np.ndarray, v: np.ndarray, hi: float) -> bool:
    """Whether the pairs (w, v) are all the eigenpairs at or below `hi`.

    The matrix plus (hi + 1 - min w) v v^T moves the found eigenvalues above
    `hi` and keeps the others; its lowest eigenvalue lies above `hi` exactly
    when none was missed.  The start differs from the first call's, whose
    component in a degenerate eigenspace is the vector already found there.
    """
    import scipy.sparse.linalg

    dim = entries.shape[0]
    shift = hi + 1.0 - w[0]
    deflated = scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=lambda x: entries @ x + shift * (v @ (v.T @ x)), dtype=float
    )
    start = np.random.default_rng([dim, 1]).standard_normal(dim)
    try:
        lowest = scipy.sparse.linalg.eigsh(
            deflated, k=1, which="SA", v0=start, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackError as exc:  # pragma: no cover
        raise NumericError(f"Lanczos eigensolve failed: {exc}") from exc
    return bool(lowest[0] > hi)


def eigensolve(
    matrix: SectorMatrix, e_max: float | None = None, lowest: int | None = None
) -> SpectralData:
    """Symmetric eigendecomposition, validated against EIG_TOL.

    With `e_max` only the eigenpairs in the closed window
    [-EDGE_TIE_TOL, e_max + EDGE_TIE_TOL] are computed and returned: by one
    Lanczos call (`_lanczos_window`) for sectors above LANCZOS_MIN_DIM, by
    LAPACK otherwise.  The Lanczos call asks for c + 1 eigenpairs, where c
    counts the rows whose Gershgorin disc reaches the window edge
    (`_window_count`): the discs of the other rows lie above the edge, so the
    block on those rows has every eigenvalue above it, and by min-max at most
    c eigenvalues of the sector lie in the window.  A Lanczos window holding
    some but fewer than c eigenpairs may lack copies of a degenerate
    eigenvalue; a second call checks it, and a window failing the check is
    solved densely.  A diagonal sector (no off-diagonal weight, as at
    delta_inv = 0) above LANCZOS_MIN_DIM has its window read off the
    diagonal, with no dense solve.  With `lowest` only
    the `lowest` smallest eigenpairs are computed, by LAPACK.  Full solves are
    dense.  `matrix.entries` may be dense or a sparse array; a dense solve
    densifies a sparse one.
    Columns come back sign-canonical, so the full and the windowed solve give
    the same vector for a non-degenerate eigenvalue.  Up to _VALIDATE_FULL_DIM
    columns are validated in full; above it the residual and orthonormality
    checks run on a deterministic column subset so validation stays cheaper
    than the solve itself.
    """
    if e_max is not None and lowest is not None:
        raise DomainError("ask for a window or for the lowest eigenpairs, not both")
    if lowest is not None and not 1 <= lowest <= matrix.dim:
        raise DomainError(f"lowest must lie in [1, {matrix.dim}], got {lowest}")
    dim = matrix.dim
    entries = matrix.entries
    # Sums of |H_xy| over each row: the Gershgorin count of a Lanczos window
    # and the residual scale below.
    row_sums = abs(entries).sum(axis=1)
    lo = -EDGE_TIE_TOL
    hi = None if e_max is None else e_max + EDGE_TIE_TOL
    found = None
    if hi is not None and dim > LANCZOS_MIN_DIM:
        _require_dim(dim, LANCZOS_DIM_CAP, "Lanczos")
        diagonal = entries.diagonal()
        if np.array_equal(row_sums, np.abs(diagonal)):
            found = _diagonal_window(diagonal, lo, hi)
        else:
            found = _lanczos_window(entries, lo, hi, _window_count(entries, row_sums, hi))
    if found is not None:
        w, v = found
    else:
        _require_dim(dim, SECTOR_DIM_CAP, "dense")
        dense = entries if isinstance(entries, np.ndarray) else entries.toarray()
        try:
            if hi is not None:
                w, v = scipy.linalg.eigh(
                    dense, subset_by_value=(lo - WINDOW_PAD, hi + WINDOW_PAD)
                )
                keep = (w >= lo) & (w <= hi)
                w, v = w[keep], v[:, keep]
            elif lowest is not None:
                w, v = scipy.linalg.eigh(dense, subset_by_index=(0, lowest - 1))
            else:
                w, v = scipy.linalg.eigh(dense)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
            raise NumericError(f"eigensolve failed to converge: {exc}") from exc
    v = _canonical_signs(v)
    # Row-sum norm: an upper bound on the spectral norm that a windowed solve
    # cannot read off its own eigenvalues.
    scale = max(1.0, float(row_sums.max(initial=0.0)))
    count = len(w)
    if count:
        if count <= _VALIDATE_FULL_DIM:
            cols = np.arange(count)
        else:
            cols = np.random.default_rng(count).choice(count, _VALIDATE_COLUMNS, replace=False)
        sub = v[:, cols]
        residual = np.abs(entries @ sub - sub * w[cols]).max()
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
    return zero_mode_report(sector_spectra(params, lattice), tol)


def zero_mode_report(spectra: dict[int, SpectralData], tol: float = 1e-10) -> GroundStateReport:
    """`ground_state_check` read off full spectra of every sector, already solved.

    The spectra must be those of the field-free chain in the standard
    boundary mode; raises VerificationError where the claim fails.
    """
    lowest: list[tuple[float, int]] = []
    for n, data in sorted(spectra.items()):
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
    restricted field-free one (`field_dominance_check`).
    """
    if k < 1:
        raise DomainError(f"cluster threshold index k must be >= 1, got {k}")
    bare = params.without_field()
    margin = math.inf
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        kept = cluster_mask(basis, k)
        if not kept.size:
            continue
        lowest = eigensolve(restrict(assemble_sector(bare, basis), kept)).eigenvalues[0]
        margin = min(margin, float(lowest) - k * (1.0 - params.delta_inv))
    if params.field is not None:
        field_dominance_check(params, lattice, k)
    return margin


def field_dominance_check(params: ModelParams, lattice: Lattice, k: int) -> None:
    """Check that the field only adds a non-negative diagonal to the >=k-cluster restriction.

    The restrictions for larger k are sub-blocks of this one, so they pass
    with it.  Assembles every sector once with and once without the field,
    and raises VerificationError for the first sector where the difference
    of the restrictions is not such a diagonal.
    """
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        idx = cluster_mask(basis, k)
        if not idx.size:
            continue
        added = assemble_sector(params, basis).entries - assemble_sector(
            params.without_field(), basis
        ).entries
        block = added[np.ix_(idx, idx)]
        diagonal = np.diag(block)
        if diagonal.min() < -1e-12 or np.abs(block - np.diag(diagonal)).max() > 1e-12:
            raise VerificationError(f"field term fails to dominate in sector n={n}, k={k}")


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

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # dim x count, columns aligned with eigenvalues


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
        return sel.eigenvectors @ sel.eigenvectors.T


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


def window_floors(params: ModelParams, lattice: Lattice, e_max: float) -> np.ndarray:
    """Lower bounds on the eigenvalues E <= e_max of each sector n = 0..|lattice|.

    Sectors 2 <= n <= |lattice| - 1 sharpen the floor of `spectral_floors`
    with a Feshbach (Schur-complement) bound.  Split the sector into the
    single-cluster configurations P and the rest Q:
    - QHQ >= lambda_Q = 2(1 - delta_inv) + (sum of the n smallest field
      values), the k=2 cluster threshold (`threshold_check`) plus Weyl;
    - ||PHQ|| <= delta_inv: a single cluster reaches at most two
      configurations of Q by one hop, each of them is reached from at most
      two single clusters, and a hop has amplitude delta_inv / 2;
    - PHP is diagonal, since for n >= 2 no hop joins two single clusters.
    An eigenvalue E <= e_max < lambda_Q of the sector is an eigenvalue of the
    Feshbach map PHP - PHQ (QHQ - E)^-1 QHP, so
    E >= min diag(PHP) - delta_inv^2 / (lambda_Q - e_max).
    Sector 1, where PHP is tridiagonal, and the full sector keep the Weyl
    floor, as does every sector when e_max >= lambda_Q.  diag(PHP) is read off
    the single clusters' walls and end sites (`_cluster_template`) and their
    field, summed site by site from the left as the sector's diagonal is.
    """
    floors = spectral_floors(params, lattice)
    if params.boundary_mode != "standard":
        return floors
    site_values = np.array([params.field_value(s) for s in lattice.sites])
    values = np.sort(site_values)
    onsite = site_values
    for n in range(2, lattice.size):
        # Field of the n-site clusters, left to right by start.
        onsite = onsite[:-1] + site_values[n - 1 :]
        gap = 2.0 * (1.0 - params.delta_inv) + values[:n].sum() - e_max
        if gap <= 0:
            continue
        half_walls, boundary = _cluster_template(lattice.size, n)
        lowest = float((half_walls + params.beta * boundary + onsite).min())
        floors[n] = max(floors[n], lowest - params.delta_inv**2 / gap)
    return floors


@functools.cache
def _cluster_template(size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half the domain walls and the occupied end sites of the n-site clusters
    of a `size`-site lattice, left to right by start (1 < n < size)."""
    ends = np.zeros(size - n + 1, dtype=int)
    ends[[0, -1]] = 1
    return 0.5 * (2 - ends), ends


def droplet_projector(
    params: ModelParams,
    lattice: Lattice,
    window: DropletWindow,
    n_max: int | None = None,
    override_window_check: bool = False,
) -> DropletProjector:
    """Select all eigenpairs with eigenvalue in [0, e_max] across sectors 0..n_max.

    A sector whose in-window floor (`window_floors`) lies above the window
    edge by more than SKIP_MARGIN has no eigenvalue in the window: it is
    neither assembled nor solved and gets an empty selection.  Every other
    sector is solved for its in-window eigenpairs only; one large enough for
    Lanczos is assembled sparse.
    """
    if not override_window_check and not window.is_valid_for(params):
        raise DomainError(
            f"window edge {window.e_max!r} is not below the validity limit "
            f"2(1 - 3*delta_inv) = {validity_limit(params)!r}"
        )
    if n_max is None:
        n_max = lattice.size
    floors = window_floors(params, lattice, window.e_max)
    selections = {}
    for n in range(n_max + 1):
        if floors[n] > window.e_max + SKIP_MARGIN:
            dim = math.comb(lattice.size, n)
            selections[n] = SectorSelection(np.empty(0), np.empty((dim, 0)))
            continue
        basis = enumerate_sector(lattice, n)
        assemble = assemble_sector_sparse if len(basis) > LANCZOS_MIN_DIM else assemble_sector
        data = eigensolve(assemble(params, basis), window.e_max)
        selections[n] = SectorSelection(data.eigenvalues, data.eigenvectors)
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
    row = sel.eigenvectors[basis.index_of(tuple(x)), :]
    return float(np.dot(row, row))


def local_dos_by_sector(projector: DropletProjector, n: int) -> np.ndarray:
    """All diagonal projector elements of sector n at once."""
    sel = projector.selections[n]
    return np.einsum("ij,ij->i", sel.eigenvectors, sel.eigenvectors)


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
    sizes = [sel.eigenvectors.shape[1] for _, sel in items]
    total = sum(sizes)
    if total == 0:
        raise DomainError("the selected droplet family is empty")
    coeff = rng.standard_normal(total)
    coeff /= np.linalg.norm(coeff)
    parts = {}
    offset = 0
    for (n, sel), m in zip(items, sizes):
        if m:
            parts[n] = sel.eigenvectors @ coeff[offset : offset + m]
        offset += m
    return AmplitudeMap(projector.lattice, parts)


class GreensSlice:
    """Columns of the inverse of the >=2-cluster restriction of (H - E).

    Columns are solved on demand from a Cholesky factorization and cached, so
    the full inverse is only ever materialized column by column.
    """

    def __init__(self, energy: float, kept: np.ndarray, basis, factor):
        self.energy = energy
        self.kept = kept
        self.basis = basis
        self._factor = factor
        self._columns: dict[int, np.ndarray] = {}

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
        pos = int(np.searchsorted(self.kept, ordinal))
        if pos == len(self.kept) or self.kept[pos] != ordinal:
            raise DomainError(f"{tuple(x)} is not in the >=2-cluster restriction")
        return pos


def greens_function(params: ModelParams, basis, energy: float) -> GreensSlice:
    """Restricted resolvent at a real energy inside the positive-definite window."""
    limit = validity_limit(params)
    if energy < 0 or energy >= limit:
        raise DomainError(
            f"energy {energy!r} outside the admissible window [0, {limit!r})"
        )
    matrix = restrict(assemble_sector(params, basis), cluster_mask(basis, 2))
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


def evolve(
    spectra: dict[int, SpectralData | SectorSelection], psi: AmplitudeMap, t: float
) -> AmplitudeMap:
    """Apply the unitary phase factors exp(-i * eigenvalue * t) sector by sector.

    `spectra` holds per sector either every eigenpair (`sector_spectra`) or
    only some, such as a projector's in-window selections; with only some,
    the state must lie in their span, or the norm-drift check fails.
    """
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
