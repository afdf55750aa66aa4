"""Reduced-state spectra and Renyi entropies over interval bipartitions.

A pure state is matricized: rows are the particle configurations on the
inside sites, columns those on the outside, and the squared singular values
are the reduced-state spectrum.  This is better conditioned than assembling
the reduced density matrix (the entrywise construction survives only as a
test oracle).  Both sides of a configuration are placed by their
`configspace.occupation_rank`, read straight off the occupation mask, so no
subset of either side is ever enumerated.  The module also houses the
Hartley bound checks for cluster-supported states, an estimated supremum of
the entropy over a chosen droplet family, and the entropy-versus-block-size
scan with its concave-log fit.  The estimator and the scan evaluate their
candidates in batches.  A candidate inside one particle-number sector n is
block diagonal over the count a of particles inside the block (rows with a
inside, columns with n - a outside), so its spectrum is the union of the
blocks' spectra and only the blocks are decomposed (`_sector_spectra`).
The estimator's ascent mixes sectors, so it decomposes the matricized window
vectors stacked once per block (`_window_stack`, `_candidate_spectra`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .configspace import Lattice, enumerate_sector, occupation_rank
from .errors import DomainError, NumericError, VerificationError
from .spectral import DropletProjector, DropletWindow, droplet_projector
from .hamiltonian import ModelParams, cluster_mask
from .states import AmplitudeMap

RANK_TOL = 1e-12
SCHMIDT_MATCH_TOL = 1e-10
FROBENIUS_TOL = 1e-12


@dataclass(frozen=True)
class Bipartition:
    """Interval block B = [lo, hi] with a nonempty complement."""

    lattice: Lattice
    lo: int
    hi: int

    def __post_init__(self) -> None:
        L = self.lattice.L
        if not (-L <= self.lo <= self.hi <= L):
            raise DomainError(f"[{self.lo}, {self.hi}] is not a sub-interval of [-{L}, {L}]")
        if self.lo == -L and self.hi == L:
            raise DomainError("the block must leave a nonempty complement")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))

    @property
    def complement_sites(self) -> tuple[int, ...]:
        L = self.lattice.L
        return tuple(s for s in range(-L, L + 1) if s < self.lo or s > self.hi)

    @property
    def boundary_size(self) -> int:
        # Bonds leaving the block; 1 when one end touches the lattice edge.
        return (self.lo > -self.lattice.L) + (self.hi < self.lattice.L)


def centered_block(lattice: Lattice, size: int) -> Bipartition:
    """Interval of the given length placed as centrally as possible."""
    if not 1 <= size <= lattice.size - 1:
        raise DomainError(f"block length {size} impossible on {lattice.size} sites")
    lo = -(size // 2)
    return Bipartition(lattice, lo, lo + size - 1)


@dataclass(frozen=True)
class Matricization:
    """State amplitudes arranged as an inside-by-outside matrix."""

    matrix: np.ndarray


_split_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _split_indices(lattice: Lattice, row_sites: tuple[int, ...], n: int):
    """Row/column scatter positions of every n-particle configuration.

    The row is the `occupation_rank` of the configuration's part on the
    ascending `row_sites`, the column that of its part on the other sites:
    positions among all subsets of either side, by (count, colex).
    """
    key = (lattice.L, row_sites, n)
    got = _split_cache.get(key)
    if got is None:
        occ = enumerate_sector(lattice, n).occupation()
        inside = np.isin(lattice.sites, row_sites)
        got = _split_cache.setdefault(
            key, (occupation_rank(occ[:, inside]), occupation_rank(occ[:, ~inside]))
        )
    return got


def matricize_sites(psi: AmplitudeMap, row_sites: tuple[int, ...]) -> Matricization:
    """Matricize against an arbitrary set of inside sites.

    The matrix has a row for every subset of the inside sites and a column
    for every subset of the outside ones, in `_split_indices`' order.
    """
    lattice = psi.lattice
    row_sites = tuple(sorted(row_sites))
    dtype = complex if any(np.iscomplexobj(v) for v in psi.parts.values()) else float
    M = np.zeros((1 << len(row_sites), 1 << (lattice.size - len(row_sites))), dtype=dtype)
    for n, vec in psi.parts.items():
        rows, cols = _split_indices(lattice, row_sites, n)
        M[rows, cols] = vec
    frob = float(np.linalg.norm(M))
    if abs(frob - psi.norm()) > FROBENIUS_TOL * max(1.0, psi.norm()):
        raise NumericError(
            f"matricization changed the norm: {frob!r} vs {psi.norm()!r}"
        )
    return Matricization(matrix=M)


def matricize(psi: AmplitudeMap, part: Bipartition) -> Matricization:
    """Matricize a normalized state over an interval bipartition."""
    psi.require_normalized()
    return matricize_sites(psi, part.sites)


@dataclass(frozen=True)
class EntropyReport:
    alpha: float
    value: float
    schmidt_spectrum: np.ndarray
    rank: int


def _schmidt_spectrum(m: Matricization) -> np.ndarray:
    sv = np.linalg.svd(m.matrix, compute_uv=False)
    return np.sort(sv * sv)[::-1]


def _renyi_from_spectrum(lam: np.ndarray, alpha: float, rank_tol: float) -> tuple[float, int]:
    threshold = rank_tol * lam[0] if lam.size else 0.0
    rank = int(np.sum(lam > threshold))
    if alpha == 0:
        return float(np.log(rank)), rank
    positive = lam[lam > 0]
    if alpha == 1:
        return float(-np.sum(positive * np.log(positive))), rank
    return float(np.log(np.sum(positive**alpha)) / (1.0 - alpha)), rank


def renyi_entropy(m: Matricization, alpha: float, rank_tol: float = RANK_TOL) -> EntropyReport:
    """Renyi entropy of order alpha from the matricization's singular values.

    alpha = 1 is the von Neumann limit (with 0*ln 0 = 0) and alpha = 0 the
    Hartley limit ln(rank), with rank counted above rank_tol relative to the
    largest Schmidt value.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    lam = _schmidt_spectrum(m)
    value, rank = _renyi_from_spectrum(lam, alpha, rank_tol)
    return EntropyReport(alpha=alpha, value=max(value, 0.0), schmidt_spectrum=lam, rank=rank)


def entropy(psi: AmplitudeMap, part: Bipartition, alpha: float) -> float:
    return renyi_entropy(matricize(psi, part), alpha).value


def min_side_entropy(psi: AmplitudeMap, part: Bipartition, alpha: float) -> EntropyReport:
    """Entropy over the block, cross-checked against the complement side.

    The two matricizations share their nonzero Schmidt spectra; any mismatch
    beyond tolerance is an internal error, so the common value is returned.
    """
    report = renyi_entropy(matricize(psi, part), alpha)
    other = matricize_sites(psi, part.complement_sites)
    lam_b = report.schmidt_spectrum
    lam_c = _schmidt_spectrum(other)
    k = min(len(lam_b), len(lam_c))
    mismatch = float(np.max(np.abs(lam_b[:k] - lam_c[:k]))) if k else 0.0
    tail = max(
        float(lam_b[k:].max(initial=0.0)), float(lam_c[k:].max(initial=0.0))
    )
    if max(mismatch, tail) > SCHMIDT_MATCH_TOL:
        raise VerificationError(
            f"Schmidt spectra from the two sides differ by {max(mismatch, tail):.3e}"
        )
    return report


@dataclass(frozen=True)
class HartleyBoundReport:
    value: float
    boundary_bound: float
    particle_bound: float | None
    slack: float


def _boundary_bound(part: Bipartition) -> float:
    """The Hartley bound ln(3 + |boundary| * (|B| - 1)) of a cluster-supported state."""
    return float(np.log(3 + part.boundary_size * (part.size - 1)))


def _require_clustered(lattice: Lattice, parts: dict[int, np.ndarray]) -> None:
    """Raise DomainError naming the first state with weight off the single clusters.

    `parts` maps a sector n to the amplitudes of one or more states, one row each.
    """
    multi = {m: cluster_mask(enumerate_sector(lattice, m), 2) for m in parts}
    outside = {
        m: np.abs(np.atleast_2d(values)[:, multi[m]]) > 1e-14 for m, values in parts.items()
    }
    at_fault = [np.flatnonzero(mask.any(axis=1)) for mask in outside.values()]
    first = min((int(rows[0]) for rows in at_fault if rows.size), default=None)
    if first is None:
        return
    offenders = [
        enumerate_sector(lattice, m)[k]
        for m, mask in outside.items()
        for k in multi[m][mask[first]]
    ]
    raise DomainError(f"state is not supported on clustered configurations: {offenders[:5]}")


def hartley_bound_check(
    psi: AmplitudeMap, part: Bipartition, n: int | None = None
) -> HartleyBoundReport:
    """Hartley entropy of a cluster-supported state against its two log bounds.

    The state must live on single-cluster configurations (vacuum included).
    The boundary bound is ln(3 + |boundary| * (|B| - 1)); with a particle cap
    n the tighter ln(3 + 2(min(n, |B|) - 1)) is checked as well.
    """
    _require_clustered(psi.lattice, psi.parts)
    if n is not None and psi.n_max > n:
        raise DomainError(f"state occupies sector {psi.n_max} beyond the cap n={n}")
    s0 = renyi_entropy(matricize(psi, part), 0.0).value
    boundary_bound = _boundary_bound(part)
    particle_bound = None
    if n is not None:
        s = min(n, part.size)
        particle_bound = float(np.log(3 + 2 * (s - 1)))
    bound = boundary_bound if particle_bound is None else min(boundary_bound, particle_bound)
    if s0 > boundary_bound + 1e-9 or (particle_bound is not None and s0 > particle_bound + 1e-9):
        raise VerificationError(
            f"Hartley entropy {s0!r} exceeds the bound {bound!r} for |B|={part.size}"
        )
    return HartleyBoundReport(
        value=s0,
        boundary_bound=boundary_bound,
        particle_bound=particle_bound,
        slack=bound - s0,
    )


def hartley_bound_batch(
    states: list[AmplitudeMap], parts: list[Bipartition]
) -> tuple[np.ndarray, np.ndarray]:
    """`hartley_bound_check` without a particle cap, for many states and blocks at once.

    Returns the Hartley entropies, one row per state and one column per
    block, and the blocks' boundary bounds.  Per block, every state is
    matricized into one (states, rows, cols) array (sectors fill disjoint
    entries) and all Schmidt spectra come from one batched SVD; the rank is
    counted as `renyi_entropy(., 0)` counts it.  The states must be unit
    vectors (`_schmidt_rows` checks it).  Raises what the per-state check
    raises, for the first state at fault.
    """
    lattice = parts[0].lattice
    sectors = sorted({n for psi in states for n in psi.parts})
    amplitudes = {
        n: np.array(
            [psi.parts.get(n, np.zeros(len(enumerate_sector(lattice, n)))) for psi in states]
        )
        for n in sectors
    }
    _require_clustered(lattice, amplitudes)
    dtype = np.result_type(float, *amplitudes.values())
    values = np.empty((len(states), len(parts)))
    for b, part in enumerate(parts):
        size = part.size
        matrices = np.zeros((len(states), 1 << size, 1 << (lattice.size - size)), dtype=dtype)
        for n, rows_of_states in amplitudes.items():
            rows, cols = _split_indices(lattice, part.sites, n)
            matrices[:, rows, cols] = rows_of_states
        values[:, b] = _renyi_rows(_schmidt_rows(matrices), 0.0)
    bounds = np.array([_boundary_bound(part) for part in parts])
    over = values > bounds + 1e-9
    if over.any():
        j, b = np.argwhere(over)[0]
        raise VerificationError(
            f"Hartley entropy {values[j, b]!r} exceeds the bound {bounds[b]!r} "
            f"for |B|={parts[b].size}"
        )
    return values, bounds


@dataclass(frozen=True)
class SupEstimate:
    """Certified-from-below estimate of the entropy supremum over a droplet family."""

    value: float
    eigenstate_max: float
    candidates: int


_stack_layout_cache: dict[tuple, tuple[int, int, list[tuple[np.ndarray, np.ndarray]]]] = {}


def _stack_layout(lattice: Lattice, row_sites: tuple[int, ...], ns: tuple[int, ...]):
    """The stack's row and column counts, and each sector's scatter positions in them.

    Only rows and columns that some configuration of the sectors `ns` reaches
    are kept.  Cached per (L, block sites, sectors).
    """
    key = (lattice.L, row_sites, ns)
    got = _stack_layout_cache.get(key)
    if got is None:
        splits = [_split_indices(lattice, row_sites, n) for n in ns]
        row_ids, row_of = np.unique(np.concatenate([r for r, _ in splits]), return_inverse=True)
        col_ids, col_of = np.unique(np.concatenate([c for _, c in splits]), return_inverse=True)
        ends = np.cumsum([len(r) for r, _ in splits])
        positions = [
            (row_of[end - len(r) : end], col_of[end - len(r) : end])
            for (r, _), end in zip(splits, ends)
        ]
        got = _stack_layout_cache.setdefault(key, (len(row_ids), len(col_ids), positions))
    return got


def _window_stack(
    lattice: Lattice, part: Bipartition, vectors: dict[int, np.ndarray]
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Matricized vectors M_i of each sector, stacked in sector order.

    `vectors` maps a sector n to its columns; the stack has shape
    (total columns, rows, cols) and the layout gives each sector's slice.
    Rows and columns that no stacked configuration reaches are left out:
    they are zero in every combination, so no Schmidt spectrum changes.
    """
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
    rows, cols, positions = _stack_layout(lattice, part.sites, tuple(n for n, _, _ in present))
    stack = np.zeros((offset, rows, cols))
    for (n, lo, hi), (row_of, col_of) in zip(present, positions):
        stack[lo:hi, row_of, col_of] = vectors[n].T
    return stack, layout


def _require_unit_spectra(lam: np.ndarray) -> np.ndarray:
    """`lam`, once every row is found to sum to 1 within FROBENIUS_TOL."""
    drift = float(np.abs(lam.sum(axis=1) - 1.0).max(initial=0.0))
    if drift > FROBENIUS_TOL:
        raise NumericError(f"Schmidt spectra of unit vectors miss 1 by {drift:.3e}")
    return lam


def _schmidt_rows(matrices: np.ndarray) -> np.ndarray:
    """Descending Schmidt spectra of a stack of matricized unit vectors, one row each.

    Every spectrum must sum to 1 within FROBENIUS_TOL.
    """
    sv = np.linalg.svd(matrices, compute_uv=False)
    return _require_unit_spectra(sv * sv)


_charge_cache: dict[tuple, tuple[np.ndarray, list[tuple[int, int, int, int]]]] = {}


def _charge_blocks(lattice: Lattice, row_sites: tuple[int, ...], n: int):
    """Sector n's configurations in charge-block order, and the blocks' extents.

    A configuration with a particles on `row_sites` lies in block a: its
    row is one of the C(|B|, a) a-subsets of the block, its column one of
    the C(|Bc|, n - a) subsets of the complement, and every such pair is one
    configuration.  `_split_indices` ranks rows and columns by (count,
    colex), so sorting the configurations by (row, column) lays the blocks
    out one after another in ascending a, each full and row-major.  Returns
    that order and (start, stop, rows, cols) per block.  Cached per (L,
    block sites, n).
    """
    key = (lattice.L, row_sites, n)
    got = _charge_cache.get(key)
    if got is None:
        rows, cols = _split_indices(lattice, row_sites, n)
        inside, outside = len(row_sites), lattice.size - len(row_sites)
        blocks = []
        start = 0
        for a in range(max(0, n - outside), min(n, inside) + 1):
            shape = (comb(inside, a), comb(outside, n - a))
            blocks.append((start, start + shape[0] * shape[1], *shape))
            start = blocks[-1][1]
        order = np.argsort((rows << outside) | cols)
        got = _charge_cache.setdefault(key, (order, blocks))
    return got


def _sector_spectra(
    lattice: Lattice,
    row_sites: tuple[int, ...],
    n: int,
    vectors: np.ndarray,
    coeffs: np.ndarray,
) -> np.ndarray:
    """Descending Schmidt spectra of the sector-n candidates vectors @ coeffs[k], one row each.

    The spectrum of a one-sector state is the union of its charge blocks'
    spectra (`_charge_blocks`), so only the blocks are decomposed.  A block
    with one row or one column has one Schmidt value, its squared norm, and
    needs no SVD; the others go through one batched SVD each.  Spectra keep
    one entry per block rank, so they are shorter than `_candidate_spectra`'s
    on the full layout by zeros only.  The coefficient rows are unit vectors
    and the sector's `vectors` columns must be orthonormal, or the spectra
    miss 1 (`_require_unit_spectra`).
    """
    order, blocks = _charge_blocks(lattice, row_sites, n)
    amplitudes = coeffs @ vectors[order].T
    lam = np.empty((len(coeffs), sum(min(rows, cols) for _, _, rows, cols in blocks)))
    at = 0
    for start, stop, rows, cols in blocks:
        block = amplitudes[:, start:stop]
        if rows == 1 or cols == 1:
            lam[:, at] = np.einsum("ki,ki->k", block, block)
            at += 1
        else:
            sv = np.linalg.svd(block.reshape(-1, rows, cols), compute_uv=False)
            lam[:, at : at + sv.shape[1]] = sv * sv
            at += sv.shape[1]
    lam.sort(axis=1)
    return _require_unit_spectra(lam[:, ::-1])


def _candidate_spectra(stack: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Descending Schmidt spectra of the candidates sum_i coeffs[k, i] M_i, one row each.

    The coefficient rows are unit vectors and the stacked vectors must be
    orthonormal, or `_schmidt_rows` finds spectra that miss 1.
    """
    total, rows, cols = stack.shape
    return _schmidt_rows((coeffs @ stack.reshape(total, -1)).reshape(-1, rows, cols))


def _renyi_rows(lam: np.ndarray, alpha: float) -> np.ndarray:
    """`renyi_entropy`'s values, clipped at 0, for each row of descending spectra."""
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        values = np.log(np.sum(lam > RANK_TOL * lam[:, :1], axis=1))
    elif alpha == 1:
        values = -np.sum(lam * np.log(np.where(lam > 0, lam, 1.0)), axis=1)
    else:
        values = np.log(np.sum(lam**alpha, axis=1)) / (1.0 - alpha)
    return np.maximum(values, 0.0)


def _with_random(m: int, n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Coefficient rows: the m unit vectors, then n_random random unit combinations.

    A lone vector gets no random rows: they would reproduce it.
    """
    if m < 2:
        return np.eye(m)
    block = rng.standard_normal((n_random, m))
    return np.vstack([np.eye(m), block / np.linalg.norm(block, axis=1, keepdims=True)])


def droplet_sup_entropy(
    projector: DropletProjector,
    part: Bipartition,
    alpha: float,
    rng: np.random.Generator,
    n_random: int = 64,
    ascent_steps: int = 20,
) -> SupEstimate:
    """Estimated supremum of S_alpha over unit vectors in the selected family.

    Candidates: every selected eigenstate and n_random random unit
    combinations inside each sector's selection, evaluated sector by sector
    from their charge blocks (`_sector_spectra`), then projected coordinate
    ascent in the full selected eigenbasis from the best candidate, on the
    stacked window (`_candidate_spectra`), trying four angles per
    step along the directions in a random cyclic order and keeping the first
    that improves.  The ascent stops early once a full sweep of the
    directions (one step each) gains nothing: every later step would rebuild
    candidates already evaluated from the same point, so the result is the
    one `ascent_steps` steps give, bit for bit, and `ascent_steps` is a cap.
    The first maximum wins throughout.  `candidates` counts every entropy
    evaluated.  The result is a lower bound of the true supremum by
    construction.
    """
    vectors = {n: sel.eigenvectors for n, sel in projector.selections.items()}
    stack, layout = _window_stack(projector.lattice, part, vectors)
    total = len(stack)
    if total == 0:
        return SupEstimate(value=0.0, eigenstate_max=0.0, candidates=0)

    best_val = -np.inf
    best_coeff = None
    eigen_max = 0.0
    candidates = 0

    for n, (lo, hi) in zip(sorted(vectors), layout):
        if hi == lo:
            continue
        coeffs = _with_random(hi - lo, n_random, rng)
        lam = _sector_spectra(projector.lattice, part.sites, n, vectors[n], coeffs)
        values = _renyi_rows(lam, alpha)
        candidates += len(values)
        eigen_max = max(eigen_max, float(values[: hi - lo].max()))
        k = int(np.argmax(values))
        if values[k] > best_val:
            best_val = values[k]
            best_coeff = np.zeros(total)
            best_coeff[lo:hi] = coeffs[k]

    directions = rng.permutation(total)
    angles = np.array([0.3, -0.3, 0.1, -0.1])
    stalled = 0
    for step in range(ascent_steps):
        if stalled == total:
            # Every direction failed from the current best_coeff, so each
            # further step would repeat a failed step exactly.
            break
        coeffs = np.outer(np.cos(angles), best_coeff)
        coeffs[:, int(directions[step % total])] += np.sin(angles)
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        values = _renyi_rows(_candidate_spectra(stack, coeffs), alpha)
        candidates += len(values)
        better = np.flatnonzero(values > best_val)
        if better.size:
            best_val, best_coeff = values[better[0]], coeffs[better[0]]
            stalled = 0
        else:
            stalled += 1
    return SupEstimate(
        value=float(best_val), eigenstate_max=float(eigen_max), candidates=candidates
    )


@dataclass(frozen=True)
class ScanRow:
    block_size: int
    n: int
    alpha: float
    max_entropy: float
    states: int


@dataclass(frozen=True)
class LogBoundFit:
    """Fit of S(s) <= scale * ln(offset + slope * s) with its largest residual."""

    scale: float
    offset: float
    slope: float
    max_residual: float
    envelope_shift: float

    def envelope(self, s: float) -> float:
        return self.scale * np.log(self.offset + self.slope * s) + self.envelope_shift


def fit_log_bound(s_values: np.ndarray, entropies: np.ndarray) -> LogBoundFit:
    """Least-squares concave-log fit; the envelope shift makes it dominate the data."""
    import scipy.optimize  # imported here: it adds a quarter second to every package import

    def model(theta, s):
        scale, offset, slope = theta
        return scale * np.log(offset + slope * s)

    def loss(theta):
        return model(theta, s_values) - entropies

    result = scipy.optimize.least_squares(
        loss,
        x0=np.array([1.0, 1.5, 2.0]),
        bounds=([1e-3, 1.0, 1e-3], [50.0, 50.0, 50.0]),
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    residuals = model(result.x, s_values) - entropies
    max_residual = float(np.max(np.abs(residuals)))
    shift = float(max(0.0, np.max(-residuals)))
    return LogBoundFit(
        scale=float(result.x[0]),
        offset=float(result.x[1]),
        slope=float(result.x[2]),
        max_residual=max_residual,
        envelope_shift=shift,
    )


@dataclass(frozen=True)
class EntropyScan:
    rows: tuple[ScanRow, ...]
    fits: dict[float, LogBoundFit]
    empty_sectors: tuple[int, ...]


def entropy_scan(
    params: ModelParams,
    lattice: Lattice,
    window: DropletWindow,
    part_sizes,
    alphas,
    seed: int = 0,
    n_random: int = 64,
    projector: DropletProjector | None = None,
) -> EntropyScan:
    """Max entropy over the window's eigenstates and random sector combinations.

    Emits one row per (block size, sector, alpha) and a concave-log fit of the
    per-s envelope, s = min(n, |B|).  Every candidate lies in one sector, so
    its Schmidt spectrum comes from its charge blocks (`_sector_spectra`).
    """
    if projector is None:
        projector = droplet_projector(params, lattice, window)
    alphas = tuple(alphas)
    rows = []
    empty = tuple(
        n for n, sel in sorted(projector.selections.items()) if sel.eigenvectors.shape[1] == 0
    )
    for size in part_sizes:
        part = centered_block(lattice, size)
        for n, sel in sorted(projector.selections.items()):
            m = sel.eigenvectors.shape[1]
            if m == 0:
                continue
            rng = np.random.default_rng(np.random.SeedSequence((seed, size, n)))
            coeffs = _with_random(m, n_random, rng)
            # One Schmidt spectrum per candidate serves every alpha, so the
            # per-alpha maxima inherit the exact monotonicity in alpha.
            lam = _sector_spectra(lattice, part.sites, n, sel.eigenvectors, coeffs)
            for alpha in alphas:
                rows.append(
                    ScanRow(
                        block_size=size,
                        n=n,
                        alpha=alpha,
                        max_entropy=float(_renyi_rows(lam, alpha).max()),
                        states=len(coeffs),
                    )
                )
    fits = {}
    for alpha in alphas:
        # The growth law is fitted against the effective block size
        # min(|B|, |complement|); the per-size maxima absorb the n grid, and
        # for the maximizing states min(n, |B|) equals that size.
        pts: dict[int, float] = {}
        for row in rows:
            if row.alpha != alpha:
                continue
            s = min(row.block_size, lattice.size - row.block_size)
            pts[s] = max(pts.get(s, 0.0), row.max_entropy)
        s_vals = np.array(sorted(pts))
        fits[alpha] = fit_log_bound(s_vals, np.array([pts[s] for s in s_vals]))
    return EntropyScan(rows=tuple(rows), fits=fits, empty_sectors=empty)
