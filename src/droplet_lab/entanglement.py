"""Reduced-state spectra and Renyi entropies over interval bipartitions.

A pure state is matricized: rows are the particle configurations on the
inside sites, columns those on the outside, and the squared singular values
are the reduced-state spectrum.  This is better conditioned than assembling
the reduced density matrix (the entrywise construction survives only as a
test oracle).  The module also houses the Hartley bound checks for
cluster-supported states, an estimated supremum of the entropy over a chosen
droplet family, and the entropy-versus-block-size scan with its concave-log
fit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .configspace import Config, Lattice, cluster_decompose, enumerate_sector
from .errors import DomainError, NumericError, VerificationError
from .spectral import DropletProjector, DropletWindow, droplet_projector
from .hamiltonian import ModelParams
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
    row_configs: tuple[Config, ...]
    col_configs: tuple[Config, ...]
    row_sites: tuple[int, ...]


def _subset_index(sites: tuple[int, ...]) -> tuple[list[Config], dict[Config, int]]:
    """All subsets of `sites` ordered by (count, colex); with their positions."""
    subsets: list[Config] = []
    for count in range(len(sites) + 1):
        subsets.extend(sorted(itertools.combinations(sites, count), key=lambda c: c[::-1]))
    return subsets, {c: i for i, c in enumerate(subsets)}


_split_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_subset_cache: dict[tuple, tuple[list[Config], dict[Config, int]]] = {}


def _subsets(sites: tuple[int, ...]):
    got = _subset_cache.get(sites)
    if got is None:
        got = _subset_cache.setdefault(sites, _subset_index(sites))
    return got


def _split_indices(lattice: Lattice, row_sites: tuple[int, ...], n: int):
    """Row/column scatter positions of every n-particle configuration."""
    key = (lattice.L, row_sites, n)
    got = _split_cache.get(key)
    if got is None:
        inside = set(row_sites)
        col_sites = tuple(s for s in lattice.sites if s not in inside)
        _, row_pos = _subsets(row_sites)
        _, col_pos = _subsets(col_sites)
        basis = enumerate_sector(lattice, n)
        rows = np.empty(len(basis), dtype=int)
        cols = np.empty(len(basis), dtype=int)
        for i, x in enumerate(basis):
            rows[i] = row_pos[tuple(u for u in x if u in inside)]
            cols[i] = col_pos[tuple(u for u in x if u not in inside)]
        got = _split_cache.setdefault(key, (rows, cols))
    return got


def matricize_sites(psi: AmplitudeMap, row_sites: tuple[int, ...]) -> Matricization:
    """Matricize against an arbitrary set of inside sites."""
    lattice = psi.lattice
    row_sites = tuple(sorted(row_sites))
    inside = set(row_sites)
    col_sites = tuple(s for s in lattice.sites if s not in inside)
    row_configs, _ = _subsets(row_sites)
    col_configs, _ = _subsets(col_sites)
    dtype = complex if any(np.iscomplexobj(v) for v in psi.parts.values()) else float
    M = np.zeros((len(row_configs), len(col_configs)), dtype=dtype)
    for n, vec in psi.parts.items():
        rows, cols = _split_indices(lattice, row_sites, n)
        M[rows, cols] = vec
    frob = float(np.linalg.norm(M))
    if abs(frob - psi.norm()) > FROBENIUS_TOL * max(1.0, psi.norm()):
        raise NumericError(
            f"matricization changed the norm: {frob!r} vs {psi.norm()!r}"
        )
    return Matricization(
        matrix=M,
        row_configs=tuple(row_configs),
        col_configs=tuple(col_configs),
        row_sites=row_sites,
    )


def matricize(psi: AmplitudeMap, part: Bipartition) -> Matricization:
    """Matricize a normalized state over an interval bipartition."""
    psi.require_normalized()
    return matricize_sites(psi, part.sites)


@dataclass(frozen=True)
class EntropyReport:
    alpha: float
    value: float
    schmidt_spectrum: np.ndarray
    rank_tol: float
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
    return EntropyReport(
        alpha=alpha, value=max(value, 0.0), schmidt_spectrum=lam, rank_tol=rank_tol, rank=rank
    )


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


def hartley_bound_check(
    psi: AmplitudeMap, part: Bipartition, n: int | None = None
) -> HartleyBoundReport:
    """Hartley entropy of a cluster-supported state against its two log bounds.

    The state must live on single-cluster configurations (vacuum included).
    The boundary bound is ln(3 + |boundary| * (|B| - 1)); with a particle cap
    n the tighter ln(3 + 2(min(n, |B|) - 1)) is checked as well.
    """
    lattice = psi.lattice
    offenders = []
    for m, vec in psi.parts.items():
        basis = enumerate_sector(lattice, m)
        for i in np.nonzero(np.abs(vec) > 1e-14)[0]:
            if cluster_decompose(lattice, basis[int(i)]).k > 1:
                offenders.append(basis[int(i)])
    if offenders:
        raise DomainError(
            f"state is not supported on clustered configurations: {offenders[:5]}"
        )
    if n is not None and psi.n_max > n:
        raise DomainError(f"state occupies sector {psi.n_max} beyond the cap n={n}")
    s0 = renyi_entropy(matricize(psi, part), 0.0).value
    boundary_bound = float(np.log(3 + part.boundary_size * (part.size - 1)))
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


@dataclass(frozen=True)
class SupEstimate:
    """Certified-from-below estimate of the entropy supremum over a droplet family."""

    value: float
    eigenstate_max: float
    best_sector: int | None
    candidates: int


def _entropy_of_vector(
    projector: DropletProjector, coeff: np.ndarray, layout, part: Bipartition, alpha: float
) -> float:
    parts = {}
    for (n, sel), (lo, hi) in layout:
        block = coeff[lo:hi]
        if np.any(block != 0):
            parts[n] = sel.vectors @ block
    psi = AmplitudeMap(projector.lattice, parts)
    return renyi_entropy(matricize(psi, part), alpha).value


def droplet_sup_entropy(
    projector: DropletProjector,
    part: Bipartition,
    alpha: float,
    rng: np.random.Generator,
    n_random: int = 64,
    ascent_steps: int = 20,
) -> SupEstimate:
    """Estimated supremum of S_alpha over unit vectors in the selected family.

    Candidates: every selected eigenstate, n_random random unit combinations
    inside each sector's selection, then projected coordinate ascent in the
    full selected eigenbasis from the best candidate.  The result is a lower
    bound of the true supremum by construction.
    """
    layout = []
    offset = 0
    for n, sel in sorted(projector.selections.items()):
        m = sel.vectors.shape[1]
        layout.append(((n, sel), (offset, offset + m)))
        offset += m
    total = offset
    if total == 0:
        return SupEstimate(value=0.0, eigenstate_max=0.0, best_sector=None, candidates=0)

    best_val = -np.inf
    best_coeff = None
    best_sector = None
    eigen_max = 0.0
    candidates = 0

    for (n, sel), (lo, hi) in layout:
        for j in range(hi - lo):
            coeff = np.zeros(total)
            coeff[lo + j] = 1.0
            val = _entropy_of_vector(projector, coeff, layout, part, alpha)
            candidates += 1
            eigen_max = max(eigen_max, val)
            if val > best_val:
                best_val, best_coeff, best_sector = val, coeff, n
        m = hi - lo
        if m < 2:
            continue  # any random combination would reproduce the lone eigenstate
        for _ in range(n_random):
            coeff = np.zeros(total)
            block = rng.standard_normal(m)
            coeff[lo:hi] = block / np.linalg.norm(block)
            val = _entropy_of_vector(projector, coeff, layout, part, alpha)
            candidates += 1
            if val > best_val:
                best_val, best_coeff, best_sector = val, coeff, n

    directions = rng.permutation(total)
    angles = (0.3, -0.3, 0.1, -0.1)
    for step in range(ascent_steps):
        i = int(directions[step % total])
        unit = np.zeros(total)
        unit[i] = 1.0
        for theta in angles:
            coeff = np.cos(theta) * best_coeff + np.sin(theta) * unit
            coeff = coeff / np.linalg.norm(coeff)
            val = _entropy_of_vector(projector, coeff, layout, part, alpha)
            candidates += 1
            if val > best_val:
                best_val, best_coeff = val, coeff
                best_sector = None  # mixed-sector ascent result
                break
    return SupEstimate(
        value=float(best_val),
        eigenstate_max=float(eigen_max),
        best_sector=best_sector,
        candidates=candidates,
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
    """Fit of S(s) <= scale * ln(offset + slope * s) with its residuals."""

    scale: float
    offset: float
    slope: float
    residuals: np.ndarray
    max_residual: float
    envelope_shift: float

    def envelope(self, s: float) -> float:
        return self.scale * np.log(self.offset + self.slope * s) + self.envelope_shift


def fit_log_bound(s_values: np.ndarray, entropies: np.ndarray) -> LogBoundFit:
    """Least-squares concave-log fit; the envelope shift makes it dominate the data."""

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
        residuals=residuals,
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
    per-s envelope, s = min(n, |B|).
    """
    if projector is None:
        projector = droplet_projector(params, lattice, window)
    alphas = tuple(alphas)
    rows = []
    empty = tuple(
        n for n, sel in sorted(projector.selections.items()) if sel.vectors.shape[1] == 0
    )
    for size in part_sizes:
        part = centered_block(lattice, size)
        for n, sel in sorted(projector.selections.items()):
            m = sel.vectors.shape[1]
            if m == 0:
                continue
            rng = np.random.default_rng(np.random.SeedSequence((seed, size, n)))
            # One Schmidt spectrum per candidate serves every alpha, so the
            # per-alpha maxima inherit the exact monotonicity in alpha.
            candidates = [sel.vectors[:, j] for j in range(m)]
            for _ in range(n_random if m > 1 else 0):
                block = rng.standard_normal(m)
                candidates.append(sel.vectors @ (block / np.linalg.norm(block)))
            best = {alpha: 0.0 for alpha in alphas}
            for vec in candidates:
                psi = AmplitudeMap(lattice, {n: vec})
                lam = _schmidt_spectrum(matricize(psi, part))
                for alpha in alphas:
                    value, _ = _renyi_from_spectrum(lam, alpha, RANK_TOL)
                    best[alpha] = max(best[alpha], max(value, 0.0))
            for alpha in alphas:
                rows.append(
                    ScanRow(
                        block_size=size,
                        n=n,
                        alpha=alpha,
                        max_entropy=best[alpha],
                        states=len(candidates),
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
