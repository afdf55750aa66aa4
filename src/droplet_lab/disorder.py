"""Seeded random on-site fields and the two disorder-averaged experiments.

Fields are drawn per (master seed, sample index) through independent seed
sequences, so results are reproducible and independent of evaluation order.
The two Monte Carlo estimators target the decay of the windowed local density
of states in the particle number, and the flatness in block size of the
averaged exponentiated entropy supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import Config, Lattice, centered_cluster
from .entanglement import centered_block, droplet_sup_entropy
from .errors import DomainError
from .hamiltonian import ModelParams
from .spectral import DropletWindow, droplet_projector, local_dos

DISTRIBUTIONS = ("uniform", "bernoulli", "constant")
TREND_TOL = 0.05


@dataclass(frozen=True)
class DisorderSpec:
    """iid non-negative on-site field law plus sampling plan."""

    kind: str
    p1: float
    p2: float
    samples: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.kind not in DISTRIBUTIONS:
            raise DomainError(f"distribution must be one of {DISTRIBUTIONS}, got {self.kind}")
        if self.samples < 1:
            raise DomainError(f"need samples >= 1, got {self.samples}")
        if self.kind == "uniform":
            if self.p1 < 0 or self.p2 < self.p1:
                raise DomainError(f"uniform bounds must satisfy 0 <= lo <= hi, got {self.p1}, {self.p2}")
        elif self.kind == "bernoulli":
            if not 0.0 <= self.p1 <= 1.0 or self.p2 < 0:
                raise DomainError(f"bernoulli needs p in [0,1] and magnitude >= 0, got {self.p1}, {self.p2}")
        else:
            if self.p1 < 0:
                raise DomainError(f"constant value must be >= 0, got {self.p1}")

    @classmethod
    def uniform(cls, lo: float, hi: float, samples: int, master_seed: int) -> "DisorderSpec":
        return cls("uniform", lo, hi, samples, master_seed)

    @classmethod
    def bernoulli(cls, p: float, magnitude: float, samples: int, master_seed: int) -> "DisorderSpec":
        return cls("bernoulli", p, magnitude, samples, master_seed)

    @classmethod
    def constant(cls, value: float, samples: int, master_seed: int) -> "DisorderSpec":
        return cls("constant", value, 0.0, samples, master_seed)

    @property
    def nontrivial_support(self) -> bool:
        if self.kind == "uniform":
            return self.p2 > self.p1
        if self.kind == "bernoulli":
            return 0.0 < self.p1 < 1.0 and self.p2 > 0
        return False

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.p1 + self.p2)
        if self.kind == "bernoulli":
            return self.p1 * self.p2
        return self.p1


def draw_field(spec: DisorderSpec, sample_index: int, lattice: Lattice) -> np.ndarray:
    """Field values indexed by site + L; deterministic in (seed, sample index)."""
    if sample_index < 0:
        raise DomainError(f"sample_index must be >= 0, got {sample_index}")
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.master_seed, sample_index))
    )
    size = lattice.size
    if spec.kind == "uniform":
        return rng.uniform(spec.p1, spec.p2, size)
    if spec.kind == "bernoulli":
        return spec.p2 * (rng.random(size) < spec.p1).astype(float)
    return np.full(size, spec.p1)


def _field_params(template: ModelParams, lattice: Lattice, values: np.ndarray) -> ModelParams:
    return template.with_field({s: float(values[s + lattice.L]) for s in lattice.sites})


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and the slope's standard error of a least-squares line."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    if dof <= 0:
        return float(slope), math.nan
    sigma2 = float(resid @ resid) / dof
    sxx = float(np.sum((x - x.mean()) ** 2))
    return float(slope), math.sqrt(sigma2 / sxx)


def sample_slope(x: np.ndarray, samples: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of the sample means against x, with its sampling error.

    `samples` holds one row per disorder sample and one column per x.  The
    slope is linear in the rows, so the slope of the means is the mean of the
    per-row slopes; its standard error is the standard deviation of the
    per-row slopes over sqrt(N), which carries the correlation between the
    columns of each row.  With a single row the error is undefined (nan).
    """
    slope = float(np.polyfit(x, samples.mean(axis=0), 1)[0])
    n = len(samples)
    if n < 2:
        return slope, math.nan
    centered = x - x.mean()
    per_row = samples @ (centered / float(centered @ centered))
    return slope, float(per_row.std(ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class DosDecayResult:
    probe_ns: tuple[int, ...]
    means: tuple[float, ...]
    stderrs: tuple[float | None, ...]
    decay_rate: float
    decay_rate_stderr: float
    fitted_points: int
    nontrivial_support: bool
    dropped_probes: tuple[int, ...]


def dos_decay_experiment(
    spec: DisorderSpec,
    template: ModelParams,
    lattice: Lattice,
    window: DropletWindow,
    probes: dict[int, Config] | None = None,
) -> DosDecayResult:
    """Disorder average of the windowed local density of states per probe.

    For each sample the window's projector on sectors up to the largest probe
    is built with the drawn field (`droplet_projector`, which skips the
    sectors its floors put above the window) and read at every probe
    (`local_dos`); the fitted line of ln(mean) against the particle number
    yields the decay rate with its standard error.  `window` is the compact
    energy set of the averaged claim; it need not satisfy the droplet-window
    constraint, and it should be wide enough that every probe's mean is
    sampled.  A probe whose mean lies below the resolution floor
    1/(2 samples), half the weight one sample can give, is unresolved by the
    samples drawn (its mean may be a rounding-level tail); it is left out of
    the fit and listed in `dropped_probes`.
    """
    if probes is None:
        probes = {n: centered_cluster(lattice, n) for n in range(1, 5)}
    if not probes:
        raise DomainError("need at least one probe configuration")
    values = {n: np.empty(spec.samples) for n in probes}
    for i in range(spec.samples):
        params = _field_params(template, lattice, draw_field(spec, i, lattice))
        projector = droplet_projector(
            params, lattice, window, n_max=max(probes), override_window_check=True
        )
        for n, x in probes.items():
            values[n][i] = local_dos(projector, x)
    ns = tuple(sorted(probes))
    means = tuple(float(values[n].mean()) for n in ns)
    stderrs = tuple(
        float(values[n].std(ddof=1) / math.sqrt(spec.samples)) if spec.samples > 1 else None
        for n in ns
    )
    floor = 1.0 / (2 * spec.samples)
    resolved = [(n, m) for n, m in zip(ns, means) if m >= floor]
    if len(resolved) < 2:
        raise DomainError(
            "fewer than two probes have a mean above the resolution floor "
            "1/(2 samples); widen the window or add samples"
        )
    xs = np.array([n for n, _ in resolved], dtype=float)
    ys = np.log(np.array([m for _, m in resolved]))
    slope, slope_se = _ols_line(xs, ys)
    return DosDecayResult(
        probe_ns=ns,
        means=means,
        stderrs=stderrs,
        decay_rate=-slope,
        decay_rate_stderr=slope_se,
        fitted_points=len(resolved),
        nontrivial_support=spec.nontrivial_support,
        dropped_probes=tuple(n for n, m in zip(ns, means) if m < floor),
    )


@dataclass(frozen=True)
class AreaLawResult:
    block_sizes: tuple[int, ...]
    means: tuple[float, ...]
    stderrs: tuple[float | None, ...]
    trend_slope: float
    trend_slope_stderr: float
    empty_subspace_samples: int
    nontrivial_support: bool
    trend_tol: float = TREND_TOL

    @property
    def flat(self) -> bool:
        """No rise resolvable above trend_tol: slope - 2 stderr <= trend_tol.

        Without a sampling error (a single sample) the slope itself is compared.
        """
        if math.isnan(self.trend_slope_stderr):
            return self.trend_slope <= self.trend_tol
        return self.trend_slope - 2.0 * self.trend_slope_stderr <= self.trend_tol


def area_law_experiment(
    spec: DisorderSpec,
    template: ModelParams,
    lattice: Lattice,
    window: DropletWindow,
    block_sizes,
    alpha: float,
    epsilon: float,
    n_random: int = 64,
    ascent_steps: int = 20,
) -> AreaLawResult:
    """Sample means of the estimated sup of exp((1 - epsilon) S_alpha) per block.

    The trend is the least-squares slope of the means against ln |B|, and its
    standard error is the sampling error of the per-sample slopes (see
    `sample_slope`).  The result counts as flat when the slope is not
    resolvably above trend_tol, i.e. slope - 2 stderr <= trend_tol; with a
    single sample, when slope <= trend_tol.  A flat verdict at a large stderr
    only says that the tolerance is not resolved by the samples drawn, not
    that the slope lies below it.  Samples whose window selection is empty
    contribute exp(0) = 1 and are counted.
    """
    if not 0.0 < epsilon < min(alpha, 1.0):
        raise DomainError(f"epsilon must lie in (0, min(alpha, 1)), got {epsilon}")
    block_sizes = tuple(block_sizes)
    if len(block_sizes) < 2:
        raise DomainError(f"the area-law trend needs at least two block sizes, got {block_sizes}")
    if any(b <= a for a, b in zip(block_sizes, block_sizes[1:])):
        raise DomainError(f"block sizes must increase, got {block_sizes}")
    # Column-major, so each block's samples are contiguous and their means
    # round as the 1-D means of earlier versions did.
    values = np.empty((spec.samples, len(block_sizes)), order="F")
    empty_count = 0
    for i in range(spec.samples):
        field = draw_field(spec, i, lattice)
        params = _field_params(template, lattice, field)
        projector = droplet_projector(params, lattice, window)
        if projector.rank == 0:
            empty_count += 1
            values[i] = 1.0
            continue
        for j, b in enumerate(block_sizes):
            rng = np.random.default_rng(
                np.random.SeedSequence((spec.master_seed, i, b, 7))
            )
            estimate = droplet_sup_entropy(
                projector,
                centered_block(lattice, b),
                alpha,
                rng,
                n_random=n_random,
                ascent_steps=ascent_steps,
            )
            values[i, j] = math.exp((1.0 - epsilon) * estimate.value)
    means = tuple(float(column.mean()) for column in values.T)
    stderrs = tuple(
        float(column.std(ddof=1) / math.sqrt(spec.samples)) if spec.samples > 1 else None
        for column in values.T
    )
    slope, slope_se = sample_slope(np.log(np.array(block_sizes, dtype=float)), values)
    return AreaLawResult(
        block_sizes=block_sizes,
        means=means,
        stderrs=stderrs,
        trend_slope=slope,
        trend_slope_stderr=slope_se,
        empty_subspace_samples=empty_count,
        nontrivial_support=spec.nontrivial_support,
    )
