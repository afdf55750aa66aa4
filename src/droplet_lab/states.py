"""Many-body vectors stored sector by sector over the hard-core bases."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .configspace import Config, Lattice, all_cluster_configs, enumerate_sector
from .errors import DomainError

NORM_TOL = 1e-8


class AmplitudeMap:
    """Coefficients of a vector over the union of particle-number sectors.

    `parts` maps a particle count n to the dense amplitude vector aligned
    with the colexicographic sector basis; absent sectors are zero.  Arrays
    are owned by the instance and must not be mutated afterwards.
    """

    def __init__(self, lattice: Lattice, parts: Mapping[int, np.ndarray]):
        self.lattice = lattice
        self.parts: dict[int, np.ndarray] = {}
        for n, vec in parts.items():
            basis = enumerate_sector(lattice, n)
            arr = np.asarray(vec)
            if arr.shape != (len(basis),):
                raise DomainError(
                    f"sector {n} amplitude vector has shape {arr.shape}, "
                    f"expected ({len(basis)},)"
                )
            self.parts[n] = arr

    @property
    def n_max(self) -> int:
        occupied = [n for n, v in self.parts.items() if np.any(v != 0)]
        return max(occupied, default=0)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(v, v).real for v in self.parts.values())))

    def amplitude(self, x: Config) -> complex:
        n = len(x)
        vec = self.parts.get(n)
        if vec is None:
            return 0.0
        return vec[enumerate_sector(self.lattice, n).index_of(tuple(x))]

    def normalized(self) -> "AmplitudeMap":
        nrm = self.norm()
        if nrm == 0:
            raise DomainError("cannot normalize the zero vector")
        return AmplitudeMap(self.lattice, {n: v / nrm for n, v in self.parts.items()})

    def require_normalized(self, tol: float = NORM_TOL) -> None:
        nrm = self.norm()
        if abs(nrm - 1.0) > tol:
            raise DomainError(f"vector norm {nrm!r} differs from 1 beyond {tol}")


def from_amplitudes(lattice: Lattice, amplitudes: Mapping[Config, complex]) -> AmplitudeMap:
    """Build a vector from a sparse configuration -> amplitude mapping."""
    by_sector: dict[int, dict[Config, complex]] = {}
    dtype = complex if any(np.iscomplexobj(a) or isinstance(a, complex) for a in amplitudes.values()) else float
    for config, amp in amplitudes.items():
        by_sector.setdefault(len(config), {})[tuple(config)] = amp
    parts = {}
    for n, entries in by_sector.items():
        basis = enumerate_sector(lattice, n)
        vec = np.zeros(len(basis), dtype=dtype)
        for config, amp in entries.items():
            vec[basis.index_of(config)] = amp
        parts[n] = vec
    return AmplitudeMap(lattice, parts)


def uniform_cluster_state(
    lattice: Lattice, n: int, window: tuple[int, int] | None = None
) -> AmplitudeMap:
    """Equal-amplitude superposition of the n-site clusters (meeting `window`)."""
    clusters = all_cluster_configs(lattice, n, window)
    if not clusters:
        raise DomainError(f"no {n}-site clusters available for window {window}")
    amp = 1.0 / np.sqrt(len(clusters))
    return from_amplitudes(lattice, {w: amp for w in clusters})


def random_state_on_configs(
    lattice: Lattice,
    configs: Iterable[Config],
    rng: np.random.Generator,
    complex_amplitudes: bool = False,
) -> AmplitudeMap:
    """Haar-style random unit vector supported on the given configurations."""
    configs = [tuple(c) for c in configs]
    if not configs:
        raise DomainError("support is empty")
    coeff = rng.standard_normal(len(configs))
    if complex_amplitudes:
        coeff = coeff + 1j * rng.standard_normal(len(configs))
    coeff = coeff / np.linalg.norm(coeff)
    return from_amplitudes(lattice, dict(zip(configs, coeff)))
