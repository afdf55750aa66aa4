"""Hard-core particle configurations on an integer interval.

Sites live on the symmetric interval [-L, L]; a configuration is the strictly
increasing tuple of occupied sites (down spins).  This module enumerates the
fixed particle-number sectors, decomposes configurations into clusters of
adjacent particles, and provides the l1 distances (pair, to the clustered set,
to an interval edge) that every decay estimate in the package is phrased in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import DomainError

Config = tuple[int, ...]


@dataclass(frozen=True)
class Lattice:
    """Symmetric integer interval [-L, L], at least three sites."""

    L: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise DomainError(f"lattice half-length must be >= 1, got L={self.L}")

    @property
    def size(self) -> int:
        return 2 * self.L + 1

    @property
    def sites(self) -> range:
        return range(-self.L, self.L + 1)

    def __contains__(self, site: int) -> bool:
        return -self.L <= site <= self.L


def colex_rank(lattice: Lattice, config: Config) -> int:
    """Position of `config` in the colexicographic order of its sector.

    With 0-based site indices i_1 < ... < i_n the rank is sum_k C(i_k, k),
    so ranking costs O(n) binomials.
    """
    return sum(comb(site + lattice.L, k) for k, site in enumerate(config, start=1))


class SectorBasis:
    """All n-particle configurations of a lattice in colexicographic order."""

    def __init__(self, lattice: Lattice, n: int):
        if n < 0 or n > lattice.size:
            raise DomainError(
                f"particle count n={n} outside [0, {lattice.size}] for L={lattice.L}"
            )
        self.lattice = lattice
        self.n = n
        self.configs: list[Config] = sorted(
            itertools.combinations(lattice.sites, n), key=lambda c: c[::-1]
        )
        self._index = {c: i for i, c in enumerate(self.configs)}

    def index_of(self, config: Config) -> int:
        try:
            return self._index[tuple(config)]
        except KeyError:
            raise DomainError(f"{tuple(config)} is not in the n={self.n} sector") from None

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, i: int) -> Config:
        return self.configs[i]

    def __iter__(self):
        return iter(self.configs)


_basis_cache: dict[tuple[int, int], SectorBasis] = {}


def enumerate_sector(lattice: Lattice, n: int) -> SectorBasis:
    """Sector basis for (lattice, n); instances are cached and immutable."""
    key = (lattice.L, n)
    basis = _basis_cache.get(key)
    if basis is None:
        basis = _basis_cache.setdefault(key, SectorBasis(lattice, n))
    return basis


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


def config_distance(x: Config, y: Config) -> int:
    """l1 distance sum_k |x_k - y_k| between same-size sorted configurations."""
    if len(x) != len(y):
        raise DomainError(f"particle counts differ: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def distance_to_clustered(x: Config) -> int:
    """l1 distance from x to the nearest single-cluster placement.

    Aligning particle k with cluster slot k reduces the minimum over cluster
    starts s to min_s sum_k |u_k - s| with u_k = x_k - k, which a median of u
    attains.  The optimal cluster sits inside [x_1, x_n], so restricting
    placements to any lattice containing x changes nothing.
    """
    n = len(x)
    if n <= 1:
        return 0
    u = [site - k for k, site in enumerate(x)]
    half = n // 2
    return sum(u[n - 1 - i] - u[i] for i in range(half))


def distance_to_edge(x: Config, interval: tuple[int, int]) -> int:
    """Minimum particle distance to the extreme sites of an interval."""
    if not x:
        raise DomainError("distance_to_edge is undefined for the empty configuration")
    lo, hi = interval
    if hi < lo:
        raise DomainError(f"empty interval ({lo}, {hi})")
    return min(min(abs(u - lo), abs(u - hi)) for u in x)


def centered_cluster(lattice: Lattice, n: int) -> Config:
    """The n-site cluster closest to the lattice center."""
    if n < 1 or n > lattice.size:
        raise DomainError(f"no {n}-site cluster fits in [-{lattice.L}, {lattice.L}]")
    start = -((n - 1) // 2)
    return tuple(range(start, start + n))


def all_cluster_configs(lattice: Lattice, n: int, window: tuple[int, int] | None = None) -> list[Config]:
    """All n-site clusters inside the lattice, optionally only those meeting `window`."""
    if n < 1:
        raise DomainError("cluster size must be >= 1")
    out = []
    for s in range(-lattice.L, lattice.L - n + 2):
        w = tuple(range(s, s + n))
        if window is None or (w[-1] >= window[0] and w[0] <= window[1]):
            out.append(w)
    return out
