"""Hard-core particle configurations on an integer interval.

Sites live on the symmetric interval [-L, L]; a configuration is the strictly
increasing tuple of occupied sites (down spins).  This module enumerates the
fixed particle-number sectors and provides the l1 distances (pair, to the
clustered set, to an interval edge) that every decay estimate in the package
is phrased in.

It also owns the one combinatorial rank of the package, `occupation_rank`:
the position of an occupation pattern over an ordered site list in (count,
colex) order.  Sector ordinals and the rows and columns of a block split
are read off it, and the sector assemblers move a hop by the one binomial
term of its table that the hop changes, so no layer enumerates subsets or
keeps a lookup table of configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

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


@cache
def _binomials(k: int) -> np.ndarray:
    """C(i, j) for 0 <= i, j <= k."""
    return np.array([[comb(i, j) for j in range(k + 1)] for i in range(k + 1)], dtype=np.int64)


@cache
def _count_offsets(k: int) -> np.ndarray:
    """sum_{j<c} C(k, j) for c = 0..k: the number of subsets of k sites with fewer than c."""
    row = _binomials(k)[k]
    return np.cumsum(row) - row


def occupation_rank(occ: np.ndarray) -> np.ndarray:
    """Position of each row of a boolean (m, k) occupation mask in (count, colex) order.

    A row whose occupied columns are i_1 < ... < i_c ranks
    sum_{j<c} C(k, j) + sum_t C(i_t, t): every subset of fewer sites comes
    first, and among the c-subsets the rank is the plain colex rank.
    """
    k = occ.shape[1]
    # Column by column (the transpose is the fast layout): C(i, sites occupied up to i).
    count = np.cumsum(occ.T, axis=0)
    terms = _binomials(k).ravel()[(k + 1) * np.arange(k)[:, None] + count]
    return _count_offsets(k)[np.count_nonzero(occ, axis=1)] + (terms * occ.T).sum(axis=0)


def config_ranks(lattice: Lattice, configs) -> tuple[np.ndarray, np.ndarray]:
    """Particle count and ordinal in its sector's colex order of each configuration.

    Raises DomainError for a configuration that is not a strictly increasing
    tuple of lattice sites.
    """
    configs = [tuple(c) for c in configs]
    counts = np.array([len(c) for c in configs], dtype=np.int64)
    owner = np.repeat(np.arange(len(configs)), counts)
    given = np.array([u for c in configs for u in c], dtype=float)
    sites = given.astype(np.int64)
    fault = (sites != given) | (sites < -lattice.L) | (sites > lattice.L)
    fault[1:] |= (np.diff(sites) <= 0) & (owner[1:] == owner[:-1])
    if fault.any():
        raise DomainError(
            f"{configs[owner[fault][0]]} is not a strictly increasing tuple of sites "
            f"of [-{lattice.L}, {lattice.L}]"
        )
    occ = np.zeros((len(configs), lattice.size), dtype=bool)
    occ[owner, sites + lattice.L] = True
    return counts, occupation_rank(occ) - _count_offsets(lattice.size)[counts]


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

    def index_of(self, config: Config) -> int:
        """The configuration's ordinal, its colex rank; DomainError if it is not in the sector."""
        counts, ranks = config_ranks(self.lattice, [config])
        if counts[0] != self.n:
            raise DomainError(f"{tuple(config)} is not in the n={self.n} sector")
        return int(ranks[0])

    def occupation(self) -> np.ndarray:
        """Boolean (dim, |lattice|) occupation mask of the configurations, in basis order."""
        dim = len(self.configs)
        sites = np.array(self.configs, dtype=np.int64).reshape(dim, self.n) + self.lattice.L
        occ = np.zeros((dim, self.lattice.size), dtype=bool)
        occ[np.arange(dim)[:, None], sites] = True
        return occ

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
