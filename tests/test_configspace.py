"""Configuration enumeration, cluster structure and distances."""

import itertools
from math import comb

import pytest

from droplet_lab.configspace import (
    Lattice,
    centered_cluster,
    cluster_decompose,
    colex_rank,
    config_distance,
    distance_to_clustered,
    distance_to_edge,
    enumerate_sector,
)
from droplet_lab.errors import DomainError


def brute_force_distance_to_clustered(lattice, x):
    """Oracle: explicit minimum over every cluster placement inside the lattice."""
    n = len(x)
    if n <= 1:
        return 0
    best = None
    for start in range(-lattice.L, lattice.L - n + 2):
        w = tuple(range(start, start + n))
        d = config_distance(x, w)
        best = d if best is None else min(best, d)
    return best


def test_lattice_requires_three_sites():
    assert Lattice(1).size == 3
    with pytest.raises(DomainError):
        Lattice(0)


def test_enumerate_sector_small_by_hand():
    basis = enumerate_sector(Lattice(1), 2)
    assert basis.configs == [(-1, 0), (-1, 1), (0, 1)]
    vacuum = enumerate_sector(Lattice(1), 0)
    assert vacuum.configs == [()]


def test_enumerate_sector_size_l4_n3():
    # Oracle: brute-force count of 3-subsets of 9 sites.
    subsets = list(itertools.combinations(range(-4, 5), 3))
    basis = enumerate_sector(Lattice(4), 3)
    assert len(basis) == len(subsets) == 84


def test_enumerate_sector_rejects_bad_count():
    with pytest.raises(DomainError):
        enumerate_sector(Lattice(2), 6)
    with pytest.raises(DomainError):
        enumerate_sector(Lattice(2), -1)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_enumeration_counts_and_index_inverse(L):
    lat = Lattice(L)
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        assert len(basis) == comb(lat.size, n)
        for i, x in enumerate(basis):
            assert basis.index_of(x) == i
            assert colex_rank(lat, x) == i


def test_cluster_decompose_examples():
    lat = Lattice(2)
    assert cluster_decompose(lat, (-1, 0, 1)).k == 1
    assert cluster_decompose(lat, (-1, 1)).k == 2
    vac = cluster_decompose(lat, ())
    assert vac.k == 0 and vac.is_clustered
    d = cluster_decompose(lat, (-2, -1, 1))
    assert d.clusters == ((-2, 2), (1, 1))
    assert d.touches_left and not d.touches_right


def test_config_distance_examples():
    assert config_distance((0,), (3,)) == 3
    assert config_distance((-1, 0), (0, 1)) == 2
    assert config_distance((-2, 2), (-2, -1)) == 3
    with pytest.raises(DomainError):
        config_distance((0,), (0, 1))


def test_config_distance_is_metric_exhaustively():
    # Seven sites, up to three particles: every pair and triple.
    lat = Lattice(3)
    for n in (1, 2, 3):
        configs = enumerate_sector(lat, n).configs
        for x in configs:
            assert config_distance(x, x) == 0
            for y in configs:
                assert config_distance(x, y) == config_distance(y, x)
                assert (config_distance(x, y) == 0) == (x == y)
        for x, y, z in itertools.product(configs, configs, configs):
            assert config_distance(x, z) <= config_distance(x, y) + config_distance(y, z)


def test_distance_to_clustered_examples():
    assert distance_to_clustered((0, 1)) == 0
    assert distance_to_clustered((-2, 2)) == 3
    assert distance_to_clustered((-3, 0, 3)) == 4
    assert distance_to_clustered(()) == 0
    assert distance_to_clustered((2,)) == 0


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_distance_to_clustered_matches_brute_force(L):
    lat = Lattice(L)
    for n in range(lat.size + 1):
        for x in enumerate_sector(lat, n):
            fast = distance_to_clustered(x)
            if n <= 1:
                assert fast == 0
            else:
                assert fast == brute_force_distance_to_clustered(lat, x)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_clustered_distance_zero_iff_single_cluster(L):
    lat = Lattice(L)
    for n in range(lat.size + 1):
        for x in enumerate_sector(lat, n):
            assert (distance_to_clustered(x) == 0) == cluster_decompose(lat, x).is_clustered


def test_distance_to_edge_examples():
    assert distance_to_edge((2,), (2, 5)) == 0
    assert distance_to_edge((0,), (2, 5)) == 2
    assert distance_to_edge((-1, 4), (2, 5)) == 1
    with pytest.raises(DomainError):
        distance_to_edge((), (0, 1))


def test_distance_to_edge_transport_inequality():
    # Moving a configuration by total l1 cost c changes the edge distance by <= c.
    lat = Lattice(3)
    interval = (-1, 2)
    for n in (1, 2, 3):
        configs = enumerate_sector(lat, n).configs
        for x in configs:
            for w in configs:
                assert (
                    config_distance(x, w) + distance_to_edge(x, interval)
                    >= distance_to_edge(w, interval)
                )


def test_centered_cluster():
    lat = Lattice(3)
    assert centered_cluster(lat, 1) == (0,)
    assert centered_cluster(lat, 2) == (0, 1)
    assert centered_cluster(lat, 3) == (-1, 0, 1)
    assert centered_cluster(lat, 7) == tuple(range(-3, 4))
    with pytest.raises(DomainError):
        centered_cluster(lat, 8)
