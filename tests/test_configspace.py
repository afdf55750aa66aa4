"""Configuration enumeration, cluster structure and distances."""

import itertools
from math import comb

import numpy as np
import pytest
from loop_oracle import cluster_decompose

from droplet_lab.configspace import (
    Lattice,
    _colex_sites,
    centered_cluster,
    config_distance,
    distance_to_clustered,
    distance_to_edge,
    enumerate_sector,
    occupation_rank,
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


def _colex_reference(size, n):
    subsets = sorted(itertools.combinations(range(size), n), key=lambda c: c[::-1])
    return np.array(subsets, dtype=np.intp).reshape(len(subsets), n)


def test_colex_sites_match_itertools_byte_for_byte():
    for size in range(15):
        for n in range(size + 1):
            sites = _colex_sites(size, n)
            expected = _colex_reference(size, n)
            assert sites.dtype == expected.dtype and sites.shape == expected.shape
            assert sites.tobytes() == expected.tobytes(), (size, n)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_sector_sites_are_the_colex_site_indices(L):
    lat = Lattice(L)
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        assert basis.sites.tobytes() == _colex_reference(lat.size, n).tobytes()
        assert basis.sites.shape == (comb(lat.size, n), n)
        assert basis.configs == [tuple(u - L for u in row) for row in _colex_reference(lat.size, n)]
        assert [basis[i] for i in range(len(basis))] == list(basis) == basis.configs


def test_sector_sites_are_read_only():
    basis = enumerate_sector(Lattice(2), 2)
    with pytest.raises(ValueError):
        basis.sites[0, 0] = 4
    with pytest.raises(ValueError):
        basis.sites.sort(axis=0)


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


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("bad", ["unsorted", "repeated", "off-lattice", "wrong-length"])
def test_index_of_rejects_what_is_not_in_the_sector(L, bad):
    config, n = {
        "unsorted": ((1, 0), 2),
        "repeated": ((0, 0), 2),
        "off-lattice": ((L + 1,), 1),
        "wrong-length": ((0, 1), 1),
    }[bad]
    with pytest.raises(DomainError):
        enumerate_sector(Lattice(L), n).index_of(config)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
def test_occupation_rank_orders_subsets_by_count_then_colex(k):
    subsets = []
    for count in range(k + 1):
        subsets.extend(sorted(itertools.combinations(range(k), count), key=lambda c: c[::-1]))
    occ = np.zeros((len(subsets), k), dtype=bool)
    for i, c in enumerate(subsets):
        occ[i, list(c)] = True
    assert occupation_rank(occ).tolist() == list(range(len(subsets)))


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


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_distance_arrays_match_per_tuple_values(L):
    lat = Lattice(L)
    edge = (-1, L)
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        configs = np.array(basis.configs, dtype=np.int64).reshape(len(basis), n)
        for sites in (configs, basis.sites):  # lattice sites and site indices (site + L)
            shift = int(sites[0, 0] - configs[0, 0]) if n else 0
            to_cluster = distance_to_clustered(sites)
            assert to_cluster.shape == (len(basis),)
            for i, x in enumerate(basis):
                assert to_cluster[i] == distance_to_clustered(x)
                assert to_cluster[i] == (brute_force_distance_to_clustered(lat, x) if n > 1 else 0)
            y = basis[len(basis) // 2]
            pair = config_distance(np.add(y, shift), sites)
            assert pair.tolist() == [sum(abs(a - b) for a, b in zip(y, x)) for x in basis]
            assert config_distance(sites, sites[::-1]).tolist() == [
                config_distance(x, w) for x, w in zip(basis, reversed(basis.configs))
            ]
            if n:
                to_edge = distance_to_edge(sites, (edge[0] + shift, edge[1] + shift))
                assert to_edge.tolist() == [
                    min(min(abs(u - edge[0]), abs(u - edge[1])) for u in x) for x in basis
                ]
    with pytest.raises(DomainError):
        config_distance(enumerate_sector(lat, 2).sites, (0,))
    with pytest.raises(DomainError):
        distance_to_edge(enumerate_sector(lat, 0).sites, (0, 1))


def test_centered_cluster():
    lat = Lattice(3)
    assert centered_cluster(lat, 1) == (0,)
    assert centered_cluster(lat, 2) == (0, 1)
    assert centered_cluster(lat, 3) == (-1, 0, 1)
    assert centered_cluster(lat, 7) == tuple(range(-3, 4))
    with pytest.raises(DomainError):
        centered_cluster(lat, 8)
