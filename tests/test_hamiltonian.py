"""Sector assembly against the full tensor-product oracle."""

import numpy as np
import pytest
from loop_oracle import cluster_decompose, diagonal_energy, field_diagonal

from droplet_lab.configspace import Lattice, enumerate_sector
from droplet_lab.errors import DomainError, ResourceError
from droplet_lab.hamiltonian import (
    ModelParams,
    assemble_full_oracle,
    assemble_sector,
    cluster_mask,
    oracle_sector_block,
    restrict,
)


def spin_energy(params, lattice, occupied):
    """Oracle: the product-state energy evaluated in spin language."""
    occ = set(occupied)
    sigma = {x: -0.5 if x in occ else 0.5 for x in lattice.sites}
    e = 0.0
    for x in range(-lattice.L, lattice.L):
        e -= sigma[x] * sigma[x + 1] - 0.25
    e += params.beta * (1.0 - sigma[-lattice.L] - sigma[lattice.L])
    for x in lattice.sites:
        e += params.field_value(x) * (0.5 - sigma[x])
    return e


def test_params_validation():
    assert ModelParams(delta_inv=0.0).beta == 0.5
    assert ModelParams(delta_inv=0.5).beta == 0.25
    droplet = ModelParams(delta_inv=0.6, boundary_mode="droplet")
    assert droplet.beta == pytest.approx(0.5 * np.sqrt(1 - 0.36), abs=1e-15)
    with pytest.raises(DomainError):
        ModelParams(delta_inv=1.0)
    with pytest.raises(DomainError):
        ModelParams(delta_inv=-0.1)
    with pytest.raises(DomainError):
        ModelParams(delta_inv=0.1, boundary_mode="open")
    with pytest.raises(DomainError):
        ModelParams(delta_inv=0.1, field={0: -1.0})


def test_ising_diagonal_examples():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.0)
    assert diagonal_energy(params, lat, (0,)) == 1.0
    assert diagonal_energy(params, lat, ()) == 0.0


def test_hopping_amplitude():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.2)
    basis = enumerate_sector(lat, 1)
    matrix = assemble_sector(params, basis)
    i = basis.index_of((0,))
    j = basis.index_of((1,))
    assert matrix.entries[i, j] == pytest.approx(-0.1, abs=1e-15)


def test_sector_matrix_structure():
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.3, field={0: 0.5, 2: 1.0})
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        matrix = assemble_sector(params, basis)
        assert np.array_equal(matrix.entries, matrix.entries.T)
        # Off-diagonal nonzeros exactly between single-hop neighbors (delta_inv != 0).
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                if i == j:
                    continue
                hop = matrix.entries[i, j] != 0
                adjacent = sum(abs(a - b) for a, b in zip(x, y)) == 1
                assert hop == adjacent


def test_field_linearity():
    lat = Lattice(2)
    field = {s: float(abs(s)) + 0.25 for s in lat.sites}
    with_field = ModelParams(delta_inv=0.4, field=field)
    without = ModelParams(delta_inv=0.4)
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        diff = assemble_sector(with_field, basis).entries - assemble_sector(without, basis).entries
        expected = np.diag([sum(field[u] for u in x) for x in basis])
        assert np.allclose(diff, expected, atol=1e-14)
        fd = field_diagonal(basis, np.array([field[s] for s in lat.sites]))
        assert np.allclose(fd, np.diag(expected), atol=1e-14)


def test_ising_limit_matches_spin_energy():
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.0, field={1: 0.7})
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        matrix = assemble_sector(params, basis)
        assert np.count_nonzero(matrix.entries - np.diag(np.diag(matrix.entries))) == 0
        for i, x in enumerate(basis):
            assert matrix.entries[i, i] == pytest.approx(spin_energy(params, lat, x), abs=1e-14)


def test_full_oracle_ising_is_diagonal():
    lat = Lattice(1)
    full = assemble_full_oracle(ModelParams(delta_inv=0.0), lat)
    assert full.shape == (8, 8)
    assert np.allclose(full, np.diag(np.diag(full)), atol=1e-14)


def test_full_oracle_matches_sector_assembly():
    lat = Lattice(1)
    params = ModelParams(delta_inv=0.5)
    full = assemble_full_oracle(params, lat)
    basis = enumerate_sector(lat, 1)
    block = oracle_sector_block(full, lat, basis)
    assert np.abs(block - assemble_sector(params, basis).entries).max() <= 1e-12


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_oracle_equivalence_random_params(L, seed):
    rng = np.random.default_rng(seed)
    lat = Lattice(L)
    params = ModelParams(
        delta_inv=float(rng.uniform(0.0, 0.99)),
        boundary_mode="droplet" if seed % 2 else "standard",
        field={s: float(rng.uniform(0, 2)) for s in lat.sites},
    )
    full = assemble_full_oracle(params, lat)
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        block = oracle_sector_block(full, lat, basis)
        assert np.abs(block - assemble_sector(params, basis).entries).max() <= 1e-12


def magnetization_diagonal(lattice):
    """Diagonal of the total third spin component over the tensor basis."""
    N = lattice.size
    diag = np.empty(1 << N)
    for state in range(1 << N):
        downs = bin(state).count("1")
        diag[state] = 0.5 * (N - downs) - 0.5 * downs
    return diag


def test_oracle_commutes_with_magnetization():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.7, field={0: 1.0})
    full = assemble_full_oracle(params, lat)
    m = np.diag(magnetization_diagonal(lat))
    assert np.abs(full @ m - m @ full).max() <= 1e-12


def test_oracle_memory_guard():
    with pytest.raises(ResourceError):
        assemble_full_oracle(ModelParams(delta_inv=0.1), Lattice(7))


def test_diagonal_positive_for_nonnegative_fields():
    lat = Lattice(3)
    for mode in ("standard", "droplet"):
        for delta_inv in (0.0, 0.3, 0.9):
            params = ModelParams(delta_inv=delta_inv, boundary_mode=mode, field={0: 0.4})
            for n in range(lat.size + 1):
                matrix = assemble_sector(params, enumerate_sector(lat, n))
                assert np.diag(matrix.entries).min() >= 0.0


def test_cluster_mask_examples():
    lat = Lattice(2)
    assert cluster_mask(enumerate_sector(lat, 1), 2).tolist() == []
    assert cluster_mask(enumerate_sector(lat, 0), 1).tolist() == []
    mask = cluster_mask(enumerate_sector(lat, 2), 2)
    assert len(mask) == 6  # 10 pairs minus 4 adjacent ones
    basis = enumerate_sector(lat, 2)
    for i in mask:
        assert cluster_decompose(lat, basis[i]).k >= 2


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_cluster_mask_matches_cluster_decompose(L):
    lat = Lattice(L)
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        counts = [cluster_decompose(lat, x).k for x in basis]
        for k_min in range(1, max(counts) + 2):
            expected = [i for i, k in enumerate(counts) if k >= k_min]
            assert cluster_mask(basis, k_min).tolist() == expected


def test_restrict():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.2)
    basis = enumerate_sector(lat, 2)
    matrix = assemble_sector(params, basis)
    full_mask = cluster_mask(basis, 1)
    assert np.array_equal(restrict(matrix, full_mask).entries, matrix.entries)
    one = restrict(matrix, np.array([3]))
    assert one.entries.shape == (1, 1)
    assert one.entries[0, 0] == matrix.entries[3, 3]
    for outside in ([99], [0, len(basis)], [-1, 3]):
        with pytest.raises(DomainError, match="outside"):
            restrict(matrix, np.array(outside))
