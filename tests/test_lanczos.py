"""The sparse assembler and the Lanczos window solve against the dense path.

`assemble_sector_sparse` must reproduce the configuration loop of
`assemble_sector` entry for entry, and both must match the tensor-product
oracle.  `eigensolve` solves windows of sectors above LANCZOS_MIN_DIM with
Lanczos; these tests compare that solve with the dense windowed `eigh` it
replaces, on the field-free chain (whose edge pairs are degenerate to
rounding) and on seeded fields.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from droplet_lab import spectral
from droplet_lab.configspace import Lattice, enumerate_sector
from droplet_lab.disorder import DisorderSpec, draw_field
from droplet_lab.errors import NumericError, ResourceError
from droplet_lab.hamiltonian import (
    BOUNDARY_MODES,
    ModelParams,
    assemble_full_oracle,
    assemble_sector,
    assemble_sector_sparse,
    oracle_sector_block,
)
from droplet_lab.spectral import (
    EDGE_TIE_TOL,
    LANCZOS_MIN_DIM,
    WINDOW_PAD,
    _lanczos_window,
    auto_window,
    droplet_projector,
    eigensolve,
)


@settings(max_examples=30, deadline=None)
@given(
    L=st.integers(1, 4),
    delta_inv=st.floats(0.0, 0.99),
    mode=st.sampled_from(BOUNDARY_MODES),
    values=st.lists(st.floats(0.0, 3.0), min_size=9, max_size=9),
)
def test_sparse_assembler_matches_loop_and_oracle(L, delta_inv, mode, values):
    lattice = Lattice(L)
    params = ModelParams(delta_inv, mode, dict(zip(lattice.sites, values)))
    full = assemble_full_oracle(params, lattice)
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        sparse = assemble_sector_sparse(params, basis)
        assert sparse.dim == len(basis)
        entries = sparse.entries.toarray()
        assert np.array_equal(entries, assemble_sector(params, basis).entries)
        assert np.abs(entries - oracle_sector_block(full, lattice, basis)).max() <= 1e-12


def _params(L, seed):
    lattice = Lattice(L)
    if seed is None:
        return lattice, ModelParams(0.1)
    values = draw_field(DisorderSpec.uniform(0.0, 2.0, 1, seed), 0, lattice)
    return lattice, ModelParams(0.1, field={s: float(values[s + L]) for s in lattice.sites})


def _dense_window(entries, lo, hi):
    w, v = scipy.linalg.eigh(entries, subset_by_value=(lo - WINDOW_PAD, hi + WINDOW_PAD))
    keep = (w >= lo) & (w <= hi)
    return w[keep], v[:, keep]


@pytest.mark.parametrize("L,seed", [(5, None), (5, 0), (5, 1), (6, None), (6, 0)])
def test_lanczos_window_matches_dense_window(L, seed):
    # Called directly on every sector with room for k = 8, far below
    # LANCZOS_MIN_DIM too, so the small sectors exercise the doubling of k.
    lattice, params = _params(L, seed)
    lo, hi = -EDGE_TIE_TOL, auto_window(params).e_max + EDGE_TIE_TOL
    solved = 0
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        if len(basis) <= 2 * spectral.LANCZOS_START_K:
            continue
        found = _lanczos_window(assemble_sector_sparse(params, basis).entries, lo, hi)
        w, v = _dense_window(assemble_sector(params, basis).entries, lo, hi)
        if found is None:
            continue
        solved += 1
        w_l, v_l = found
        assert len(w_l) == len(w), n
        if len(w):
            assert np.abs(w_l - w).max() <= 1e-12
            assert np.abs(v_l @ v_l.T - v @ v.T).max() <= 1e-10
    assert solved >= lattice.size - 4


def test_clean_chain_projector_at_L6_matches_dense(monkeypatch):
    lattice, params = _params(6, None)
    window = auto_window(params)
    projector = droplet_projector(params, lattice, window)
    assert projector.rank == 92
    assert max(len(enumerate_sector(lattice, n)) for n in range(14)) > LANCZOS_MIN_DIM
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", 10**9)
    dense = droplet_projector(params, lattice, window)
    assert dense.rank == 92
    for n, ref in dense.selections.items():
        sel = projector.selections[n]
        assert sel.eigenvectors.shape == ref.eigenvectors.shape
        if len(ref.eigenvalues):
            assert np.abs(sel.eigenvalues - ref.eigenvalues).max() <= 1e-12
            assert np.abs(projector.sector_matrix(n) - dense.sector_matrix(n)).max() <= 1e-10


def test_clean_chain_projector_at_L7_has_the_dense_rank():
    # 121 is the rank of the dense projector, which takes about two minutes.
    lattice, params = _params(7, None)
    assert droplet_projector(params, lattice, auto_window(params)).rank == 121


def test_lanczos_vectors_do_not_depend_on_call_order():
    lattice, params = _params(6, None)
    e_max = auto_window(params).e_max

    def solve(n):
        return eigensolve(assemble_sector_sparse(params, enumerate_sector(lattice, n)), e_max)

    first = solve(7)
    for n in (5, 6, 8):
        solve(n)
    again = solve(7)
    assert first.dim > LANCZOS_MIN_DIM
    assert np.array_equal(first.eigenvalues, again.eigenvalues)
    assert np.array_equal(first.eigenvectors, again.eigenvectors)


def test_sparse_matrix_full_solve_is_the_dense_solve():
    lattice, params = _params(4, 0)
    basis = enumerate_sector(lattice, 4)
    sparse = eigensolve(assemble_sector_sparse(params, basis))
    dense = eigensolve(assemble_sector(params, basis))
    assert np.array_equal(sparse.eigenvalues, dense.eigenvalues)
    assert np.array_equal(sparse.eigenvectors, dense.eigenvectors)


def test_window_holding_the_spectrum_falls_back_to_dense(monkeypatch):
    # A window holding nearly the whole spectrum: k would reach dim - 1.
    lattice, params = _params(3, 0)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 3))
    assert _lanczos_window(matrix.entries, -EDGE_TIE_TOL, 100.0) is None
    reference = eigensolve(assemble_sector(params, enumerate_sector(lattice, 3)), 100.0)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", 2)
    data = eigensolve(matrix, 100.0)
    assert np.array_equal(data.eigenvalues, reference.eigenvalues)
    assert np.array_equal(data.eigenvectors, reference.eigenvectors)


def test_corrupted_lanczos_eigenpair_raises(monkeypatch):
    lattice, params = _params(6, None)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 6))
    solve = spectral._lanczos_window

    def corrupted(entries, lo, hi):
        w, v = solve(entries, lo, hi)
        v = v.copy()
        v[:, 0] = np.roll(v[:, 0], 1)
        return w, v

    monkeypatch.setattr(spectral, "_lanczos_window", corrupted)
    with pytest.raises(NumericError):
        eigensolve(matrix, auto_window(params).e_max)


def test_caps_apply_to_the_solver_that_runs(monkeypatch):
    lattice, params = _params(6, None)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 6))
    e_max = auto_window(params).e_max
    monkeypatch.setattr(spectral, "SECTOR_DIM_CAP", 100)
    assert eigensolve(matrix, e_max).dim == 1716  # Lanczos: under its own cap
    with pytest.raises(ResourceError):
        eigensolve(matrix)  # a full solve is dense
    monkeypatch.setattr(spectral, "LANCZOS_DIM_CAP", 1000)
    with pytest.raises(ResourceError):
        eigensolve(matrix, e_max)
