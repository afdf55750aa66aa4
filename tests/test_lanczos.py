"""The sparse assembler and the Lanczos window solve against the dense path.

`assemble_sector_sparse` must reproduce `assemble_sector` entry for entry,
and both must match the tensor-product oracle.  `eigensolve` solves windows
of sectors above LANCZOS_MIN_DIM with one Lanczos call for c + 1 eigenpairs,
c being the rows whose Gershgorin disc reaches the window edge
(`_window_count`).  These tests check that c bounds the window, compare the
solve with the dense windowed `eigh` it replaces, on the field-free chain
(whose edge pairs are degenerate to rounding) and on seeded fields, check
that a count too low raises instead of dropping an eigenpair, and that a
window short of its count is kept only when a second call finds nothing
more in it.
"""

import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
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
    _window_count,
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


def _count(entries, hi):
    return _window_count(entries, abs(entries).sum(axis=1), hi)


def _count_eigsh(monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting(entries, **kwargs):
        calls.append(entries.shape[0])
        return eigsh(entries, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    return calls


@functools.cache
def _clean_projector(L):
    lattice, params = _params(L, None)
    return droplet_projector(params, lattice, auto_window(params))


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(1, 4),
    delta_inv=st.floats(0.0, 0.3),
    mode=st.sampled_from(BOUNDARY_MODES),
    values=st.one_of(st.none(), st.lists(st.floats(0.0, 3.0), min_size=9, max_size=9)),
    widened=st.booleans(),
)
def test_window_count_bounds_the_eigenvalues_in_the_window(L, delta_inv, mode, values, widened):
    # The droplet window, or `disorder-dos`'s window widened by twice the
    # mean of a uniform field on [0, 2].
    lattice = Lattice(L)
    field = None if values is None else dict(zip(lattice.sites, values))
    params = ModelParams(delta_inv, mode, field)
    hi = auto_window(params).e_max + (2.0 if widened else 0.0) + EDGE_TIE_TOL
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        dense = assemble_sector(params, basis).entries
        inside = int(np.count_nonzero(np.linalg.eigvalsh(dense) <= hi))
        assert _count(dense, hi) >= inside, n
        assert _count(assemble_sector_sparse(params, basis).entries, hi) == _count(dense, hi)


@pytest.mark.parametrize("L", [4, 5, 6, 7])
def test_window_count_is_the_window_rank_on_the_clean_chain(L):
    # Only the N - n + 1 single clusters of sector n have a disc reaching the edge.
    lattice, params = _params(L, None)
    projector = _clean_projector(L)
    hi = projector.window.e_max + EDGE_TIE_TOL
    for n in range(lattice.size + 1):
        entries = assemble_sector_sparse(params, enumerate_sector(lattice, n)).entries
        rank = len(projector.selections[n].eigenvalues)
        assert _count(entries, hi) == rank == (lattice.size - n + 1 if n else 1), n


@pytest.mark.parametrize("L,seed", [(5, None), (5, 0), (5, 1), (6, None), (6, 0)])
def test_lanczos_window_matches_dense_window(L, seed):
    # Called directly on every sector with room for the count, far below
    # LANCZOS_MIN_DIM too.
    lattice, params = _params(L, seed)
    lo, hi = -EDGE_TIE_TOL, auto_window(params).e_max + EDGE_TIE_TOL
    solved = 0
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        entries = assemble_sector_sparse(params, basis).entries
        found = _lanczos_window(entries, lo, hi, _count(entries, hi))
        if found is None:
            continue
        solved += 1
        w, v = _dense_window(assemble_sector(params, basis).entries, lo, hi)
        w_l, v_l = found
        assert len(w_l) == len(w), n
        if len(w):
            assert np.abs(w_l - w).max() <= 1e-12
            assert np.abs(v_l @ v_l.T - v @ v.T).max() <= 1e-10
    assert solved >= lattice.size - 2


@settings(max_examples=25, deadline=None)
@given(
    L=st.integers(3, 4),
    delta_inv=st.floats(0.0, 0.3),
    values=st.lists(st.floats(0.0, 3.0), min_size=9, max_size=9),
)
def test_lanczos_window_matches_dense_eigvalsh(L, delta_inv, values):
    # No sector at L <= 4 reaches LANCZOS_MIN_DIM, so the window solve is
    # called directly; every sector it can solve is compared.
    lattice = Lattice(L)
    params = ModelParams(delta_inv, field=dict(zip(lattice.sites, values)))
    lo, hi = -EDGE_TIE_TOL, auto_window(params).e_max + EDGE_TIE_TOL
    solved = 0
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        entries = assemble_sector_sparse(params, basis).entries
        found = _lanczos_window(entries, lo, hi, _count(entries, hi))
        if found is None:
            continue
        solved += 1
        w = np.linalg.eigvalsh(assemble_sector(params, basis).entries)
        w = w[(w >= lo) & (w <= hi)]
        assert len(found[0]) == len(w), n
        if len(w):
            assert np.abs(found[0] - w).max() <= 1e-12, n
    assert solved >= 1


@pytest.mark.parametrize("L", [6, 7])
def test_one_lanczos_call_per_large_sector_of_the_clean_chain(L, monkeypatch):
    lattice, params = _params(L, None)
    dims = [len(enumerate_sector(lattice, n)) for n in range(lattice.size + 1)]
    calls = _count_eigsh(monkeypatch)
    projector = droplet_projector(params, lattice, auto_window(params))
    assert sorted(calls) == sorted(d for d in dims if d > LANCZOS_MIN_DIM)
    assert projector.rank == {6: 92, 7: 121}[L]


def test_a_count_one_too_low_raises(monkeypatch):
    lattice, params = _params(6, None)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 6))
    e_max = auto_window(params).e_max
    assert matrix.dim > LANCZOS_MIN_DIM
    assert len(eigensolve(matrix, e_max).eigenvalues) == _count(matrix.entries, e_max) == 8
    count = spectral._window_count
    monkeypatch.setattr(spectral, "_window_count", lambda *args: count(*args) - 1)
    with pytest.raises(NumericError, match="count 7 is too low"):
        eigensolve(matrix, e_max)


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
    # A window holding nearly the whole spectrum: count + 1 would reach dim - 1.
    lattice, params = _params(3, 0)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 3))
    assert _lanczos_window(matrix.entries, -EDGE_TIE_TOL, 100.0, _count(matrix.entries, 100.0)) is None
    reference = eigensolve(assemble_sector(params, enumerate_sector(lattice, 3)), 100.0)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", 2)
    data = eigensolve(matrix, 100.0)
    assert np.array_equal(data.eigenvalues, reference.eigenvalues)
    assert np.array_equal(data.eigenvectors, reference.eigenvectors)


def test_a_degenerate_window_short_of_its_copies_fails_the_check(monkeypatch):
    # At delta_inv = 0 the sector is diagonal and its window eigenvalue 1 is
    # six-fold; the Krylov space of the first call misses copies of it, the
    # second call finds one, and the window is not used.
    lattice = Lattice(4)
    params = ModelParams(0.0)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 4))
    hi = auto_window(params).e_max + EDGE_TIE_TOL
    assert _count(matrix.entries, hi) == 6
    calls = _count_eigsh(monkeypatch)
    assert _lanczos_window(matrix.entries, -EDGE_TIE_TOL, hi, 6) is None
    assert len(calls) == 2


def test_a_short_window_that_passes_the_check_stays_lanczos(monkeypatch):
    # Sample 0 of `disorder-dos --L 6` at seed 0, sector n=4, in the droplet
    # window widened by twice the field mean: three rows have a disc reaching
    # the edge and two eigenvalues lie in the window.
    lattice, params = _params(6, 0)
    basis = enumerate_sector(lattice, 4)
    matrix = assemble_sector_sparse(params, basis)
    lo, hi = -EDGE_TIE_TOL, auto_window(ModelParams(0.1)).e_max + 2.0 + EDGE_TIE_TOL
    assert _count(matrix.entries, hi) == 3
    calls = _count_eigsh(monkeypatch)
    w_l, v_l = _lanczos_window(matrix.entries, lo, hi, 3)
    assert calls == [len(basis), len(basis)]
    w, v = _dense_window(assemble_sector(params, basis).entries, lo, hi)
    assert len(w_l) == len(w) == 2
    assert np.abs(w_l - w).max() <= 1e-12
    assert np.abs(v_l @ v_l.T - v @ v.T).max() <= 1e-10


def test_a_diagonal_sector_is_read_off_its_diagonal(monkeypatch):
    lattice = Lattice(4)
    params = ModelParams(0.0)
    e_max = auto_window(params).e_max
    basis = enumerate_sector(lattice, 4)
    reference = eigensolve(assemble_sector(params, basis), e_max)
    calls = _count_eigsh(monkeypatch)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", 2)
    data = eigensolve(assemble_sector_sparse(params, basis), e_max)
    assert calls == []
    assert np.array_equal(data.eigenvalues, reference.eigenvalues)
    v, ref = data.eigenvectors, reference.eigenvectors
    assert np.abs(v @ v.T - ref @ ref.T).max() <= 1e-12


def test_the_ising_limit_window_above_the_dense_cap():
    # Sector n=7 at L=8 has 19 448 rows, above SECTOR_DIM_CAP; its window
    # holds the 11 single clusters.
    lattice = Lattice(8)
    params = ModelParams(0.0)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 7))
    assert matrix.dim > spectral.SECTOR_DIM_CAP
    data = eigensolve(matrix, auto_window(params).e_max)
    assert np.array_equal(data.eigenvalues, np.ones(lattice.size - 7 + 1))


def test_an_empty_window_under_a_loose_count_stays_lanczos():
    # Sample 0 of program seed 952065 at L=6: one row of sector n=4 has a
    # disc reaching the edge, but no eigenvalue lies in the window.
    lattice = Lattice(6)
    values = draw_field(DisorderSpec.uniform(0.0, 2.0, 2, 952065), 0, lattice)
    params = ModelParams(0.1, field={s: float(values[s + 6]) for s in lattice.sites})
    e_max = auto_window(params).e_max
    basis = enumerate_sector(lattice, 4)
    matrix = assemble_sector_sparse(params, basis)
    hi = e_max + EDGE_TIE_TOL
    assert _count(matrix.entries, hi) == 1
    w, v = _lanczos_window(matrix.entries, -EDGE_TIE_TOL, hi, 1)
    assert w.shape == (0,) and v.shape == (len(basis), 0)
    assert len(_dense_window(assemble_sector(params, basis).entries, -EDGE_TIE_TOL, hi)[0]) == 0


def test_corrupted_lanczos_eigenpair_raises(monkeypatch):
    lattice, params = _params(6, None)
    matrix = assemble_sector_sparse(params, enumerate_sector(lattice, 6))
    solve = spectral._lanczos_window

    def corrupted(*args):
        w, v = solve(*args)
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
