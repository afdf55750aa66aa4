"""The charge-block Schmidt kernel against the full-layout SVD it replaces.

A state of one particle-number sector n splits over B and its complement
into blocks, one per count a of particles inside B.  `_sector_spectra`
decomposes those blocks alone; the reference is `_candidate_spectra` on the
sector's slice of the full window stack, whose spectra carry the same
values plus zeros.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_oracle import split_indices_loop

from droplet_lab.configspace import Lattice, enumerate_sector
from droplet_lab.disorder import DisorderSpec, draw_field
from droplet_lab.entanglement import (
    Bipartition,
    _candidate_spectra,
    _charge_blocks,
    _renyi_rows,
    _sector_spectra,
    _window_stack,
    _with_random,
    centered_block,
)
from droplet_lab.errors import NumericError
from droplet_lab.hamiltonian import ModelParams
from droplet_lab.spectral import auto_window, droplet_projector

ALPHAS = (0.0, 0.5, 1.0, 2.0)
TOL = 1e-12


def _projector(L, field):
    """Window projector of a seeded uniform field, a constant field, or the clean chain."""
    lattice = Lattice(L)
    params = ModelParams(delta_inv=0.1)
    if isinstance(field, int):
        values = draw_field(DisorderSpec.uniform(0.0, 2.0, 1, field), 0, lattice)
        params = params.with_field({s: float(values[s + L]) for s in lattice.sites})
    elif field is not None:
        params = params.with_field({s: field for s in lattice.sites})
    return lattice, droplet_projector(params, lattice, auto_window(params))


def _intervals(lattice):
    L = lattice.L
    return [
        Bipartition(lattice, lo, hi)
        for lo in range(-L, L + 1)
        for hi in range(lo, L + 1)
        if (lo, hi) != (-L, L)
    ]


def _padded(lam, width):
    return np.pad(lam, ((0, 0), (0, width - lam.shape[1])))


def _assert_matches_full_stack(lattice, projector, part, rng, n_random=8):
    """Every sector's candidates: the kernel's spectra and entropies against the full layout's."""
    vectors = {n: sel.eigenvectors for n, sel in projector.selections.items()}
    stack, layout = _window_stack(lattice, part, vectors)
    for n, (lo, hi) in zip(sorted(vectors), layout):
        if hi == lo:
            continue
        coeffs = _with_random(hi - lo, n_random, rng)
        got = _sector_spectra(lattice, part.sites, n, vectors[n], coeffs)
        expected = _candidate_spectra(stack[lo:hi], coeffs)
        # The blocks' ranks never exceed the full layout's.
        assert got.shape[1] <= expected.shape[1]
        assert np.all(np.diff(got, axis=1) <= 0)
        assert np.abs(_padded(got, expected.shape[1]) - expected).max() <= TOL
        for alpha in ALPHAS:
            assert np.abs(_renyi_rows(got, alpha) - _renyi_rows(expected, alpha)).max() <= TOL


# Seeded fields at L = 3..6, the clean chain at L = 4 and L = 6 (degenerate
# parity pairs), and a constant field of 2.0 whose window holds only the vacuum.
CASES = [(3, 0), (3, 11), (4, 2), (4, 5), (5, 3), (5, 8), (6, 0), (6, 4), (4, None), (6, None), (4, 2.0)]


@pytest.mark.parametrize("L,field", CASES)
def test_kernel_matches_full_stack_on_every_block(L, field):
    lattice, projector = _projector(L, field)
    rng = np.random.default_rng(L)
    parts = _intervals(lattice) if L <= 4 else [centered_block(lattice, s) for s in range(1, lattice.size)]
    for part in parts:
        _assert_matches_full_stack(lattice, projector, part, rng)


def test_vacuum_window_has_one_unit_schmidt_value():
    lattice, projector = _projector(4, 2.0)
    assert projector.rank == 1 and projector.selections[0].eigenvectors.shape == (1, 1)
    vacuum = projector.selections[0].eigenvectors
    for size in range(1, lattice.size):
        lam = _sector_spectra(lattice, centered_block(lattice, size).sites, 0, vacuum, np.eye(1))
        assert lam.tolist() == [[1.0]]


@pytest.mark.parametrize("L", [2, 3])
def test_blocks_are_the_charge_submatrices_of_the_matricization(L):
    """Each block, read in the kernel's order, is the bytes of its sub-matrix of M."""
    lattice = Lattice(L)
    rng = np.random.default_rng(0)
    for part in _intervals(lattice):
        inside, outside = part.size, lattice.size - part.size
        for n in range(lattice.size + 1):
            rows, cols = split_indices_loop(lattice, part.sites, n)
            v = rng.standard_normal(len(rows))
            M = np.zeros((1 << inside, 1 << outside))
            M[rows, cols] = v
            order, blocks = _charge_blocks(lattice, part.sites, n)
            charges = range(max(0, n - outside), min(n, inside) + 1)
            assert len(blocks) == len(charges)
            assert blocks[-1][1] == len(v)
            for a, (start, stop, r, c) in zip(charges, blocks):
                r0 = sum(comb(inside, j) for j in range(a))
                c0 = sum(comb(outside, j) for j in range(n - a))
                assert (r, c) == (comb(inside, a), comb(outside, n - a))
                expected = M[r0 : r0 + r, c0 : c0 + c]
                assert v[order][start:stop].reshape(r, c).tobytes() == expected.tobytes()


def test_one_row_or_one_column_blocks_need_no_svd(monkeypatch):
    """Sectors 0 and 1, a one-site block and a one-site complement are read as squared norms."""
    lattice = Lattice(3)
    rng = np.random.default_rng(5)
    cases = [(centered_block(lattice, s), n) for s in range(1, lattice.size) for n in (0, 1)]
    cases += [(Bipartition(lattice, 0, 0), n) for n in range(lattice.size + 1)]
    cases += [(Bipartition(lattice, -3, 2), n) for n in range(lattice.size + 1)]
    expected = {}
    for part, n in cases:
        _, blocks = _charge_blocks(lattice, part.sites, n)
        assert all(min(r, c) == 1 for _, _, r, c in blocks)
        vectors = np.linalg.qr(rng.standard_normal((len(enumerate_sector(lattice, n)), 1)))[0]
        stack, _ = _window_stack(lattice, part, {n: vectors})
        coeffs = np.ones((1, 1))
        expected[part, n] = (vectors, _candidate_spectra(stack, coeffs))

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran for a block with one row or one column")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for (part, n), (vectors, full) in expected.items():
        got = _sector_spectra(lattice, part.sites, n, vectors, np.ones((1, 1)))
        assert np.abs(_padded(got, full.shape[1]) - full).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(data=st.data(), L=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_kernel_matches_full_stack_property(data, L, seed):
    lattice, projector = _projector(L, seed)
    part = data.draw(st.sampled_from(_intervals(lattice)))
    _assert_matches_full_stack(lattice, projector, part, np.random.default_rng(seed), n_random=4)


def test_non_orthonormal_input_raises():
    lattice, projector = _projector(3, 0)
    part = centered_block(lattice, 3)
    n, sel = max(projector.selections.items(), key=lambda item: item[1].eigenvectors.shape[1])
    vectors = sel.eigenvectors
    m = vectors.shape[1]
    assert m > 1
    coeffs = np.eye(m)
    _sector_spectra(lattice, part.sites, n, vectors, coeffs)  # orthonormal: accepted
    with pytest.raises(NumericError):
        _sector_spectra(lattice, part.sites, n, 1.001 * vectors, coeffs)
    skewed = vectors.copy()
    skewed[:, 1] += 1e-3 * vectors[:, 0]
    with pytest.raises(NumericError):
        _sector_spectra(lattice, part.sites, n, skewed, np.full((1, m), m**-0.5))
