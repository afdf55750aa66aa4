"""The windowed projector against the full dense solve it replaces.

`droplet_projector` skips sectors whose spectral floor clears the window and
solves the rest for their in-window eigenpairs only.  These tests check the
skip rule against full `eigvalsh` spectra and the windowed selection against
a selection made from full `eigensolve` spectra, at L <= 5.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from droplet_lab.configspace import Lattice, centered_cluster, enumerate_sector
from droplet_lab.disorder import DisorderSpec, dos_decay_experiment, draw_field
from droplet_lab.hamiltonian import ModelParams, assemble_sector
from droplet_lab.spectral import (
    EDGE_TIE_TOL,
    SIGN_TOL,
    SKIP_MARGIN,
    DropletWindow,
    _canonical_signs,
    auto_window,
    droplet_projector,
    eigensolve,
    spectral_floors,
)

SPECS = {
    "uniform": lambda seed: DisorderSpec.uniform(0.0, 2.0, 1, seed),
    "bernoulli": lambda seed: DisorderSpec.bernoulli(0.5, 1.5, 1, seed),
}


def _params(L, delta_inv, kind, seed, boundary_mode="standard"):
    lattice = Lattice(L)
    values = draw_field(SPECS[kind](seed), 0, lattice)
    field = {s: float(values[s + L]) for s in lattice.sites}
    return lattice, ModelParams(delta_inv=delta_inv, boundary_mode=boundary_mode, field=field)


def _full_spectrum(params, lattice, n):
    return np.linalg.eigvalsh(assemble_sector(params, enumerate_sector(lattice, n)).entries)


def test_field_free_floor_is_attained():
    # The k=1 threshold is sharp: some sector n >= 1 sits on 1 - delta_inv up
    # to rounding, which is why the skip rule needs a margin above 0.
    for L in (1, 2, 3, 4):
        lattice = Lattice(L)
        for delta_inv in (0.0, 0.1, 0.3, 0.6, 0.9):
            params = ModelParams(delta_inv=delta_inv)
            lowest = min(_full_spectrum(params, lattice, n)[0] for n in range(1, lattice.size + 1))
            assert lowest == pytest.approx(1.0 - delta_inv, abs=1e-12)
            assert lowest > 1.0 - delta_inv - SKIP_MARGIN


def test_skipped_sectors_have_no_window_eigenvalue():
    skipped = 0
    for L in (1, 2, 3, 4, 5):
        for kind in SPECS:
            for seed in range(3):
                for delta_inv in (0.1, 0.25):
                    lattice, params = _params(L, delta_inv, kind, seed)
                    window = auto_window(params)
                    floors = spectral_floors(params, lattice)
                    for n in range(lattice.size + 1):
                        lowest = _full_spectrum(params, lattice, n)[0]
                        assert lowest >= floors[n] - 1e-12
                        if floors[n] > window.e_max + SKIP_MARGIN:
                            skipped += 1
                            assert lowest > window.e_max + EDGE_TIE_TOL
    assert skipped > 0


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(1, 3),
    delta_inv=st.floats(0.0, 0.95),
    values=st.lists(st.floats(0.0, 3.0), min_size=7, max_size=7),
)
def test_spectral_floors_bound_every_sector(L, delta_inv, values):
    lattice = Lattice(L)
    params = ModelParams(delta_inv=delta_inv, field=dict(zip(lattice.sites, values)))
    floors = spectral_floors(params, lattice)
    for n in range(lattice.size + 1):
        assert _full_spectrum(params, lattice, n)[0] >= floors[n] - 1e-12


def test_other_boundary_modes_skip_nothing():
    lattice, params = _params(3, 0.1, "uniform", 0, boundary_mode="droplet")
    assert np.all(spectral_floors(params, lattice) == -math.inf)


def _full_selection(params, lattice, e_max, n):
    data = eigensolve(assemble_sector(params, enumerate_sector(lattice, n)))
    w = data.eigenvalues
    keep = (w >= -EDGE_TIE_TOL) & (w <= e_max + EDGE_TIE_TOL)
    return w, keep, data.eigenvectors


CASES = [
    (L, kind, seed, mode)
    for mode in ("standard", "droplet")
    for L, seeds in ((2, (0, 1)), (3, (0, 1)), (4, (0,)), (5, (0,)))
    for kind in SPECS
    for seed in seeds
]


@pytest.mark.parametrize("L,kind,seed,boundary_mode", CASES)
def test_windowed_projector_matches_full_selection(L, kind, seed, boundary_mode):
    lattice, params = _params(L, 0.1, kind, seed, boundary_mode)
    window = auto_window(params)
    projector = droplet_projector(params, lattice, window)
    rank = 0
    for n in range(lattice.size + 1):
        w, keep, vectors = _full_selection(params, lattice, window.e_max, n)
        sel = projector.selections[n]
        rank += int(keep.sum())
        assert sel.vectors.shape == (len(w), int(keep.sum()))
        assert np.abs(sel.eigenvalues - w[keep]).max(initial=0.0) <= 1e-12
        full_block = vectors[:, keep] @ vectors[:, keep].T
        assert np.abs(projector.sector_matrix(n) - full_block).max(initial=0.0) <= 1e-10
    assert projector.rank == rank


def test_windowed_projector_matches_full_selection_clean_chain():
    # Field-free and at the diagonal point, with exact degeneracies and
    # eigenvalues sitting on the window edge.
    for delta_inv, e_max in ((0.0, 1.0), (0.0, 1.5), (0.1, 1.26), (0.2, 0.0)):
        lattice = Lattice(3)
        params = ModelParams(delta_inv=delta_inv)
        projector = droplet_projector(
            params, lattice, DropletWindow(e_max), override_window_check=True
        )
        for n in range(lattice.size + 1):
            w, keep, vectors = _full_selection(params, lattice, e_max, n)
            assert len(projector.selections[n].eigenvalues) == int(keep.sum())
            full_block = vectors[:, keep] @ vectors[:, keep].T
            assert np.abs(projector.sector_matrix(n) - full_block).max(initial=0.0) <= 1e-10


def _nondegenerate(w, gap=1e-6):
    spacing = np.diff(w)
    isolated = np.ones(len(w), dtype=bool)
    isolated[1:] &= spacing > gap
    isolated[:-1] &= spacing > gap
    return isolated


@pytest.mark.parametrize("L,kind,seed", [(3, "uniform", 0), (4, "bernoulli", 1), (5, "uniform", 2)])
def test_canonical_vectors_agree_across_drivers(L, kind, seed):
    lattice, params = _params(L, 0.1, kind, seed)
    window = auto_window(params)
    projector = droplet_projector(params, lattice, window)
    compared = 0
    for n in range(lattice.size + 1):
        matrix = assemble_sector(params, enumerate_sector(lattice, n))
        full = eigensolve(matrix)
        w_evd, v_evd = scipy.linalg.eigh(matrix.entries, driver="evd")
        v_evd = _canonical_signs(v_evd)
        isolated = _nondegenerate(full.eigenvalues)
        assert np.abs(full.eigenvectors[:, isolated] - v_evd[:, isolated]).max(initial=0.0) <= 1e-9
        sel = projector.selections[n]
        keep = (full.eigenvalues >= -EDGE_TIE_TOL) & (full.eigenvalues <= window.e_max + EDGE_TIE_TOL)
        in_window = isolated[keep]
        windowed = sel.vectors[:, in_window]
        assert np.abs(full.eigenvectors[:, keep][:, in_window] - windowed).max(initial=0.0) <= 1e-9
        compared += int(in_window.sum())
    assert compared > 0


def test_sign_convention_with_mirrored_maxima():
    # A reflection-odd vector has mirrored maxima of opposite sign, so an
    # argmax-based sign would depend on rounding; the first significant
    # entry does not.
    v = np.array([[1e-9, -0.3, 0.6, 0.0, -0.6, 0.3]]).T
    v /= np.linalg.norm(v)
    for flipped in (v.copy(), -v):
        out = _canonical_signs(flipped)
        first = np.flatnonzero(np.abs(out[:, 0]) > SIGN_TOL * np.abs(out[:, 0]).max())[0]
        assert first == 1 and out[first, 0] > 0
        assert np.array_equal(out, _canonical_signs(v.copy()))


def test_dos_decay_matches_full_solve():
    lattice = Lattice(3)
    template = ModelParams(delta_inv=0.1)
    spec = DisorderSpec.uniform(0.0, 2.0, 4, 3)
    window = DropletWindow(auto_window(template).e_max + 2.0 * spec.mean)
    probes = {n: centered_cluster(lattice, n) for n in (1, 2, 3)}
    result = dos_decay_experiment(spec, template, lattice, window, probes)
    for n, mean in zip(result.probe_ns, result.means):
        values = []
        for i in range(spec.samples):
            field = draw_field(spec, i, lattice)
            params = template.with_field({s: float(field[s + lattice.L]) for s in lattice.sites})
            w, keep, vectors = _full_selection(params, lattice, window.e_max, n)
            row = vectors[enumerate_sector(lattice, n).index_of(tuple(probes[n])), keep]
            values.append(float(row @ row))
        assert mean == pytest.approx(float(np.mean(values)), abs=1e-12)
