"""The Feshbach floor of in-window eigenvalues against full spectra.

`window_floors` sharpens the Weyl floor of `spectral_floors` for sectors
2 <= n <= |lattice| - 1 from three facts about the split into single-cluster
configurations P and the rest Q: QHQ lies above the k=2 threshold plus the
field, ||PHQ|| <= delta_inv, and PHP is diagonal.  These tests check each
fact on assembled sectors, the floor against `eigvalsh`, and that the
projector built on it equals the one built on the Weyl floor alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplet_lab import spectral
from droplet_lab.configspace import Lattice, enumerate_sector
from droplet_lab.disorder import DisorderSpec, draw_field
from droplet_lab.hamiltonian import ModelParams, assemble_sector, cluster_mask
from droplet_lab.spectral import (
    DropletWindow,
    auto_window,
    droplet_projector,
    spectral_floors,
    window_floors,
)

LAWS = {
    "uniform": lambda seed: DisorderSpec.uniform(0.0, 2.0, 1, seed),
    "bernoulli": lambda seed: DisorderSpec.bernoulli(0.5, 1.5, 1, seed),
    "zero": lambda seed: DisorderSpec.constant(0.0, 1, seed),
}


def _params(L, delta_inv, law, seed):
    lattice = Lattice(L)
    values = draw_field(LAWS[law](seed), 0, lattice)
    return lattice, ModelParams(delta_inv, field={s: float(values[s + L]) for s in lattice.sites})


def _assert_floors_hold(params, lattice, e_max):
    floors = window_floors(params, lattice, e_max)
    weyl = spectral_floors(params, lattice)
    assert np.all(floors >= weyl)
    # The vacuum, sector 1 (PHP tridiagonal) and the full sector keep Weyl.
    for n in (0, 1, lattice.size):
        assert floors[n] == weyl[n]
    for n in range(lattice.size + 1):
        w = np.linalg.eigvalsh(assemble_sector(params, enumerate_sector(lattice, n)).entries)
        in_window = w[w <= e_max + spectral.EDGE_TIE_TOL]
        assert np.all(in_window >= floors[n] - 1e-12), (n, in_window.min(), floors[n])
    return floors


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_floor_bounds_every_in_window_eigenvalue(L, law):
    raised = 0
    for delta_inv in (0.05, 0.1, 0.2, 0.3):
        for seed in range(3 if law != "zero" else 1):
            lattice, params = _params(L, delta_inv, law, seed)
            floors = _assert_floors_hold(params, lattice, auto_window(params).e_max)
            raised += int(np.sum(floors > spectral_floors(params, lattice)))
    if L >= 2:
        assert raised > 0


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(2, 4),
    delta_inv=st.floats(0.0, 0.6),
    e_max=st.floats(0.0, 2.5),
    values=st.lists(st.floats(0.0, 3.0), min_size=9, max_size=9),
)
def test_floor_bounds_in_window_eigenvalues_property(L, delta_inv, e_max, values):
    # e_max ranges past the two-cluster limit, where the floor must fall back
    # to Weyl rather than divide by a non-positive gap.
    lattice = Lattice(L)
    params = ModelParams(delta_inv, field=dict(zip(lattice.sites, values)))
    _assert_floors_hold(params, lattice, e_max)


def test_other_boundary_modes_keep_no_floor():
    lattice = Lattice(3)
    params = ModelParams(0.1, boundary_mode="droplet")
    assert np.all(window_floors(params, lattice, 1.0) == -math.inf)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
@pytest.mark.parametrize("delta_inv", [0.1, 0.3, 0.6])
def test_feshbach_ingredients_on_assembled_sectors(L, delta_inv):
    lattice, params = _params(L, delta_inv, "uniform", L)
    values = np.sort(list(params.field.values()))
    for n in range(2, lattice.size):
        basis = enumerate_sector(lattice, n)
        H = assemble_sector(params, basis).entries
        q = np.array(cluster_mask(basis, 2).kept, dtype=int)
        p = np.setdiff1d(np.arange(len(basis)), q)
        php = H[np.ix_(p, p)]
        assert np.array_equal(php, np.diag(np.diag(php)))
        assert np.linalg.norm(H[np.ix_(p, q)], 2) <= delta_inv + 1e-12
        lambda_q = 2.0 * (1.0 - delta_inv) + values[:n].sum()
        assert np.linalg.eigvalsh(H[np.ix_(q, q)])[0] >= lambda_q - 1e-12


def _weyl_only(monkeypatch):
    monkeypatch.setattr(spectral, "window_floors", lambda params, lattice, e_max: spectral_floors(params, lattice))


CASES = [(L, law, seed) for L in (2, 3, 4, 5, 6) for law in ("uniform", "bernoulli") for seed in (0, 1)]


@pytest.mark.parametrize("L,law,seed", CASES)
def test_projector_equals_weyl_only_projector(monkeypatch, L, law, seed):
    lattice, params = _params(L, 0.1, law, seed)
    window = auto_window(params)
    projector = droplet_projector(params, lattice, window)
    _weyl_only(monkeypatch)
    reference = droplet_projector(params, lattice, window)
    assert projector.rank == reference.rank
    for n, ref in reference.selections.items():
        sel = projector.selections[n]
        assert sel.eigenvectors.shape == ref.eigenvectors.shape
        assert np.abs(sel.eigenvalues - ref.eigenvalues).max(initial=0.0) <= 1e-12
        if len(ref.eigenvalues):
            assert np.abs(projector.sector_matrix(n) - reference.sector_matrix(n)).max() <= 1e-10


def test_projector_equals_weyl_only_projector_clean_chain(monkeypatch):
    for delta_inv, e_max in ((0.0, 1.5), (0.1, 1.26), (0.2, 0.5)):
        lattice = Lattice(4)
        params = ModelParams(delta_inv)
        window = DropletWindow(e_max)
        projector = droplet_projector(params, lattice, window, override_window_check=True)
        with monkeypatch.context() as patched:
            _weyl_only(patched)
            reference = droplet_projector(params, lattice, window, override_window_check=True)
        assert projector.rank == reference.rank
        for n, ref in reference.selections.items():
            assert np.abs(projector.selections[n].eigenvalues - ref.eigenvalues).max(initial=0.0) <= 1e-12


def test_fewer_sectors_solved_at_L6(monkeypatch):
    # Criterion 10's field law and window at L=6, samples 0..9 of seed 0.
    lattice = Lattice(6)
    template = ModelParams(0.1)
    window = auto_window(template)
    spec = DisorderSpec.uniform(0.0, 2.0, 10, 0)
    solved = []
    solve = spectral.eigensolve

    def counting(matrix, e_max=None):
        solved.append(matrix.dim)
        return solve(matrix, e_max)

    monkeypatch.setattr(spectral, "eigensolve", counting)

    def run():
        solved.clear()
        for i in range(spec.samples):
            values = draw_field(spec, i, lattice)
            params = template.with_field({s: float(values[s + 6]) for s in lattice.sites})
            droplet_projector(params, lattice, window)
        return len(solved), max(solved)

    assert run() == (23, 78)
    _weyl_only(monkeypatch)
    assert run() == (29, 715)
