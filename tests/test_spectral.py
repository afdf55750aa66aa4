"""Eigensolves, thresholds, projector, resolvent and evolution."""

import math

import numpy as np
import pytest

from droplet_lab import pipelines
from droplet_lab.configspace import (
    Lattice,
    centered_cluster,
    config_distance,
    enumerate_sector,
)
from droplet_lab.errors import DomainError, NumericError
from droplet_lab.hamiltonian import (
    ModelParams,
    assemble_full_oracle,
    assemble_sector,
    cluster_mask,
    oracle_sector_block,
    restrict,
)
from droplet_lab.spectral import (
    DropletWindow,
    auto_window,
    droplet_projector,
    eigensolve,
    evolve,
    fit_exponential_envelope,
    greens_function,
    ground_state_check,
    local_dos,
    local_dos_by_sector,
    random_droplet_state,
    sector_spectra,
    threshold_check,
)
from droplet_lab.states import from_amplitudes


def all_eigenvalues(params, lattice):
    out = []
    for n in range(lattice.size + 1):
        data = eigensolve(assemble_sector(params, enumerate_sector(lattice, n)))
        out.extend(float(w) for w in data.eigenvalues)
    return sorted(out)


def test_eigensolve_one_by_one():
    lat = Lattice(1)
    basis = enumerate_sector(lat, 0)
    matrix = assemble_sector(ModelParams(delta_inv=0.3), basis)
    data = eigensolve(matrix)
    assert data.eigenvalues[0] == pytest.approx(0.0, abs=1e-15)
    assert data.eigenvectors[0, 0] == pytest.approx(1.0)


def test_eigensolve_ising_diagonal():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.0)
    basis = enumerate_sector(lat, 2)
    matrix = assemble_sector(params, basis)
    data = eigensolve(matrix)
    assert np.allclose(data.eigenvalues, np.sort(np.diag(matrix.entries)), atol=1e-14)


@pytest.mark.parametrize("mode", ["standard", "droplet"])
def test_eigensolve_of_the_lowest_pairs_matches_the_full_solve(mode):
    lat = Lattice(4)
    rng = np.random.default_rng(3)
    params = ModelParams(0.1, mode, dict(zip(lat.sites, rng.uniform(0.0, 2.0, lat.size))))
    for n in range(lat.size + 1):
        matrix = assemble_sector(params, enumerate_sector(lat, n))
        full = eigensolve(matrix)
        for lowest in {1, min(3, matrix.dim), matrix.dim}:
            data = eigensolve(matrix, lowest=lowest)
            assert data.eigenvectors.shape == (matrix.dim, lowest)
            assert np.abs(data.eigenvalues - full.eigenvalues[:lowest]).max() <= 1e-12
            overlap = np.abs(data.eigenvectors.T @ full.eigenvectors[:, :lowest])
            assert np.abs(overlap - np.eye(lowest)).max() <= 1e-8
    matrix = assemble_sector(params, enumerate_sector(lat, 2))
    for lowest in (0, matrix.dim + 1):
        with pytest.raises(DomainError):
            eigensolve(matrix, lowest=lowest)
    with pytest.raises(DomainError):
        eigensolve(matrix, 1.0, lowest=1)


def test_eigensolve_matches_oracle_eigenvalues():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.2)
    basis = enumerate_sector(lat, 1)
    sector = eigensolve(assemble_sector(params, basis)).eigenvalues
    block = oracle_sector_block(assemble_full_oracle(params, lat), lat, basis)
    oracle = np.linalg.eigvalsh(block)
    assert np.abs(sector - oracle).max() <= 1e-9


def test_ising_l1_spectrum_by_hand():
    # All eight product states at delta_inv = 0: energies {0, 1 x 6, 2}.
    spectrum = all_eigenvalues(ModelParams(delta_inv=0.0), Lattice(1))
    assert spectrum == pytest.approx([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0], abs=1e-14)


@pytest.mark.parametrize("delta_inv", [0.0, 0.25])
def test_ground_state_check(delta_inv):
    report = ground_state_check(ModelParams(delta_inv=delta_inv), Lattice(3))
    assert report.minimum == pytest.approx(0.0, abs=1e-10)
    assert report.minimum_sector == 0
    assert report.second_lowest > 1e-10


def test_ground_state_check_preconditions():
    with pytest.raises(DomainError):
        ground_state_check(ModelParams(delta_inv=0.1, field={0: 1.0}), Lattice(2))
    with pytest.raises(DomainError):
        ground_state_check(ModelParams(delta_inv=0.1, boundary_mode="droplet"), Lattice(2))


def test_threshold_exact_equality_at_ising():
    margin = threshold_check(ModelParams(delta_inv=0.0), Lattice(3), 1)
    assert margin == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("delta_inv", [0.0, 0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_threshold_margins_nonnegative(delta_inv, k):
    lat = Lattice(3)
    assert threshold_check(ModelParams(delta_inv=delta_inv), lat, k) >= -1e-9
    rng = np.random.default_rng(k)
    field = {s: float(rng.uniform(0, 2)) for s in lat.sites}
    assert threshold_check(ModelParams(delta_inv=delta_inv, field=field), lat, k) >= -1e-9


def test_threshold_empty_restriction_returns_infinity():
    # A 3-site lattice admits at most 2 clusters.
    assert threshold_check(ModelParams(delta_inv=0.2), Lattice(1), 3) == math.inf


def test_window_validity_and_auto():
    params = ModelParams(delta_inv=0.1)
    window = auto_window(params)
    assert window.e_max == pytest.approx(0.9 * 2 * (1 - 0.3))
    assert window.is_valid_for(params)
    with pytest.raises(DomainError):
        auto_window(ModelParams(delta_inv=0.5))
    with pytest.raises(DomainError):
        droplet_projector(ModelParams(delta_inv=0.1), Lattice(2), DropletWindow(2.0))


def test_projector_ranks_ising():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.0)
    window = DropletWindow(1.5)
    proj = droplet_projector(params, lat, window, override_window_check=True)
    assert proj.rank == 16  # vacuum + 15 cluster positions
    proj2 = droplet_projector(params, lat, window, n_max=2, override_window_check=True)
    assert proj2.rank == 10  # 1 + 5 + 4
    proj0 = droplet_projector(params, lat, DropletWindow(0.0), override_window_check=True)
    assert proj0.rank == 1  # vacuum only


def test_projector_idempotent():
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.2)
    proj = droplet_projector(params, lat, auto_window(params))
    for n in range(lat.size + 1):
        P = proj.sector_matrix(n)
        assert np.abs(P @ P - P).max() <= 1e-9


def test_local_dos_ising_examples():
    lat = Lattice(2)
    proj = droplet_projector(
        ModelParams(delta_inv=0.0), lat, DropletWindow(1.5), override_window_check=True
    )
    assert local_dos(proj, (0, 1)) == pytest.approx(1.0, abs=1e-12)
    assert local_dos(proj, (-2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_local_dos_trace_equals_rank():
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.15)
    proj = droplet_projector(params, lat, auto_window(params))
    total = sum(float(local_dos_by_sector(proj, n).sum()) for n in range(lat.size + 1))
    assert total == pytest.approx(proj.rank, abs=1e-9)
    for n in range(lat.size + 1):
        dos = local_dos_by_sector(proj, n)
        assert dos.min() >= -1e-12
        assert dos.max() <= 1.0 + 1e-12


def test_greens_ising_diagonal():
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.0)
    basis = enumerate_sector(lat, 2)
    slice_ = greens_function(params, basis, 0.0)
    matrix = restrict(assemble_sector(params, basis), cluster_mask(basis, 2))
    for pos in range(slice_.dim):
        expected = 1.0 / matrix.entries[pos, pos]
        assert slice_.value(pos, pos) == pytest.approx(expected, rel=1e-12)


def test_greens_positive_diagonal_and_symmetry():
    lat = Lattice(4)
    params = ModelParams(delta_inv=0.1)
    basis = enumerate_sector(lat, 2)
    slice_ = greens_function(params, basis, 1.0)
    for i in range(0, slice_.dim, 5):
        assert slice_.value(i, i) > 0
        for j in range(0, slice_.dim, 7):
            gij = slice_.value(i, j)
            gji = slice_.value(j, i)
            assert gij == pytest.approx(gji, rel=1e-9, abs=1e-30)


def test_greens_rejects_bad_energy():
    # Inside the admissible window positivity is guaranteed by the threshold
    # bound, so only the window checks are reachable with nonnegative fields.
    lat = Lattice(3)
    basis = enumerate_sector(lat, 2)
    with pytest.raises(DomainError):
        greens_function(ModelParams(delta_inv=0.1), basis, -0.5)
    with pytest.raises(DomainError):
        greens_function(ModelParams(delta_inv=0.1), basis, 1.5)


def test_greens_decay_along_row():
    lat = Lattice(5)
    params = ModelParams(delta_inv=0.1)
    basis = enumerate_sector(lat, 2)
    slice_ = greens_function(params, basis, 1.0)
    x0 = centered_cluster(lat, 2)[:-1] + (centered_cluster(lat, 2)[-1] + 1,)
    j0 = slice_.config_index(x0)
    column = slice_.column(j0)
    envelope = {}
    for pos, ordinal in enumerate(slice_.kept):
        d = config_distance(x0, basis[ordinal])
        envelope[d] = max(envelope.get(d, 0.0), abs(float(column[pos])))
    fit = fit_exponential_envelope(sorted(envelope.items()))
    assert fit.mu > 0.05
    # The ct-decay pipeline reads the same envelope off the site arrays.
    assert pipelines._greens_envelope(params, lat, 2, 1.0) == sorted(envelope.items())


def test_greens_config_index_is_the_position_among_the_kept_ordinals():
    lat = Lattice(3)
    basis = enumerate_sector(lat, 2)
    slice_ = greens_function(ModelParams(delta_inv=0.1), basis, 0.5)
    for pos, ordinal in enumerate(slice_.kept):
        assert slice_.config_index(basis[ordinal]) == pos
    # Single clusters lie outside the restriction: the first, a middle and the last ordinal.
    for x in ((-3, -2), (0, 1), (2, 3)):
        with pytest.raises(DomainError, match="restriction"):
            slice_.config_index(x)


def test_fit_exponential_envelope_exact():
    points = [(d, math.exp(-d)) for d in range(6)]
    fit = fit_exponential_envelope(points)
    assert fit.c == pytest.approx(1.0, abs=1e-12)
    assert fit.mu == pytest.approx(1.0, abs=1e-12)
    assert fit.max_violation <= 1e-12


def test_fit_exponential_envelope_flat_and_errors():
    flat = fit_exponential_envelope([(0, 2.0), (1, 2.0), (2, 2.0)])
    assert flat.mu == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        fit_exponential_envelope([(0, 1.0), (1, 0.5)])
    with pytest.raises(DomainError):
        fit_exponential_envelope([(0, 1.0), (1, 0.0), (2, 0.0)])


def test_evolve_identity_at_t0():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.2)
    spectra = sector_spectra(params, lat)
    psi = from_amplitudes(lat, {(0,): 1 / np.sqrt(2), (0, 1): 1 / np.sqrt(2)})
    out = evolve(spectra, psi, 0.0)
    for n, vec in psi.parts.items():
        assert np.abs(out.parts[n] - vec).max() <= 1e-12


def test_evolve_preserves_norm_and_projections():
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.1)
    spectra = sector_spectra(params, lat)
    proj = droplet_projector(params, lat, auto_window(params))
    rng = np.random.default_rng(5)
    psi = random_droplet_state(proj, rng)
    for t in (0.5, 3.0, 50.0):
        out = evolve(spectra, psi, t)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)
        for n, vec in psi.parts.items():
            assert np.vdot(out.parts[n], out.parts[n]).real == pytest.approx(
                float(np.vdot(vec, vec).real), abs=1e-10
            )


def test_evolve_eigenvector_is_pure_phase():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.2)
    spectra = sector_spectra(params, lat)
    n = 2
    lam = spectra[n].eigenvalues[0]
    psi = from_amplitudes(lat, {})
    psi.parts[n] = spectra[n].eigenvectors[:, 0]
    out = evolve(spectra, psi, 2.5)
    expected = np.exp(-1j * lam * 2.5) * spectra[n].eigenvectors[:, 0]
    assert np.abs(out.parts[n] - expected).max() <= 1e-12


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_evolve_in_window_eigenpairs_matches_full_spectra(L):
    lat = Lattice(L)
    params = ModelParams(delta_inv=0.1)
    spectra = sector_spectra(params, lat)
    proj = droplet_projector(params, lat, auto_window(params))
    rng = np.random.default_rng(L)
    for _ in range(3):
        psi = random_droplet_state(proj, rng)
        for t in (0.0, 1.0, 10.0, 100.0):
            windowed = evolve(proj.selections, psi, t)
            full = evolve(spectra, psi, t)
            assert windowed.parts.keys() == full.parts.keys()
            for n, vec in full.parts.items():
                assert np.abs(windowed.parts[n] - vec).max() <= 1e-12


def test_evolve_in_window_eigenpairs_rejects_state_outside_their_span():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.1)
    proj = droplet_projector(params, lat, auto_window(params))
    outside = from_amplitudes(lat, {(-2, 0): 1.0})  # two clusters, far above the window
    with pytest.raises(NumericError):
        evolve(proj.selections, outside, 1.0)


def test_evolve_rejects_unnormalized():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.2)
    spectra = sector_spectra(params, lat)
    bad = from_amplitudes(lat, {(0,): 0.5})
    with pytest.raises(DomainError):
        evolve(spectra, bad, 1.0)


def test_droplet_selections_are_unit_in_window_eigenpairs():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.1)
    proj = droplet_projector(params, lat, auto_window(params))
    assert sum(len(sel.eigenvalues) for sel in proj.selections.values()) == proj.rank
    for n, sel in proj.selections.items():
        assert sel.eigenvectors.shape == (len(enumerate_sector(lat, n)), len(sel.eigenvalues))
        for j, lam in enumerate(sel.eigenvalues):
            assert np.linalg.norm(sel.eigenvectors[:, j]) == pytest.approx(1.0, abs=1e-12)
            assert 0.0 - 1e-12 <= lam <= proj.window.e_max + 1e-12
