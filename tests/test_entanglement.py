"""Matricization, Renyi family, bound checks and the sup estimator."""

import itertools
import math

import numpy as np
import pytest
from loop_oracle import renyi_from_spectrum, subset_index

from droplet_lab.configspace import Lattice
from droplet_lab.entanglement import (
    Bipartition,
    centered_block,
    droplet_sup_entropy,
    entropy_scan,
    fit_log_bound,
    hartley_bound_check,
    matricize,
    matricize_sites,
    renyi_entropy,
)
from droplet_lab.errors import DomainError
from droplet_lab.hamiltonian import ModelParams
from droplet_lab.spectral import auto_window, droplet_projector
from droplet_lab.states import (
    from_amplitudes,
    random_state_on_configs,
    uniform_cluster_state,
)


def basis_state(lattice, x):
    return from_amplitudes(lattice, {tuple(x): 1.0})


def reduced_density_oracle(psi, part, rows):
    """Entrywise partial trace: rho(x, y) = sum_z conj(psi(x u z)) psi(y u z)."""
    inside = set(part.sites)
    outside = [s for s in psi.lattice.sites if s not in inside]
    cols = []
    for k in range(len(outside) + 1):
        cols.extend(itertools.combinations(outside, k))

    def amp(x, z):
        return psi.amplitude(tuple(sorted(x + z)))

    rho = np.zeros((len(rows), len(rows)), dtype=complex)
    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            rho[i, j] = sum(np.conj(amp(x, z)) * amp(y, z) for z in cols)
    return rho


def test_bipartition_validation():
    lat = Lattice(3)
    part = Bipartition(lat, -1, 1)
    assert part.size == 3
    assert part.boundary_size == 2
    assert Bipartition(lat, -3, 0).boundary_size == 1
    with pytest.raises(DomainError):
        Bipartition(lat, -3, 3)
    with pytest.raises(DomainError):
        Bipartition(lat, 2, 5)


def test_matricize_vacuum():
    lat = Lattice(2)
    psi = basis_state(lat, ())
    m = matricize(psi, Bipartition(lat, -2, 0))
    assert np.count_nonzero(m.matrix) == 1
    assert renyi_entropy(m, 0.0).value == pytest.approx(0.0)


def test_matricize_single_particle_split():
    lat = Lattice(1)
    psi = from_amplitudes(lat, {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
    m = matricize(psi, Bipartition(lat, -1, 0))
    values = sorted(abs(v) for v in m.matrix.ravel() if v != 0)
    assert values == pytest.approx([1 / math.sqrt(2)] * 2)
    report = renyi_entropy(m, 1.0)
    assert report.value == pytest.approx(math.log(2), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_schmidt_values_sum_to_one(seed):
    lat = Lattice(3)
    rng = np.random.default_rng(seed)
    configs = [c for n in range(3) for c in itertools.combinations(lat.sites, n)]
    psi = random_state_on_configs(lat, configs, rng, complex_amplitudes=bool(seed % 2))
    m = matricize(psi, Bipartition(lat, -3, 0))
    lam = np.linalg.svd(m.matrix, compute_uv=False) ** 2
    assert lam.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_partial_trace_oracle_matches_matricization(L, seed):
    lat = Lattice(L)
    rng = np.random.default_rng(seed)
    configs = [c for n in range(lat.size + 1) for c in itertools.combinations(lat.sites, n)]
    psi = random_state_on_configs(lat, configs, rng, complex_amplitudes=True)
    part = Bipartition(lat, -L, 0)
    m = matricize(psi, part)
    rows, _ = subset_index(part.sites)
    rho = reduced_density_oracle(psi, part, rows)
    direct = m.matrix.conj() @ m.matrix.T
    assert np.abs(rho - direct).max() <= 1e-12
    eig = np.sort(np.linalg.eigvalsh(rho))[::-1]
    lam = np.sort(np.linalg.svd(m.matrix, compute_uv=False) ** 2)[::-1]
    assert np.abs(eig[: len(lam)] - lam).max() <= 1e-12


def test_renyi_entropy_alpha_family():
    lat = Lattice(1)
    psi = from_amplitudes(lat, {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
    m = matricize(psi, Bipartition(lat, -1, 0))
    s1 = renyi_entropy(m, 1.0)
    assert s1.value == pytest.approx(math.log(2), abs=1e-12)
    s0 = renyi_entropy(m, 0.0)
    assert s0.value == pytest.approx(math.log(2), abs=1e-12)
    s2 = renyi_entropy(m, 2.0)
    assert s2.value == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(DomainError):
        renyi_entropy(m, -0.5)


def test_renyi_monotonicity_and_hartley_dominance():
    lat = Lattice(3)
    rng = np.random.default_rng(11)
    configs = [c for n in range(4) for c in itertools.combinations(lat.sites, n)]
    alphas = (0.0, 0.25, 0.5, 1.0, 2.0, 64.0)
    for _ in range(20):
        psi = random_state_on_configs(lat, configs, rng)
        m = matricize(psi, Bipartition(lat, -1, 1))
        values = [renyi_entropy(m, a).value for a in alphas]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9
        assert all(v <= values[0] + 1e-9 for v in values)


def test_hartley_ceiling():
    lat = Lattice(3)
    rng = np.random.default_rng(3)
    configs = [c for n in range(lat.size + 1) for c in itertools.combinations(lat.sites, n)]
    for lo, hi in ((-3, -1), (-1, 1), (0, 3)):
        part = Bipartition(lat, lo, hi)
        smaller = min(part.size, lat.size - part.size)
        for _ in range(10):
            psi = random_state_on_configs(lat, configs, rng)
            s0 = renyi_entropy(matricize(psi, part), 0.0).value
            assert s0 <= smaller * math.log(2) + 1e-9


@pytest.mark.parametrize("L", [2, 3, 4])
def test_complement_side_entropy_agreement(L):
    # Both sides of the cut share their nonzero Schmidt spectra.
    lat = Lattice(L)
    rng = np.random.default_rng(L)
    configs = [c for n in range(lat.size + 1) for c in itertools.combinations(lat.sites, n)]
    part = Bipartition(lat, -1, 1)
    for _ in range(100):
        psi = random_state_on_configs(lat, configs, rng)
        inside = renyi_entropy(matricize(psi, part), 1.0)
        outside = renyi_entropy(matricize_sites(psi, part.complement_sites), 1.0)
        assert outside.value == pytest.approx(inside.value, abs=1e-9)
        k = min(len(inside.schmidt_spectrum), len(outside.schmidt_spectrum))
        assert np.abs(inside.schmidt_spectrum[:k] - outside.schmidt_spectrum[:k]).max() <= 1e-10
        assert inside.schmidt_spectrum[k:].max(initial=0.0) <= 1e-10
        assert outside.schmidt_spectrum[k:].max(initial=0.0) <= 1e-10


def test_complement_side_entropy_vacuum():
    lat = Lattice(2)
    psi = basis_state(lat, ())
    part = Bipartition(lat, -2, 0)
    for m in (matricize(psi, part), matricize_sites(psi, part.complement_sites)):
        report = renyi_entropy(m, 1.0)
        assert report.value == 0.0
        assert report.rank == 1


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("complex_amplitudes", [False, True])
def test_renyi_entropy_equals_the_per_state_formula(L, complex_amplitudes):
    # renyi_entropy reads its value through the batched `_renyi_rows`; the
    # formula it replaced must give the same value and rank, bit for bit.
    lat = Lattice(L)
    rng = np.random.default_rng(100 * L + complex_amplitudes)
    configs = [c for n in range(lat.size + 1) for c in itertools.combinations(lat.sites, n)]
    blocks = [
        Bipartition(lat, lo, hi)
        for lo in lat.sites
        for hi in range(lo, L + 1)
        if (lo, hi) != (-L, L)
    ]
    # Full support, then small random supports, where low ranks and zero
    # Schmidt values occur.
    for size in (len(configs), *rng.integers(1, 6, size=3)):
        support = [configs[i] for i in rng.choice(len(configs), size, replace=False)]
        psi = random_state_on_configs(lat, support, rng, complex_amplitudes=complex_amplitudes)
        for part in blocks:
            m = matricize(psi, part)
            for alpha in (0.0, 0.5, 1.0, 2.0):
                report = renyi_entropy(m, alpha)
                assert (report.value, report.rank) == renyi_from_spectrum(m.matrix, alpha)


def test_matricize_sites_disconnected_complement():
    # Rows on the two-piece complement of an interior block: the transposed
    # arrangement carries the same singular values.
    lat = Lattice(2)
    rng = np.random.default_rng(8)
    configs = [c for n in range(3) for c in itertools.combinations(lat.sites, n)]
    psi = random_state_on_configs(lat, configs, rng)
    part = Bipartition(lat, -1, 1)
    direct = np.linalg.svd(matricize(psi, part).matrix, compute_uv=False)
    swapped = np.linalg.svd(
        matricize_sites(psi, part.complement_sites).matrix, compute_uv=False
    )
    assert np.allclose(
        np.sort(direct)[::-1][: len(swapped)], np.sort(swapped)[::-1][: len(direct)],
        atol=1e-12,
    )


def test_uniform_two_cluster_rank_edge_block():
    # Block [-4, 0] meets the lattice edge: one boundary bond, rank 1*(n-1)+2.
    lat = Lattice(4)
    psi = uniform_cluster_state(lat, 2)
    report = renyi_entropy(matricize(psi, Bipartition(lat, -4, 0)), 0.0)
    assert report.rank == 3
    assert report.value == pytest.approx(math.log(3), abs=1e-12)


def test_uniform_two_cluster_rank_interior_block():
    # Interior block: two boundary bonds, rank 2(n-1)+2.
    lat = Lattice(4)
    psi = uniform_cluster_state(lat, 2)
    report = renyi_entropy(matricize(psi, Bipartition(lat, -2, 1)), 0.0)
    assert report.rank == 4
    assert report.value == pytest.approx(math.log(4), abs=1e-12)


def test_hartley_bound_check_vacuum():
    lat = Lattice(3)
    psi = basis_state(lat, ())
    report = hartley_bound_check(psi, Bipartition(lat, -3, 0))
    assert report.value == pytest.approx(0.0)
    # One boundary bond for an edge-touching block of four sites.
    assert report.boundary_bound == pytest.approx(math.log(6))
    assert report.boundary_bound >= math.log(3)


def test_hartley_bound_check_three_cluster_edge_block():
    lat = Lattice(4)
    psi = uniform_cluster_state(lat, 3)
    report = hartley_bound_check(psi, Bipartition(lat, -4, 0), n=3)
    assert report.particle_bound == pytest.approx(math.log(7))
    assert report.value <= report.particle_bound + 1e-12


def test_hartley_bound_check_rejects_nonclustered_support():
    lat = Lattice(2)
    psi = from_amplitudes(lat, {(-2, 2): 1.0})
    with pytest.raises(DomainError):
        hartley_bound_check(psi, Bipartition(lat, -2, 0))


def test_outer_boundary_witness_slack_shrinks():
    # Clusters meeting the block plus one site of margin realize rank 2n
    # (block sizes small enough that an all-outside cluster still fits), so
    # the slack under the bound ln(2n+1) shrinks as the block grows.
    lat = Lattice(6)
    slacks = []
    for size in (2, 3, 4):
        part = centered_block(lat, size)
        psi = uniform_cluster_state(lat, size, window=(part.lo - 1, part.hi + 1))
        report = hartley_bound_check(psi, part, n=size)
        assert report.slack == pytest.approx(math.log((2 * size + 1) / (2 * size)), abs=1e-9)
        slacks.append(report.slack)
    assert slacks[0] > slacks[1] > slacks[2]


def test_droplet_sup_estimator_bounds():
    lat = Lattice(4)
    params = ModelParams(delta_inv=0.1)
    proj = droplet_projector(params, lat, auto_window(params))
    part = centered_block(lat, 3)
    rng = np.random.default_rng(0)
    estimate = droplet_sup_entropy(proj, part, 1.0, rng, n_random=16, ascent_steps=8)
    assert estimate.value >= estimate.eigenstate_max - 1e-12
    ceiling = min(part.size, lat.size - part.size) * math.log(2)
    assert estimate.value <= ceiling + 1e-9


def test_droplet_sup_estimator_empty_family():
    lat = Lattice(2)
    params = ModelParams(delta_inv=0.1)
    proj = droplet_projector(
        params, lat, auto_window(params), n_max=0, override_window_check=True
    )
    # Strip the vacuum by selecting an empty window.
    from droplet_lab.spectral import DropletWindow

    empty = droplet_projector(
        ModelParams(delta_inv=0.1, field={s: 5.0 for s in lat.sites}),
        lat,
        DropletWindow(1e-6),
        override_window_check=True,
    )
    assert empty.rank == 1  # vacuum survives any field
    del proj


def test_entropy_scan_rows_and_ground_state():
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.1)
    window = auto_window(params)
    scan = entropy_scan(params, lat, window, (2, 3), (0.0, 1.0), seed=1, n_random=8)
    by_key = {(r.block_size, r.n, r.alpha): r.max_entropy for r in scan.rows}
    assert by_key[(2, 0, 1.0)] == pytest.approx(0.0)  # ground state row
    for (b, n, alpha), v in by_key.items():
        if alpha == 1.0:
            assert v <= by_key[(b, n, 0.0)] + 1e-9


def test_fit_log_bound_recovers_exact_model():
    s = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    y = 1.3 * np.log(1.0 + 2.0 * s)
    fit = fit_log_bound(s, y)
    assert fit.max_residual <= 1e-6
    assert fit.envelope(3.0) >= y[3] - 1e-9


def test_ising_scan_respects_hartley_ceiling():
    # At the diagonal point the windowed family is spanned by clusters, so
    # the scanned maxima sit below ln(2 min(n, |B|) + 1) + margin.
    lat = Lattice(3)
    params = ModelParams(delta_inv=0.0)
    from droplet_lab.spectral import DropletWindow

    scan = entropy_scan(
        params, lat, DropletWindow(1.5), (2, 3), (1.0,), seed=0, n_random=64,
        projector=droplet_projector(params, lat, DropletWindow(1.5), override_window_check=True),
    )
    for r in scan.rows:
        s = min(r.n, r.block_size)
        assert r.max_entropy <= math.log(2 * s + 1) + 0.1
