"""The batched Schmidt-spectrum kernel against the per-candidate path it replaces.

`droplet_sup_entropy` and `entropy_scan` stack the matricized window vectors
once per block and evaluate their candidates in batches.  The reference here
is a copy of the earlier path: one `AmplitudeMap`, one `matricize` and one
`renyi_entropy` per candidate, drawing from the generator in the same order.
"""

import numpy as np
import pytest

from droplet_lab import entanglement
from droplet_lab.configspace import Lattice
from droplet_lab.disorder import DisorderSpec, draw_field
from droplet_lab.entanglement import (
    centered_block,
    droplet_sup_entropy,
    entropy_scan,
    matricize,
    renyi_entropy,
)
from droplet_lab.errors import NumericError
from droplet_lab.hamiltonian import ModelParams
from droplet_lab.spectral import auto_window, droplet_projector
from droplet_lab.states import AmplitudeMap

ALPHAS = (0.0, 0.5, 1.0, 2.0)


def _entropy_of(projector, coeff, layout, part, alpha):
    parts = {}
    for (n, sel), (lo, hi) in layout:
        block = coeff[lo:hi]
        if np.any(block != 0):
            parts[n] = sel.eigenvectors @ block
    psi = AmplitudeMap(projector.lattice, parts)
    return renyi_entropy(matricize(psi, part), alpha).value


def reference_sup(projector, part, alpha, rng, n_random=64, ascent_steps=20):
    """(value, eigenstate max) of the per-candidate estimator."""
    layout = []
    offset = 0
    for n, sel in sorted(projector.selections.items()):
        m = sel.eigenvectors.shape[1]
        layout.append(((n, sel), (offset, offset + m)))
        offset += m
    total = offset
    if total == 0:
        return 0.0, 0.0
    best_val, best_coeff, eigen_max = -np.inf, None, 0.0
    for _, (lo, hi) in layout:
        for j in range(hi - lo):
            coeff = np.zeros(total)
            coeff[lo + j] = 1.0
            val = _entropy_of(projector, coeff, layout, part, alpha)
            eigen_max = max(eigen_max, val)
            if val > best_val:
                best_val, best_coeff = val, coeff
        m = hi - lo
        if m < 2:
            continue
        for _ in range(n_random):
            coeff = np.zeros(total)
            block = rng.standard_normal(m)
            coeff[lo:hi] = block / np.linalg.norm(block)
            val = _entropy_of(projector, coeff, layout, part, alpha)
            if val > best_val:
                best_val, best_coeff = val, coeff
    directions = rng.permutation(total)
    for step in range(ascent_steps):
        unit = np.zeros(total)
        unit[int(directions[step % total])] = 1.0
        for theta in (0.3, -0.3, 0.1, -0.1):
            coeff = np.cos(theta) * best_coeff + np.sin(theta) * unit
            coeff = coeff / np.linalg.norm(coeff)
            val = _entropy_of(projector, coeff, layout, part, alpha)
            if val > best_val:
                best_val, best_coeff = val, coeff
                break
    return float(best_val), float(eigen_max)


def reference_scan_maxima(projector, lattice, sizes, alphas, seed, n_random):
    """{(size, n, alpha): max entropy} of the per-candidate scan."""
    out = {}
    for size in sizes:
        part = centered_block(lattice, size)
        for n, sel in sorted(projector.selections.items()):
            m = sel.eigenvectors.shape[1]
            if m == 0:
                continue
            rng = np.random.default_rng(np.random.SeedSequence((seed, size, n)))
            vectors = [sel.eigenvectors[:, j] for j in range(m)]
            for _ in range(n_random if m > 1 else 0):
                block = rng.standard_normal(m)
                vectors.append(sel.eigenvectors @ (block / np.linalg.norm(block)))
            for alpha in alphas:
                out[size, n, alpha] = max(
                    renyi_entropy(matricize(AmplitudeMap(lattice, {n: v}), part), alpha).value
                    for v in vectors
                )
    return out


def _projector(L, seed):
    """Window projector of a seeded uniform field, or of the clean chain for seed None."""
    lattice = Lattice(L)
    params = ModelParams(delta_inv=0.1)
    if seed is not None:
        values = draw_field(DisorderSpec.uniform(0.0, 2.0, 1, seed), 0, lattice)
        params = params.with_field({s: float(values[s + L]) for s in lattice.sites})
    return lattice, droplet_projector(params, lattice, auto_window(params))


PROJECTORS = [(3, 0), (3, 11), (3, None), (4, 0), (4, 5), (4, None)]


@pytest.mark.parametrize("L,seed", PROJECTORS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_sup_matches_per_candidate_path(L, seed, alpha):
    lattice, projector = _projector(L, seed)
    assert projector.rank > 1
    for size in range(2, lattice.size - 1):
        part = centered_block(lattice, size)
        rng_new = np.random.default_rng(10 * size + L)
        rng_old = np.random.default_rng(10 * size + L)
        estimate = droplet_sup_entropy(projector, part, alpha, rng_new, n_random=16, ascent_steps=12)
        value, eigen_max = reference_sup(projector, part, alpha, rng_old, n_random=16, ascent_steps=12)
        assert estimate.value == pytest.approx(value, abs=1e-12)
        assert estimate.eigenstate_max == pytest.approx(eigen_max, abs=1e-12)
        # Equal draws: the generators continue in step.
        assert rng_new.random() == rng_old.random()


def test_sup_counts_every_evaluated_candidate():
    lattice, projector = _projector(3, 0)
    sizes = [len(sel.eigenvalues) for _, sel in sorted(projector.selections.items())]
    estimate = droplet_sup_entropy(
        projector, centered_block(lattice, 3), 1.0, np.random.default_rng(0), n_random=5, ascent_steps=7
    )
    expected = sum(m + (5 if m > 1 else 0) for m in sizes) + 4 * 7
    assert estimate.candidates == expected


@pytest.mark.parametrize("L,seed", PROJECTORS)
def test_scan_matches_per_candidate_path(L, seed):
    lattice, projector = _projector(L, seed)
    params = ModelParams(delta_inv=0.1)
    sizes = tuple(range(2, lattice.size - 1))
    scan = entropy_scan(
        params, lattice, projector.window, sizes, ALPHAS, seed=3, n_random=16, projector=projector
    )
    reference = reference_scan_maxima(projector, lattice, sizes, ALPHAS, seed=3, n_random=16)
    got = {(r.block_size, r.n, r.alpha): r.max_entropy for r in scan.rows}
    assert got.keys() == reference.keys()
    for key, value in reference.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


def test_non_orthonormal_stack_raises():
    lattice, projector = _projector(3, 0)
    stack, layout = entanglement._window_stack(
        lattice,
        centered_block(lattice, 3),
        {n: sel.eigenvectors for n, sel in projector.selections.items()},
    )
    coeffs = np.eye(len(stack))
    entanglement._candidate_spectra(stack, coeffs)  # orthonormal: accepted
    with pytest.raises(NumericError):
        entanglement._candidate_spectra(1.001 * stack, coeffs)
    skewed = stack.copy()
    skewed[1] += 1e-3 * stack[0]
    with pytest.raises(NumericError):
        entanglement._candidate_spectra(skewed, np.full((1, len(stack)), len(stack) ** -0.5))
