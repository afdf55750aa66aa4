"""The sup estimator's stop rule against the fixed-step ascent it shortens.

`droplet_sup_entropy` ends its coordinate ascent once `total` consecutive
steps (one per direction) have gained nothing.  Every later step would
rebuild the candidates of a step that already failed from the same point, so
the estimate must equal, bit for bit, what running all `ascent_steps` steps
gives.  The reference here is a copy of the fixed-step batched estimator:
its sector phase evaluates the one-sector candidates by their charge blocks
(`_sector_spectra`), as the estimator does, and its ascent decomposes the
full stack.
"""

import numpy as np
import pytest

from droplet_lab.configspace import Lattice
from droplet_lab.disorder import DisorderSpec, draw_field
from droplet_lab.entanglement import (
    _renyi_rows,
    _schmidt_rows,
    _sector_spectra,
    _window_stack,
    _with_random,
    centered_block,
    droplet_sup_entropy,
)
from droplet_lab.hamiltonian import ModelParams
from droplet_lab.spectral import auto_window, droplet_projector

ALPHAS = (0.0, 0.5, 1.0, 2.0)


def fixed_step_sup(projector, part, alpha, rng, n_random=64, ascent_steps=20):
    """(value, eigenstate max, candidates, steps that gained) of the fixed-step ascent."""
    vectors = {n: sel.eigenvectors for n, sel in projector.selections.items()}
    stack, layout = _window_stack(projector.lattice, part, vectors)
    total = len(stack)
    if total == 0:
        return 0.0, 0.0, 0, []
    best_val, best_coeff, eigen_max, candidates = -np.inf, None, 0.0, 0
    for n, (lo, hi) in zip(sorted(vectors), layout):
        if hi == lo:
            continue
        coeffs = _with_random(hi - lo, n_random, rng)
        lam = _sector_spectra(projector.lattice, part.sites, n, vectors[n], coeffs)
        values = _renyi_rows(lam, alpha)
        candidates += len(values)
        eigen_max = max(eigen_max, float(values[: hi - lo].max()))
        k = int(np.argmax(values))
        if values[k] > best_val:
            best_val = values[k]
            best_coeff = np.zeros(total)
            best_coeff[lo:hi] = coeffs[k]
    directions = rng.permutation(total)
    angles = np.array([0.3, -0.3, 0.1, -0.1])
    gains = []
    for step in range(ascent_steps):
        coeffs = np.outer(np.cos(angles), best_coeff)
        coeffs[:, int(directions[step % total])] += np.sin(angles)
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        values = _renyi_rows(_schmidt_rows(np.tensordot(coeffs, stack, axes=1)), alpha)
        candidates += len(values)
        better = np.flatnonzero(values > best_val)
        if better.size:
            best_val, best_coeff = values[better[0]], coeffs[better[0]]
            gains.append(step)
    return float(best_val), float(eigen_max), candidates, gains


def steps_before_stall(gains, total, ascent_steps):
    """Steps run until `total` consecutive steps have gained nothing, capped."""
    stalled = 0
    for step in range(ascent_steps):
        if stalled == total:
            return step
        stalled = 0 if step in gains else stalled + 1
    return ascent_steps


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


# Seeded fields at L = 3..5 (window ranks 2 to 5), the clean chain at L = 3
# and L = 4 (ranks 29 and 46, above the 20-step cap), and a constant field of
# 2.0 that leaves the vacuum alone in the window (rank 1).
CASES = [(3, 0), (3, 11), (4, 2), (4, 5), (5, 3), (5, 8), (3, None), (4, None), (4, 2.0)]


def _compare(L, field, alpha, n_random, ascent_steps):
    lattice, projector = _projector(L, field)
    stopped = 0
    for size in range(1, lattice.size):
        part = centered_block(lattice, size)
        rng_new = np.random.default_rng(10 * size + L)
        rng_old = np.random.default_rng(10 * size + L)
        estimate = droplet_sup_entropy(
            projector, part, alpha, rng_new, n_random=n_random, ascent_steps=ascent_steps
        )
        value, eigen_max, candidates, gains = fixed_step_sup(
            projector, part, alpha, rng_old, n_random=n_random, ascent_steps=ascent_steps
        )
        assert estimate.value == value
        assert estimate.eigenstate_max == eigen_max
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        steps = steps_before_stall(gains, projector.rank, ascent_steps)
        assert estimate.candidates == candidates - 4 * (ascent_steps - steps)
        stopped += steps < ascent_steps
    return projector.rank, stopped


@pytest.mark.parametrize("L,field", CASES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_stop_rule_matches_fixed_step_ascent(L, field, alpha):
    rank, stopped = _compare(L, field, alpha, n_random=16, ascent_steps=20)
    if rank > 20:
        # A full sweep needs more steps than the cap: the ascent never stops early.
        assert stopped == 0
    else:
        assert stopped > 0


def test_rank_one_window_stops_after_one_step():
    lattice, projector = _projector(4, 2.0)
    assert projector.rank == 1
    estimate = droplet_sup_entropy(
        projector, centered_block(lattice, 3), 1.0, np.random.default_rng(0), ascent_steps=20
    )
    # One eigenvector (no random rows), then one ascent step of four angles.
    assert estimate.value == 0.0
    assert estimate.candidates == 1 + 4
