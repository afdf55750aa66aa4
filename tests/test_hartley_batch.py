"""The batched Hartley check against the per-state check it replaces.

`ising_entropy_pipeline` checks every random cluster-supported state on every
block with `hartley_bound_batch`: one matricized stack and one batched SVD
per block.  `_per_state_rows` below is the pipeline's former loop, one
`hartley_bound_check` per state and block; the rows must agree exactly.
`hartley_bound_check` itself runs the batch on one state, so each of its
values is also held to the single-state `renyi_entropy(matricize(.), 0)`.
"""

import math

import numpy as np
import pytest

from droplet_lab.configspace import Lattice, all_cluster_configs
from droplet_lab.entanglement import (
    Bipartition,
    hartley_bound_batch,
    hartley_bound_check,
    matricize,
    renyi_entropy,
)
from droplet_lab.errors import DomainError
from droplet_lab.pipelines import ising_entropy_pipeline
from droplet_lab.states import from_amplitudes, random_state_on_configs


def _support(lattice):
    support = [()]
    for n in range(1, lattice.size + 1):
        support.extend(all_cluster_configs(lattice, n))
    return support


def _blocks(lattice):
    return [
        Bipartition(lattice, lo, hi)
        for lo in lattice.sites
        for hi in range(lo, lattice.L + 1)
        if not (lo == -lattice.L and hi == lattice.L)
    ]


def _per_state_rows(L, n_states, seed):
    lattice = Lattice(L)
    support = _support(lattice)
    rows = []
    for j in range(n_states):
        rng = np.random.default_rng(np.random.SeedSequence((seed, j)))
        psi = random_state_on_configs(lattice, support, rng)
        worst = None
        for part in _blocks(lattice):
            report = hartley_bound_check(psi, part)
            assert report.value == renyi_entropy(matricize(psi, part), 0.0).value
            if worst is None or report.slack < worst[0]:
                worst = (report.slack, part, report.value, report.boundary_bound)
        slack, part, value, bound = worst
        rows.append(("random", j, part.lo, part.hi, value, bound, slack))
    return rows


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("seed", [0, 7])
def test_pipeline_rows_equal_the_per_state_loop(L, seed):
    n_states = 40
    result = ising_entropy_pipeline(L, n_states=n_states, seed=seed, witness_ns=(2, 3))
    expected = _per_state_rows(L, n_states, seed)
    got = [row for row in result.table.rows if row[0] == "random"]
    assert got == expected
    assert all(type(v) is float for row in got for v in row[4:])
    assert result.values["min_slack"] == min(row[6] for row in expected)


def test_batch_values_equal_per_state_values_on_complex_states():
    lattice = Lattice(2)
    rng = np.random.default_rng(3)
    states = [
        random_state_on_configs(lattice, _support(lattice), rng, complex_amplitudes=True)
        for _ in range(5)
    ]
    blocks = _blocks(lattice)
    values, bounds = hartley_bound_batch(states, blocks)
    for j, psi in enumerate(states):
        for b, part in enumerate(blocks):
            report = hartley_bound_check(psi, part)
            assert values[j, b] == report.value
            assert values[j, b] == renyi_entropy(matricize(psi, part), 0.0).value
            assert bounds[b] == report.boundary_bound


def test_multi_cluster_support_raises_the_per_state_error():
    lattice = Lattice(3)
    rng = np.random.default_rng(0)
    clean = random_state_on_configs(lattice, _support(lattice), rng)
    amplitude = 1.0 / math.sqrt(2.0)
    split = from_amplitudes(lattice, {(-2, 0): amplitude, (-1, 0): amplitude})
    blocks = _blocks(lattice)
    with pytest.raises(DomainError) as per_state:
        hartley_bound_check(split, blocks[0])
    with pytest.raises(DomainError) as batched:
        hartley_bound_batch([clean, split, clean], blocks)
    assert str(batched.value) == str(per_state.value)
    assert "(-2, 0)" in str(batched.value)
