"""Tests of the benchmark's own checks and of its span arithmetic."""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
from droplet_lab import Lattice, ModelParams, assemble_full_oracle, from_amplitudes, renyi_entropy
from droplet_lab.entanglement import Bipartition, matricize
from tracer import Tracer, layer_metrics, self_times


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("delta_inv", [0.0, 0.3])
def test_bitmask_assembler_matches_full_oracle(L, delta_inv):
    N = 2 * L + 1
    field = np.random.default_rng(L).uniform(0.0, 2.0, N)
    params = ModelParams(delta_inv, field={u: float(field[u + L]) for u in range(-L, L + 1)})
    full = assemble_full_oracle(params, Lattice(L))
    for n in range(N + 1):
        configs = checks.sector_configs(N, n)
        H = checks.sector_matrix(N, n, delta_inv, 0.5 * (1.0 - delta_inv), field)
        np.testing.assert_allclose(H, full[np.ix_(configs, configs)], atol=1e-13)


def test_inertia_count_matches_eigvalsh():
    rng = np.random.default_rng(0)
    matrices = [checks.sector_matrix(7, n, 0.4, 0.3, rng.uniform(0, 2, 7)) for n in range(8)]
    for dim in (1, 2, 5, 40):
        a = rng.standard_normal((dim, dim))
        matrices.append(a + a.T)
        matrices.append(np.kron(np.eye(dim), [[0.0, 1.0], [1.0, 0.0]]))  # forces 2x2 pivots
    for H in matrices:
        w = np.linalg.eigvalsh(H)
        for sigma in (-0.7, 0.0, 0.45, 1.3):
            if np.min(np.abs(w - sigma)) > 1e-9:
                assert checks.count_below(H, sigma) == int(np.sum(w < sigma))


def test_block_entropy_matches_program_entropy():
    L, N = 2, 5
    lattice = Lattice(L)
    configs = checks.sector_configs(N, 2)
    vector = np.random.default_rng(1).standard_normal(len(configs))
    vector /= np.linalg.norm(vector)
    sites = [[u - L for u in range(N) if c >> (N - 1 - u) & 1] for c in configs]
    psi = from_amplitudes(lattice, {tuple(s): a for s, a in zip(sites, vector)})
    for lo, hi in ((-1, 0), (-2, 1), (0, 2)):
        block = list(range(lo + L, hi + L + 1))
        for alpha in (0.0, 1.0, 2.0):
            expected = renyi_entropy(matricize(psi, Bipartition(lattice, lo, hi)), alpha).value
            assert checks.block_entropy(vector, configs, N, block, alpha) == pytest.approx(expected, abs=1e-12)


def test_self_time_is_duration_minus_child_coverage():
    #        0: [0, 10]
    #   1: [1, 3]   2: [2, 5]   3: [7, 12] (runs past its parent's end)
    #   4: [1.5, 2.5] child of 1, so it does not count against span 0
    start = [0.0, 1.0, 2.0, 7.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent, [0, 1, 2, 4])
    assert got[0] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 7.0))
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_tracer_records_nesting():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner_traced = tracer.wrap("m.inner", inner)
    outer_traced = tracer.wrap("m.outer", lambda x: inner_traced(inner_traced(x)))
    assert outer_traced(1) == 3
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.start[2] <= tracer.end[2] <= tracer.end[0]


def test_layer_metrics_count_work_and_split_cache_hits():
    tracer = Tracer()
    eigensolve = tracer.wrap("spectral.eigensolve", lambda dim: SimpleNamespace(dim=dim))
    projector = tracer.wrap(
        "spectral.droplet_projector",
        lambda: [eigensolve(3), eigensolve(4), SimpleNamespace(rank=2, n_max=1)][-1],
    )
    pipeline = tracer.wrap("pipelines.area_law_pipeline", lambda: projector())
    run = tracer.wrap("cli.run", lambda hit: None if hit else pipeline())
    run(False)
    run(True)
    metrics = {k: v for k, (v, _) in layer_metrics(tracer, rounds=1).items()}
    assert metrics["spectral.eigensolve.calls"] == 2
    assert metrics["spectral.eigensolve.flops_computed"] == 3**3 + 4**3
    assert metrics["spectral.window_yield.base"] == 7
    assert metrics["spectral.window_yield"] == pytest.approx(2 / 7)
    runs = [i for i, n in enumerate(tracer.name_id) if tracer.names[n] == "cli.run"]
    miss, hit = (tracer.end[i] - tracer.start[i] for i in runs)
    assert metrics["cli.run.miss_s"] == pytest.approx(miss)
    assert metrics["cli.run.hit_s"] == pytest.approx(hit)
    assert metrics["pipelines.area_law_pipeline.s"] <= miss
