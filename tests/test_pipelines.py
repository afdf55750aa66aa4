"""Pipeline-level behavior at reduced desk scale."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

from droplet_lab import hamiltonian, pipelines, spectral
from droplet_lab.configspace import Lattice
from droplet_lab.disorder import TREND_TOL, DisorderSpec
from droplet_lab.errors import DomainError, VerificationError
from droplet_lab.hamiltonian import ModelParams
from droplet_lab.pipelines import (
    area_law_pipeline,
    ct_decay_pipeline,
    disorder_dos_pipeline,
    dos_bound_pipeline,
    droplet_band_pipeline,
    entropy_scan_pipeline,
    evolve_entropy_pipeline,
    ising_entropy_pipeline,
    spectrum_pipeline,
    sum_constants_pipeline,
    thresholds_pipeline,
)
from droplet_lab.spectral import ground_state_check, threshold_check


def test_spectrum_pipeline_verdicts():
    result = spectrum_pipeline(2, 0.2)
    assert result.verdicts["zero_mode_simple"]
    assert result.verdicts["oracle_equivalence"]
    assert result.values["oracle_max_deviation"] <= 1e-12
    assert result.table.columns == ("n", "index", "eigenvalue")
    assert len(result.table.rows) == 2**5


def test_spectrum_pipeline_skips_oracle_when_large():
    result = spectrum_pipeline(2, 0.2, oracle_max_sites=3)
    assert "oracle_equivalence" not in result.verdicts
    assert any("oracle" in note for note in result.notes)


def test_thresholds_pipeline():
    result = thresholds_pipeline(2, 0.3, ks=(1, 2), field_draws=1, seed=3)
    assert result.verdicts["threshold_margins_nonnegative"]
    assert result.values["worst_margin"] >= -1e-9
    labels = {row[0] for row in result.table.rows}
    assert labels == {"zero", "draw1"}


def test_ct_decay_pipeline_single_size():
    result = ct_decay_pipeline(0.1, 4, n_values=(2,), stability_L=None)
    assert result.verdicts["decay_rates_exceed_minimum"]
    assert "fit_stable_across_sizes" not in result.verdicts


def test_ct_decay_pipeline_with_stability():
    result = ct_decay_pipeline(0.1, 4, n_values=(2, 3), stability_L=5)
    assert result.verdicts["decay_rates_exceed_minimum"]
    assert result.verdicts["fit_stable_across_sizes"]
    assert result.values["worst_fit_change"] < 0.25


def test_dos_bound_pipeline():
    result = dos_bound_pipeline(0.1, 4)
    assert result.verdicts["amplitude_bounded_by_dos"]
    assert result.verdicts["dos_decay_rate_positive"]
    assert result.values["dos_decay_rate"] > 0.05
    assert result.values["worst_pointwise_violation"] <= 1e-12


def test_ising_entropy_pipeline():
    result = ising_entropy_pipeline(3, n_states=40, seed=2, witness_ns=(2, 3))
    assert result.verdicts["hartley_bounds_hold"]
    assert result.verdicts["witness_saturates_bound"]
    assert result.values["min_slack"] >= -1e-9
    kinds = {row[0] for row in result.table.rows}
    assert kinds == {"random", "witness"}


def test_entropy_scan_pipeline():
    result = entropy_scan_pipeline(0.1, 3, block_sizes=(2, 3), alphas=(0.0, 1.0), seed=0, n_random=8)
    assert result.verdicts["alpha_monotonicity"]
    assert result.verdicts["log_fit_residual_small"]
    assert "growth_sublinear" not in result.verdicts  # no size pair with ratio 2


def test_droplet_band_pipeline():
    result = droplet_band_pipeline(0.1, 5, n_list=(3, 4, 5))
    assert result.verdicts["band_width_shrinks"]
    assert result.verdicts["gap_increases"]
    assert result.verdicts["gap_saturates_near_limit"]


def test_disorder_dos_pipeline_trivial_support_flagged():
    spec = DisorderSpec.constant(0.0, 2, 0)
    result = disorder_dos_pipeline(0.0, 3, spec, probe_ns=(1, 2))
    assert "averaged_dos_decays" not in result.verdicts
    assert any("non-trivial" in note for note in result.notes)
    assert result.all_pass  # no verdicts failed; the run is merely flagged


def test_disorder_dos_pipeline_uniform():
    spec = DisorderSpec.uniform(0.0, 2.0, 40, 1)
    result = disorder_dos_pipeline(0.1, 3, spec, probe_ns=(1, 2, 3))
    assert result.verdicts["averaged_dos_decays"]


def test_disorder_dos_drops_a_probe_below_the_resolution_floor():
    # verify-all's draw at seed 917017: no sample of 60 gives the n=4 probe
    # in-window weight (mean 7e-12), and its log drove the fitted rate to 7.8.
    result = disorder_dos_pipeline(0.1, 4, DisorderSpec.uniform(0.0, 2.0, 60, 917017))
    means = dict(zip((row[0] for row in result.table.rows), (row[1] for row in result.table.rows)))
    assert means[4] < 1e-10
    assert any("probe n=4 left out of the fit" in note for note in result.notes)
    assert result.verdicts == {"averaged_dos_decays": True, "decay_rate_significant": True}
    assert 0.5 < result.values["decay_rate"] < 1.5


def test_area_law_pipeline_contrast():
    spec = DisorderSpec.uniform(0.0, 2.0, 8, 0)
    result = area_law_pipeline(
        0.1, 3, spec, block_sizes=(2, 3), contrast=True, n_random=8, ascent_steps=4
    )
    assert "averaged_sup_flat" in result.verdicts
    assert "deterministic_contrast_grows" in result.verdicts
    kinds = {row[0] for row in result.table.rows}
    assert kinds == {"uniform", "constant0"}
    assert result.values["zero_disorder_slope"] > result.values["trend_slope"]
    stderr = result.values["trend_slope_stderr"]
    assert stderr > 0
    underpowered = any("stderr" in note for note in result.notes)
    assert underpowered == (stderr > TREND_TOL / 2)


def test_sum_constants_pipeline():
    result = sum_constants_pipeline(mus=(1.0,), ns=(2,), b_lengths=(2,), L=4)
    assert result.verdicts["summability_bounds_hold"]
    assert result.verdicts["windows_stable"]
    checks = {row[0] for row in result.table.rows}
    assert checks == {"displacement", "straddling", "edge", "constant"}


def test_evolve_entropy_pipeline():
    result = evolve_entropy_pipeline(
        0.1, 3, times=(0.0, 2.0), n_states=2, block_sizes=(2, 3), seed=0, n_random=8
    )
    assert result.verdicts["dynamics_stay_below_envelope"]
    assert result.values["worst_headroom"] >= 0.0


def _count_eigensolves(monkeypatch):
    """Patch `eigensolve` in every package namespace; return the (full, windowed) tally."""
    import droplet_lab
    from droplet_lab import spectral

    original = spectral.eigensolve
    tally = {"full": 0, "windowed": 0}

    def counting(matrix, e_max=None):
        tally["full" if e_max is None else "windowed"] += 1
        return original(matrix, e_max)

    modules = [droplet_lab] + [
        importlib.import_module(f"droplet_lab.{info.name}")
        for info in pkgutil.iter_modules(droplet_lab.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        if getattr(module, "eigensolve", None) is original:
            monkeypatch.setattr(module, "eigensolve", counting)
    return tally


def test_droplet_band_solves_each_sector_once(monkeypatch):
    tally = _count_eigensolves(monkeypatch)
    result = droplet_band_pipeline(0.1, 5)
    assert tally == {"full": 4, "windowed": 0}
    assert [row[0] for row in result.table.rows] == [3, 4, 5, 6]
    for _, _, _, _, gap, deficit in result.table.rows:
        assert deficit == (1.0 - 0.1) - gap


def test_evolve_entropy_makes_no_full_solve(monkeypatch):
    tally = _count_eigensolves(monkeypatch)
    result = evolve_entropy_pipeline(0.1, 4)
    assert tally == {"full": 0, "windowed": 10}
    assert result.verdicts["dynamics_stay_below_envelope"]


def test_spectrum_pipeline_solves_each_sector_once(monkeypatch):
    reference = ground_state_check(ModelParams(0.1), Lattice(4))
    tally = _count_eigensolves(monkeypatch)
    result = spectrum_pipeline(4, 0.1)
    assert tally == {"full": 10, "windowed": 0}
    assert result.verdicts == {"zero_mode_simple": True, "oracle_equivalence": True}
    assert result.values["second_lowest_eigenvalue"] == reference.second_lowest


def _per_draw_threshold_rows(L, delta_inv, ks, field_draws, seed):
    """The former loop: one `threshold_check` per draw and k."""
    lattice = Lattice(L)
    rows = []
    for draw in range(field_draws + 1):
        field = None
        if draw:
            rng = np.random.default_rng(np.random.SeedSequence((seed, draw)))
            field = {s: float(rng.random()) for s in lattice.sites}
        for k in ks:
            margin = threshold_check(ModelParams(delta_inv, field=field), lattice, k)
            rows.append(("zero" if draw == 0 else f"draw{draw}", k, margin))
    return rows


def test_envelope_keeps_the_largest_value_per_distance():
    rng = np.random.default_rng(5)
    distances = rng.integers(0, 6, 200)
    values = rng.random(200)
    envelope = {}
    for d, v in zip(distances.tolist(), values.tolist()):
        envelope[d] = max(envelope.get(d, 0.0), v)
    assert pipelines._envelope(distances, values) == sorted(envelope.items())


def test_thresholds_pipeline_rejects_unreachable_cluster_counts():
    # Five sites hold at most three clusters (sites -2, 0, 2).
    assert thresholds_pipeline(2, 0.3, ks=(3,), field_draws=0).verdicts
    for ks in ((9,), (1, 4)):
        with pytest.raises(DomainError, match=f"k=\\[{ks[-1]}\\].*at most 3"):
            thresholds_pipeline(2, 0.3, ks=ks, field_draws=0)
    # threshold_check itself still reports no restricted sector as an infinite margin.
    assert threshold_check(ModelParams(0.3), Lattice(2), 9) == math.inf


def test_thresholds_pipeline_solves_the_field_free_margins_once(monkeypatch):
    expected = _per_draw_threshold_rows(4, 0.1, (1, 2, 3), 3, 0)
    tally = _count_eigensolves(monkeypatch)
    result = thresholds_pipeline(4, 0.1, seed=0)
    # k = 1, 2, 3 restrict sectors 1..9, 2..8 and 3..7: 21 solves, not 84.
    assert tally == {"full": 21, "windowed": 0}
    assert list(result.table.rows) == expected
    assert result.values["worst_margin"] == min(row[2] for row in expected)


def test_field_dominance_check_rejects_a_field_that_hops(monkeypatch):
    assemble = hamiltonian.assemble_sector

    def skewed(params, basis):
        matrix = assemble(params, basis)
        if params.field is None or matrix.dim < 2:
            return matrix
        entries = matrix.entries + 1e-3 * (np.eye(matrix.dim, k=1) + np.eye(matrix.dim, k=-1))
        return hamiltonian.SectorMatrix(basis=basis, entries=entries)

    lattice = Lattice(2)
    params = ModelParams(0.1, field={s: 0.5 for s in lattice.sites})
    spectral.field_dominance_check(params, lattice, 1)
    monkeypatch.setattr(spectral, "assemble_sector", skewed)
    with pytest.raises(VerificationError):
        spectral.field_dominance_check(params, lattice, 1)
