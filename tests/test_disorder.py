"""Seeded fields and the two disorder-averaged experiments."""

import math

import numpy as np
import pytest
from loop_oracle import field_diagonal

from droplet_lab.configspace import Lattice, centered_cluster, enumerate_sector
from droplet_lab.disorder import (
    AreaLawResult,
    DisorderSpec,
    area_law_experiment,
    dos_decay_experiment,
    draw_field,
    sample_slope,
)
from droplet_lab.errors import DomainError
from droplet_lab.hamiltonian import ModelParams, assemble_sector
from droplet_lab.spectral import DropletWindow, auto_window


def test_spec_validation():
    assert DisorderSpec.uniform(0.0, 2.0, 10, 1).nontrivial_support
    assert DisorderSpec.bernoulli(0.5, 1.0, 10, 1).nontrivial_support
    assert not DisorderSpec.constant(0.0, 10, 1).nontrivial_support
    assert not DisorderSpec.constant(1.5, 10, 1).nontrivial_support
    assert not DisorderSpec.uniform(1.0, 1.0, 10, 1).nontrivial_support
    assert not DisorderSpec.bernoulli(1.0, 2.0, 10, 1).nontrivial_support
    with pytest.raises(DomainError):
        DisorderSpec.uniform(-0.5, 1.0, 10, 1)
    with pytest.raises(DomainError):
        DisorderSpec.uniform(2.0, 1.0, 10, 1)
    with pytest.raises(DomainError):
        DisorderSpec.bernoulli(1.5, 1.0, 10, 1)
    with pytest.raises(DomainError):
        DisorderSpec.constant(-1.0, 10, 1)
    with pytest.raises(DomainError):
        DisorderSpec.uniform(0.0, 1.0, 0, 1)


def test_draw_field_reproducible_and_nonnegative():
    lat = Lattice(4)
    spec = DisorderSpec.uniform(0.0, 2.0, 10, 42)
    a = draw_field(spec, 3, lat)
    b = draw_field(spec, 3, lat)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0
    assert a.shape == (lat.size,)
    c = draw_field(spec, 4, lat)
    assert not np.array_equal(a, c)


def test_draw_field_constant_and_bernoulli():
    lat = Lattice(3)
    zero = draw_field(DisorderSpec.constant(0.0, 1, 0), 0, lat)
    assert np.array_equal(zero, np.zeros(lat.size))
    bern = draw_field(DisorderSpec.bernoulli(0.5, 2.5, 1, 0), 0, lat)
    assert set(np.unique(bern)).issubset({0.0, 2.5})


def test_draw_field_law_of_large_numbers():
    lat = Lattice(1)
    spec = DisorderSpec.uniform(0.0, 1.0, 10_000, 9)
    values = np.array([draw_field(spec, i, lat)[0] for i in range(10_000)])
    assert abs(values.mean() - 0.5) < 0.02


def test_bernoulli_monotone_coupling():
    # With the hit pattern fixed, a larger magnitude can only raise each
    # eigenvalue (the added diagonal is nonnegative).
    lat = Lattice(3)
    rng = np.random.default_rng(5)
    pattern = (rng.random(lat.size) < 0.5).astype(float)
    template = ModelParams(delta_inv=0.2)
    for n in range(lat.size + 1):
        basis = enumerate_sector(lat, n)
        base = assemble_sector(template, basis)
        lows = []
        for v in (0.5, 1.5):
            entries = base.entries + np.diag(field_diagonal(basis, v * pattern))
            lows.append(np.linalg.eigvalsh(entries))
        assert (lows[1] - lows[0]).min() >= -1e-10
    # The vacuum stays the ground state at zero energy.
    vac = assemble_sector(template.with_field({s: 1.5 for s in lat.sites}), enumerate_sector(lat, 0))
    assert vac.entries[0, 0] == 0.0


def test_dos_decay_ising_constant_field_is_flat():
    # Diagonal limit with a trivial field: every clustered probe stays at
    # unit weight inside the window, so the fitted rate vanishes.
    lat = Lattice(4)
    spec = DisorderSpec.constant(0.0, 2, 3)
    template = ModelParams(delta_inv=0.0)
    result = dos_decay_experiment(
        spec, template, lat, DropletWindow(1.5), probes={n: centered_cluster(lat, n) for n in (1, 2, 3)}
    )
    assert result.means == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert result.decay_rate == pytest.approx(0.0, abs=1e-12)
    assert not result.nontrivial_support


def test_dos_decay_uniform_disorder_decays():
    lat = Lattice(4)
    spec = DisorderSpec.uniform(0.0, 2.0, 60, 11)
    template = ModelParams(delta_inv=0.1)
    window = DropletWindow(auto_window(template).e_max + 2.0 * spec.mean)
    result = dos_decay_experiment(spec, template, lat, window)
    assert result.nontrivial_support
    assert result.decay_rate > 0
    assert result.decay_rate_stderr < result.decay_rate / 2
    assert all(se is not None for se in result.stderrs)


# At seed 917017 no sample of 60 gives the n=4 probe in-window weight; at
# 900000 a single sample does (0.999), so its mean equals its stderr and
# lies above the resolution floor 1/120.
@pytest.mark.parametrize("seed,dropped", [(917017, (4,)), (900000, ())])
def test_dos_decay_fits_only_resolved_probes(seed, dropped):
    lat = Lattice(4)
    spec = DisorderSpec.uniform(0.0, 2.0, 60, seed)
    template = ModelParams(delta_inv=0.1)
    window = DropletWindow(auto_window(template).e_max + 2.0 * spec.mean)
    result = dos_decay_experiment(spec, template, lat, window)
    assert result.dropped_probes == dropped
    assert result.fitted_points == 4 - len(dropped)
    floor = 1 / (2 * spec.samples)
    assert all((m < floor) == (n in dropped) for n, m in zip(result.probe_ns, result.means))
    if not dropped:
        assert result.means[-1] == pytest.approx(result.stderrs[-1], rel=1e-3)


def test_dos_decay_single_sample_has_no_stderr():
    lat = Lattice(3)
    spec = DisorderSpec.uniform(0.0, 1.0, 1, 2)
    template = ModelParams(delta_inv=0.1)
    result = dos_decay_experiment(
        spec, template, lat, DropletWindow(5.0), probes={n: centered_cluster(lat, n) for n in (1, 2, 3)}
    )
    assert all(se is None for se in result.stderrs)


def test_dos_decay_reproducible():
    lat = Lattice(3)
    template = ModelParams(delta_inv=0.1)
    window = DropletWindow(3.0)
    probes = {n: centered_cluster(lat, n) for n in (1, 2)}
    a = dos_decay_experiment(DisorderSpec.uniform(0, 2, 8, 5), template, lat, window, probes)
    b = dos_decay_experiment(DisorderSpec.uniform(0, 2, 8, 5), template, lat, window, probes)
    assert a.means == b.means
    assert a.decay_rate == b.decay_rate


def test_area_law_validation():
    lat = Lattice(3)
    template = ModelParams(delta_inv=0.1)
    window = auto_window(template)
    spec = DisorderSpec.uniform(0.0, 2.0, 2, 0)
    with pytest.raises(DomainError):
        area_law_experiment(spec, template, lat, window, (2, 3), 1.0, 1.5)
    with pytest.raises(DomainError):
        area_law_experiment(spec, template, lat, window, (3, 2), 1.0, 0.5)
    for sizes in ((3,), ()):
        with pytest.raises(DomainError, match="at least two block sizes"):
            area_law_experiment(spec, template, lat, window, sizes, 1.0, 0.5)


def test_area_law_reproducible_and_bounded_below():
    lat = Lattice(3)
    template = ModelParams(delta_inv=0.1)
    window = auto_window(template)
    spec = DisorderSpec.uniform(0.0, 2.0, 6, 4)
    a = area_law_experiment(spec, template, lat, window, (2, 3), 1.0, 0.5, n_random=8, ascent_steps=4)
    b = area_law_experiment(spec, template, lat, window, (2, 3), 1.0, 0.5, n_random=8, ascent_steps=4)
    assert a.means == b.means
    assert all(m >= 1.0 for m in a.means)  # exp((1-eps) S) >= 1 always


def test_area_law_strong_field_gives_vacuum_only():
    # A huge constant field empties every sector except the vacuum, whose
    # entropy vanishes: all means collapse to exp(0) = 1.
    lat = Lattice(3)
    template = ModelParams(delta_inv=0.1)
    window = auto_window(template)
    spec = DisorderSpec.constant(50.0, 3, 0)
    result = area_law_experiment(spec, template, lat, window, (2, 3), 1.0, 0.5, n_random=4, ascent_steps=2)
    assert result.means == pytest.approx((1.0, 1.0), abs=1e-12)
    assert result.trend_slope == pytest.approx(0.0, abs=1e-12)
    assert result.trend_slope_stderr == 0.0
    assert result.flat


def test_sample_slope_identical_rows_have_zero_error():
    x = np.log([2.0, 3.0, 4.0, 5.0])
    rows = np.tile([1.0, 1.3, 1.4, 1.8], (6, 1))
    slope, stderr = sample_slope(x, rows)
    assert slope == pytest.approx(np.polyfit(x, rows[0], 1)[0], abs=1e-12)
    assert stderr == 0.0


def test_sample_slope_synthetic_rows():
    # x = 0, 1, 2: the per-row slopes are 1, 0 and 2, so the slope is their
    # mean 1 and the error their standard deviation 1 over sqrt(3).
    x = np.array([0.0, 1.0, 2.0])
    rows = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 5.0]])
    slope, stderr = sample_slope(x, rows)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert stderr == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_sample_slope_matches_ols_slope_of_means():
    rng = np.random.default_rng(3)
    x = np.log([2.0, 3.0, 4.0, 5.0])
    rows = 1.0 + rng.exponential(size=(40, 4))
    slope, stderr = sample_slope(x, rows)
    assert slope == pytest.approx(np.polyfit(x, rows.mean(axis=0), 1)[0], abs=1e-12)
    assert stderr > 0


def test_sample_slope_single_row_has_no_error():
    slope, stderr = sample_slope(np.array([0.0, 1.0]), np.array([[1.0, 3.0]]))
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert math.isnan(stderr)


def _area_result(slope, stderr):
    return AreaLawResult(
        block_sizes=(2, 3, 4, 5),
        means=(1.0, 1.0, 1.0, 1.0),
        stderrs=(None,) * 4,
        trend_slope=slope,
        trend_slope_stderr=stderr,
        empty_subspace_samples=0,
        nontrivial_support=True,
    )


def test_flat_rule_uses_slope_sampling_error():
    assert not _area_result(1.02, math.nan).flat  # clean chain, one sample
    assert not _area_result(0.2, 0.02).flat  # resolvably above the tolerance
    assert _area_result(0.0753, 0.0178).flat  # criterion 10 at 100 samples


def test_flat_rule_without_error_compares_slope():
    assert _area_result(0.049, math.nan).flat
    assert not _area_result(0.051, math.nan).flat
