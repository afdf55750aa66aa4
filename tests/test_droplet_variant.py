"""Band structure of the square-root boundary-field variant."""

import math

import numpy as np
import pytest
from loop_oracle import cluster_decompose

from droplet_lab.configspace import Lattice, enumerate_sector
from droplet_lab.droplet_variant import droplet_spectrum_report, gap_limit_check
from droplet_lab.errors import DomainError
from droplet_lab.hamiltonian import ModelParams, assemble_sector
from droplet_lab.spectral import eigensolve


def test_input_validation():
    lat = Lattice(4)
    with pytest.raises(DomainError):
        droplet_spectrum_report(0.0, lat, 2)
    with pytest.raises(DomainError):
        droplet_spectrum_report(1.0, lat, 2)
    with pytest.raises(DomainError):
        droplet_spectrum_report(0.1, lat, 0)
    with pytest.raises(DomainError):
        gap_limit_check(0.1, lat, [3, 3])


def test_vacuum_sector_zero_is_simple():
    lat = Lattice(4)
    params = ModelParams(delta_inv=0.1, boundary_mode="droplet")
    data = eigensolve(assemble_sector(params, enumerate_sector(lat, 0)))
    assert data.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    ones = eigensolve(assemble_sector(params, enumerate_sector(lat, 1)))
    assert ones.eigenvalues[0] > 1e-3


def test_band_width_shrinks_with_n():
    lat = Lattice(5)
    w4 = droplet_spectrum_report(0.1, lat, 4)
    w6 = droplet_spectrum_report(0.1, lat, 6)
    assert w6.band_width < w4.band_width
    assert w4.band_center == pytest.approx(math.sqrt(1 - 0.01), rel=1e-14)
    assert w4.lowest_count == lat.size - 4 + 1


def test_gap_increases_and_saturates_near_limit():
    lat = Lattice(6)
    trend = gap_limit_check(0.1, lat, [3, 4, 5, 6])
    assert trend.gap_increasing
    assert trend.limit_reached
    # Finite size places the saturated gap slightly above the limit.
    assert abs(trend.rows[-1].deficit) <= trend.limit_tol


def test_gap_ordering_in_anisotropy():
    lat = Lattice(5)
    gap_01 = droplet_spectrum_report(0.1, lat, 5).gap
    gap_02 = droplet_spectrum_report(0.2, lat, 5).gap
    assert gap_02 < gap_01  # limits 0.8 < 0.9


def test_single_entry_trend_passes():
    trend = gap_limit_check(0.1, Lattice(5), [4])
    assert trend.gap_increasing  # vacuously
    assert len(trend.rows) == 1


def test_boundary_modes_converge_at_small_anisotropy():
    lat = Lattice(3)
    diffs = []
    for delta_inv in (0.2, 0.1, 0.05, 0.01):
        std = ModelParams(delta_inv=delta_inv, boundary_mode="standard")
        drop = ModelParams(delta_inv=delta_inv, boundary_mode="droplet")
        worst = 0.0
        for n in range(lat.size + 1):
            basis = enumerate_sector(lat, n)
            diff = np.abs(
                assemble_sector(std, basis).entries - assemble_sector(drop, basis).entries
            )
            worst = max(worst, float(diff.max()))
        diffs.append(worst)
        assert worst == pytest.approx(2 * abs(std.beta - drop.beta), abs=1e-14)
    assert diffs == sorted(diffs, reverse=True)


def test_band_vectors_live_on_clustered_configs():
    lat = Lattice(5)
    params = ModelParams(delta_inv=0.1, boundary_mode="droplet")
    for n in (3, 4, 5):
        basis = enumerate_sector(lat, n)
        data = eigensolve(assemble_sector(params, basis))
        clustered = np.array([cluster_decompose(lat, x).k <= 1 for x in basis])
        count = lat.size - n + 1
        for j in range(count):
            v = data.eigenvectors[:, j]
            assert float(np.sum(v[clustered] ** 2)) > 0.9
