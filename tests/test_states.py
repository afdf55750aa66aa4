"""Amplitude maps over sector bases."""

import math

import numpy as np
import pytest

from droplet_lab.configspace import Lattice
from droplet_lab.errors import DomainError
from droplet_lab.states import (
    AmplitudeMap,
    from_amplitudes,
    random_state_on_configs,
    uniform_cluster_state,
)


def test_from_amplitudes_and_lookup():
    lat = Lattice(2)
    psi = from_amplitudes(lat, {(0,): 0.6, (0, 1): 0.8})
    assert psi.amplitude((0,)) == pytest.approx(0.6)
    assert psi.amplitude((0, 1)) == pytest.approx(0.8)
    assert psi.amplitude((1,)) == 0.0
    assert psi.amplitude((-2, 2)) == 0.0
    assert psi.norm() == pytest.approx(1.0)
    assert psi.n_max == 2


@pytest.mark.parametrize("bad", [(1, 0), (0, 0), (3,), (-2, -1, 0, 1, 2, 3)])
def test_from_amplitudes_rejects_configurations_off_the_sector_bases(bad):
    # Unsorted, repeated, off-lattice and longer than the lattice: each must
    # raise, never land on a plausible ordinal of some sector.
    with pytest.raises(DomainError):
        from_amplitudes(Lattice(2), {(0,): 0.6, bad: 0.8})


def test_basis_state_norm():
    lat = Lattice(2)
    psi = from_amplitudes(lat, {(-1, 1): 1.0})
    assert psi.norm() == pytest.approx(1.0)
    psi.require_normalized()


def test_vector_shape_validation():
    lat = Lattice(2)
    with pytest.raises(DomainError):
        AmplitudeMap(lat, {1: np.zeros(3)})


def test_normalize_and_rejection():
    lat = Lattice(1)
    psi = from_amplitudes(lat, {(0,): 2.0})
    with pytest.raises(DomainError):
        psi.require_normalized()
    assert psi.normalized().norm() == pytest.approx(1.0)
    zero = from_amplitudes(lat, {(0,): 0.0})
    with pytest.raises(DomainError):
        zero.normalized()


def test_uniform_cluster_state_counts():
    lat = Lattice(4)
    psi = uniform_cluster_state(lat, 2)
    amps = [psi.amplitude((s, s + 1)) for s in range(-4, 4)]
    assert all(a == pytest.approx(1 / math.sqrt(8)) for a in amps)
    windowed = uniform_cluster_state(lat, 2, window=(0, 1))
    assert windowed.amplitude((-4, -3)) == 0.0
    assert windowed.amplitude((0, 1)) != 0.0
    with pytest.raises(DomainError):
        uniform_cluster_state(lat, 10)


def test_random_state_support_and_norm():
    lat = Lattice(3)
    rng = np.random.default_rng(0)
    configs = [(0,), (1,), (0, 1)]
    psi = random_state_on_configs(lat, configs, rng)
    assert psi.norm() == pytest.approx(1.0)
    assert psi.amplitude((2,)) == 0.0
    cpx = random_state_on_configs(lat, configs, rng, complex_amplitudes=True)
    assert np.iscomplexobj(cpx.parts[1])
    with pytest.raises(DomainError):
        random_state_on_configs(lat, [], rng)
