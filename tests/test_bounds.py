"""Summability constants and the configuration-sum checks."""

import itertools
import math

import pytest

from droplet_lab.bounds import (
    SumCheck,
    check_displacement_sum,
    check_edge_weighted_sum,
    check_straddling_sum,
    displacement_sum_constant,
    edge_sum_constant,
    straddling_sum_constant,
    _displacement_window_sum,
    _straddling_window_sum,
)
from droplet_lab.configspace import Lattice, distance_to_clustered, distance_to_edge, enumerate_sector
from droplet_lab.errors import DomainError


def enumerate_displacement_sum(mu, cluster, half_width):
    """Oracle: direct enumeration of the same-window placement sum."""
    n = len(cluster)
    sites = range(-half_width, half_width + 1)
    total = 0.0
    for y in itertools.combinations(sites, n):
        total += math.exp(-mu * sum(abs(a - b) for a, b in zip(cluster, y)))
    return total


def enumerate_straddling_sum(mu, n, block, half_width):
    """Oracle: direct enumeration with the straddle conditions."""
    lo, hi = block
    block_sites = set(range(lo, hi + 1))
    sites = range(-half_width, half_width + 1)
    total = 0.0
    for x in itertools.combinations(sites, n):
        occupied_block = sum(1 for u in x if u in block_sites)
        if occupied_block == 0 or occupied_block == len(block_sites):
            continue
        if occupied_block == n:  # nothing in the complement
            continue
        total += math.exp(-mu * distance_to_clustered(x))
    return total


def test_constant_large_mu_limit():
    c = displacement_sum_constant(50.0)
    assert c.value == pytest.approx(1.0 / (1.0 - math.exp(-50.0)), rel=1e-12)


def test_constant_monotone_in_mu():
    values = [displacement_sum_constant(mu).value for mu in (0.3, 0.5, 1.0, 2.0, 5.0)]
    for a, b in zip(values, values[1:]):
        assert a > b
    assert displacement_sum_constant(0.5).value > displacement_sum_constant(1.0).value


def test_constant_truncation_is_converged():
    c = displacement_sum_constant(1.0)
    assert c.tail_bound <= 1e-12 * c.value
    # Doubling the truncation by evaluating at the same mu must reproduce the
    # value: the reported tail bound certifies that.
    assert c.value == pytest.approx(displacement_sum_constant(1.0).value, rel=1e-12)
    with pytest.raises(DomainError):
        displacement_sum_constant(0.0)


def test_straddling_and_edge_constants_formulas():
    mu = 1.2
    c_inner = displacement_sum_constant(mu / 3).value
    assert straddling_sum_constant(3, mu) == pytest.approx(
        2 * c_inner * (3 + math.cosh(mu / 6) / math.sinh(mu / 6)), rel=1e-12
    )
    c_half = displacement_sum_constant(mu / 2).value
    assert edge_sum_constant(mu) == pytest.approx(
        2 * c_half / (1 - math.exp(-mu / 2)), rel=1e-12
    )


def test_single_particle_geometric_series():
    # One particle: the window sum telescopes to coth(mu/2) on a wide window.
    check = check_displacement_sum(1.0, 1, half_width=40)
    coth_half = math.cosh(0.5) / math.sinh(0.5)
    assert check.lhs == pytest.approx(coth_half, abs=1e-10)
    assert check.holds


@pytest.mark.parametrize("mu", [0.7, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_recursion_matches_enumeration_displacement(mu, n):
    start = -((n - 1) // 2)
    cluster = tuple(range(start, start + n))
    for half_width in (6, 9):
        fast = _displacement_window_sum(mu, cluster, half_width)
        slow = enumerate_displacement_sum(mu, cluster, half_width)
        assert fast == pytest.approx(slow, rel=1e-12)


@pytest.mark.parametrize("mu", [0.7, 1.5])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("b_len", [2, 3])
def test_recursion_matches_enumeration_straddling(mu, n, b_len):
    block = (-(b_len // 2), -(b_len // 2) + b_len - 1)
    for half_width in (6, 8):
        fast = _straddling_window_sum(mu, n, block, half_width)
        slow = enumerate_straddling_sum(mu, n, block, half_width)
        assert fast == pytest.approx(slow, rel=1e-12)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_displacement_bound_holds(mu, n):
    check = check_displacement_sum(mu, n)
    assert check.holds and check.stable


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("b_len", [2, 3, 4])
def test_straddling_bound_holds(mu, n, b_len):
    check = check_straddling_sum(mu, n, b_len)
    assert check.holds and check.stable


def test_straddling_large_mu_counts_straddlers():
    # At large mu only distance-zero (clustered straddling) terms survive.
    b_len, n = 3, 2
    check = check_straddling_sum(10.0, n, b_len)
    block = (-1, 1)
    straddlers = 0
    for start in range(-30, 30):
        w = tuple(range(start, start + n))
        inside = sum(1 for u in w if block[0] <= u <= block[1])
        if 0 < inside < b_len and inside < n:
            straddlers += 1
    assert check.lhs == pytest.approx(straddlers, abs=1e-3)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_edge_weighted_bound_holds(mu, n):
    check = check_edge_weighted_sum(mu, n, Lattice(5))
    assert check.holds


def test_edge_weighted_single_particle_value():
    # Singletons are clustered, so only the edge distance contributes.
    mu, L = 1.0, 5
    lattice = Lattice(L)
    expected = sum(
        math.exp(-mu * min(abs(u + L), abs(u - L))) for u in lattice.sites
    )
    check = check_edge_weighted_sum(mu, 1, lattice)
    assert check.lhs == pytest.approx(expected, rel=1e-12)


def test_edge_weighted_monotone_in_lattice_but_bounded():
    mu, n = 1.0, 2
    values = [check_edge_weighted_sum(mu, n, Lattice(L)).lhs for L in (3, 4, 5, 6)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
    assert values[-1] <= edge_sum_constant(mu) * (1 + 1e-9)


def test_edge_weighted_oracle_small_lattice():
    mu, n, L = 1.3, 3, 4
    lattice = Lattice(L)
    expected = 0.0
    for x in enumerate_sector(lattice, n):
        expected += math.exp(
            -mu * (distance_to_clustered(x) + distance_to_edge(x, (-L, L)))
        )
    check = check_edge_weighted_sum(mu, n, lattice)
    assert check.lhs == pytest.approx(expected, rel=1e-12)


def test_check_input_validation():
    with pytest.raises(DomainError):
        check_displacement_sum(-1.0, 2)
    with pytest.raises(DomainError):
        check_displacement_sum(1.0, 0)
    with pytest.raises(DomainError):
        check_straddling_sum(1.0, 1, 3)
    with pytest.raises(DomainError):
        check_edge_weighted_sum(1.0, 0, Lattice(3))


def test_sumcheck_flags():
    good = SumCheck(lhs=1.0, bound=2.0, doubling_delta=1e-12)
    assert good.holds and good.stable
    assert not SumCheck(lhs=3.0, bound=2.0, doubling_delta=0.0).holds
    assert not SumCheck(lhs=1.0, bound=2.0, doubling_delta=1e-3).stable
