"""Summability constants and brute-force checks of the configuration sums.

Three families of exponential-weight sums over hard-core configurations are
bounded by closed-form constants built from the truncated infinite product
C(mu) = (1 - e^-mu)^-1 * prod_k (1 - e^-k*mu)^-2.  The infinite-lattice sums
are evaluated on finite windows large enough that doubling the window moves
the value by less than 1e-10; the window sums themselves are computed by an
ordered-product recursion that is exactly the configuration sum, reorganized
particle by particle (its equality with direct enumeration is covered by the
test suite on small windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import Config, Lattice, distance_to_clustered, distance_to_edge, enumerate_sector
from .errors import DomainError, ResourceError

PRODUCT_FACTOR_TOL = 1e-15
WINDOW_STABILITY_TOL = 1e-10


def _coth(x: float) -> float:
    return math.cosh(x) / math.sinh(x)


@dataclass(frozen=True)
class ProductConstant:
    value: float
    tail_bound: float


def displacement_sum_constant(mu: float) -> ProductConstant:
    """(1 - e^-mu)^-1 times the squared inverse Euler-type product.

    The product over k is truncated once the next factor differs from one by
    less than 1e-15; the dropped tail is bounded by the geometric series and
    reported.
    """
    if mu <= 0:
        raise DomainError(f"mu must be > 0, got {mu}")
    q = math.exp(-mu)
    product = 1.0
    k = 0
    while True:
        k += 1
        factor = 1.0 / (1.0 - q**k)
        if factor - 1.0 < PRODUCT_FACTOR_TOL:
            break
        product *= factor
    # ln of the dropped tail of prod (1 - q^k)^-2 is below 2 sum_{j>k} q^j/(1-q^j).
    tail_log = 2.0 * q ** (k + 1) / ((1.0 - q) * (1.0 - q ** (k + 1)))
    value = product * product / (1.0 - q)
    return ProductConstant(value=value, tail_bound=value * math.expm1(tail_log))


def straddling_sum_constant(s: int, mu: float) -> float:
    """Bound for block-straddling sums; affine linear in s = min(n, |B|)."""
    if s < 0:
        raise DomainError(f"s must be >= 0, got {s}")
    return 2.0 * displacement_sum_constant(mu / 3.0).value * (s + _coth(mu / 6.0))


def edge_sum_constant(mu: float) -> float:
    """Bound for sums weighted by distance to the cluster set and to the edge."""
    return 2.0 * displacement_sum_constant(mu / 2.0).value / (1.0 - math.exp(-mu / 2.0))


@dataclass(frozen=True)
class SumCheck:
    lhs: float
    bound: float
    doubling_delta: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.bound * (1.0 + 1e-9)

    @property
    def stable(self) -> bool:
        return self.doubling_delta < WINDOW_STABILITY_TOL


def _ordered_product_sum(factor_rows: np.ndarray) -> float:
    """Sum over strictly increasing placements of prod_k row_k[position_k].

    factor_rows has one row per particle in placement order; the recursion
    carries prefix sums so the cost is particles x sites.
    """
    n, width = factor_rows.shape
    state = factor_rows[0].copy()
    for k in range(1, n):
        prefix = np.concatenate(([0.0], np.cumsum(state)[:-1]))
        state = factor_rows[k] * prefix
    return float(state.sum())


def _displacement_window_sum(mu: float, cluster: Config, half_width: int) -> float:
    positions = np.arange(-half_width, half_width + 1, dtype=float)
    rows = np.exp(-mu * np.abs(positions[None, :] - np.asarray(cluster, dtype=float)[:, None]))
    return _ordered_product_sum(rows)


def check_displacement_sum(mu: float, n: int, half_width: int | None = None) -> SumCheck:
    """Window sum of e^{-mu * pair distance} from a centered cluster vs its bound.

    Maximizes over near-centered cluster placements; requires the doubled
    window to agree within 1e-10.
    """
    if mu <= 0 or n < 1:
        raise DomainError(f"need mu > 0 and n >= 1, got mu={mu}, n={n}")
    if half_width is None:
        half_width = n + 8 + math.ceil(40.0 / mu)
    starts = [-((n - 1) // 2) + d for d in (-1, 0, 1)]
    lhs = dbl = 0.0
    for start in starts:
        cluster = tuple(range(start, start + n))
        lhs = max(lhs, _displacement_window_sum(mu, cluster, half_width))
        dbl = max(dbl, _displacement_window_sum(mu, cluster, 2 * half_width))
    delta = abs(dbl - lhs)
    if delta >= WINDOW_STABILITY_TOL:
        raise ResourceError(
            f"window half-width {half_width} is unstable under doubling "
            f"(delta={delta:.3e}); enlarge the window"
        )
    return SumCheck(lhs=dbl, bound=displacement_sum_constant(mu).value, doubling_delta=delta)


def _straddling_window_sum(mu: float, n: int, block: tuple[int, int], half_width: int) -> float:
    """Sum of e^{-mu * distance-to-clustered} over straddling n-particle placements.

    The distance to the cluster set equals a signed sum of the shifted
    coordinates u_k = x_k - k (lower half negative, upper half positive), so
    the summand factorizes along the placement recursion; flags track the
    occupied block count and whether the complement was hit.
    """
    lo, hi = block
    b_len = hi - lo + 1
    positions = np.arange(-half_width, half_width + 1)
    weights = np.zeros(n)
    half = n // 2
    weights[:half] = -1.0
    weights[n - half :] = 1.0
    cap = min(n, b_len)
    width = positions.size
    # state[c, f, p]: placements so far ending at position p with c block
    # sites occupied (capped) and complement-hit flag f.
    state = np.zeros((cap + 1, 2, width))
    in_block = (positions >= lo) & (positions <= hi)
    for k in range(n):
        factors = np.exp(-mu * weights[k] * (positions - k))
        new = np.zeros_like(state)
        if k == 0:
            new[1, 0, :] = np.where(in_block, factors, 0.0)
            new[0, 1, :] = np.where(~in_block, factors, 0.0)
        else:
            for c in range(cap + 1):
                for f in (0, 1):
                    prefix = np.concatenate(([0.0], np.cumsum(state[c, f])[:-1]))
                    inc = prefix * factors
                    block_c = min(c + 1, cap)
                    new[block_c, f, :] += np.where(in_block, inc, 0.0)
                    new[c, 1, :] += np.where(~in_block, inc, 0.0)
        state = new
    top = b_len - 1 if cap == b_len else cap
    return float(state[1 : top + 1, 1, :].sum())


def check_straddling_sum(
    mu: float, n: int, b_length: int, half_width: int | None = None
) -> SumCheck:
    """Straddling-configuration sum against the affine-in-s constant."""
    if mu <= 0 or n < 2 or b_length < 1:
        raise DomainError(f"need mu > 0, n >= 2, |B| >= 1; got {mu}, {n}, {b_length}")
    block = (-(b_length // 2), -(b_length // 2) + b_length - 1)
    if half_width is None:
        half_width = b_length + n + 8 + math.ceil(40.0 / mu)
    lhs = _straddling_window_sum(mu, n, block, half_width)
    dbl = _straddling_window_sum(mu, n, block, 2 * half_width)
    delta = abs(dbl - lhs)
    if delta >= WINDOW_STABILITY_TOL:
        raise ResourceError(
            f"window half-width {half_width} is unstable under doubling "
            f"(delta={delta:.3e}); enlarge the window"
        )
    bound = straddling_sum_constant(min(n, b_length), mu)
    return SumCheck(lhs=dbl, bound=bound, doubling_delta=delta)


def check_edge_weighted_sum(mu: float, n: int, lattice: Lattice) -> SumCheck:
    """Finite-lattice sum weighted by cluster and edge distances vs its bound."""
    if mu <= 0 or n < 1:
        raise DomainError(f"need mu > 0 and n >= 1, got mu={mu}, n={n}")
    sites = enumerate_sector(lattice, n).sites
    distances = distance_to_clustered(sites) + distance_to_edge(sites, (0, lattice.size - 1))
    total = sum(math.exp(-mu * d) for d in distances.tolist())
    return SumCheck(lhs=total, bound=edge_sum_constant(mu), doubling_delta=0.0)
