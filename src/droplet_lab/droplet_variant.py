"""Spectral structure of the chain with the square-root boundary field.

With boundary field sqrt(1 - delta_inv^2)/2 and no on-site field, each
n-particle sector carries |lattice| - n + 1 low eigenvalues concentrated
around sqrt(1 - delta_inv^2), separated from the rest by a gap that grows
with n toward 1 - delta_inv.  This module measures band width, gap and the
gap deficit on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .configspace import Lattice, enumerate_sector
from .errors import DomainError
from .hamiltonian import ModelParams, assemble_sector
from .spectral import eigensolve


@dataclass(frozen=True)
class DropletSpectrumReport:
    n: int
    lowest_count: int
    band_center: float
    band_width: float
    gap: float
    deficit: float  # 1 - delta_inv - gap, the gap's distance below its limit


def droplet_spectrum_report(delta_inv: float, lattice: Lattice, n: int) -> DropletSpectrumReport:
    """Band width and gap of sector n for the square-root boundary mode."""
    if not 0.0 < delta_inv < 1.0:
        raise DomainError(
            f"delta_inv must lie in (0, 1) for the droplet variant, got {delta_inv}"
        )
    if not 1 <= n <= lattice.size:
        raise DomainError(f"sector n={n} outside [1, {lattice.size}]")
    params = ModelParams(delta_inv=delta_inv, boundary_mode="droplet")
    count = lattice.size - n + 1
    basis = enumerate_sector(lattice, n)
    # The band and the eigenvalue above it, where there is one.
    data = eigensolve(assemble_sector(params, basis), lowest=min(count + 1, len(basis)))
    center = math.sqrt(1.0 - delta_inv**2)
    band = data.eigenvalues[:count]
    width = float(max(abs(band - center)))
    gap = float(data.eigenvalues[count] - data.eigenvalues[count - 1]) if count < data.dim else math.inf
    return DropletSpectrumReport(
        n=n,
        lowest_count=count,
        band_center=center,
        band_width=width,
        gap=gap,
        deficit=(1.0 - delta_inv) - gap,
    )


@dataclass(frozen=True)
class GapTrend:
    rows: tuple[DropletSpectrumReport, ...]
    gap_increasing: bool
    limit_reached: bool
    limit_tol: float


def gap_limit_check(
    delta_inv: float, lattice: Lattice, n_list, limit_tol: float | None = None
) -> GapTrend:
    """Gap growth along n toward the limit 1 - delta_inv.

    At finite size the saturated gap sits slightly *above* the limit (the
    overshoot shrinks with the lattice and scales like delta_inv^2), so the
    check asserts monotone growth and |1 - delta_inv - gap| <= limit_tol at
    the last n rather than a signed deficit.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError(f"n_list must be strictly increasing, got {n_list}")
    if limit_tol is None:
        limit_tol = max(0.01, delta_inv**2)
    rows = [droplet_spectrum_report(delta_inv, lattice, n) for n in n_list]
    increasing = all(b.gap > a.gap for a, b in zip(rows, rows[1:]))
    reached = abs(rows[-1].deficit) <= limit_tol
    return GapTrend(
        rows=tuple(rows), gap_increasing=increasing, limit_reached=reached, limit_tol=limit_tol
    )
