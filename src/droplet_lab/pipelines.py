"""Verification pipelines behind the command-line harness.

Each pipeline runs one desk-scale experiment, returns a single flat table
plus named verdicts (claim checks at their stated tolerances) and scalar
values for the summary record.  Claim violations become verdict failures,
not exceptions, so the harness can report them with exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    check_displacement_sum,
    check_edge_weighted_sum,
    check_straddling_sum,
    displacement_sum_constant,
)
from .configspace import (
    Lattice,
    centered_cluster,
    config_distance,
    distance_to_clustered,
    enumerate_sector,
)
from .disorder import DisorderSpec, area_law_experiment, dos_decay_experiment
from .droplet_variant import droplet_spectrum_report, gap_limit_check
from .entanglement import (
    Bipartition,
    centered_block,
    entropy_scan,
    hartley_bound_check,
    matricize,
    renyi_entropy,
)
from .errors import DomainError, VerificationError
from .hamiltonian import ModelParams, assemble_full_oracle, oracle_sector_block
from .spectral import (
    DropletWindow,
    auto_window,
    droplet_projector,
    evolve,
    fit_exponential_envelope,
    greens_function,
    ground_state_check,
    local_dos_by_sector,
    random_droplet_state,
    sector_spectra,
    threshold_check,
)
from .states import random_state_on_configs, uniform_cluster_state

MARGIN_TOL = 1e-9
POINTWISE_TOL = 1e-12
MIN_DECAY_RATE = 0.05
FIT_STABILITY = 0.25
SCAN_RESIDUAL_TOL = 0.2
DYNAMICS_HEADROOM = 0.1


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class PipelineResult:
    command: str
    table: Table
    verdicts: dict[str, bool]
    values: dict[str, float]
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def _droplet_support_configs(lattice: Lattice):
    configs = [()]
    for n in range(1, lattice.size + 1):
        for s in range(-lattice.L, lattice.L - n + 2):
            configs.append(tuple(range(s, s + n)))
    return configs


def spectrum_pipeline(
    L: int, delta_inv: float, boundary_mode: str = "standard", oracle_max_sites: int = 12
) -> PipelineResult:
    """Sector spectra, the zero-mode check, and tensor-product oracle agreement."""
    lattice = Lattice(L)
    params = ModelParams(delta_inv=delta_inv, boundary_mode=boundary_mode)
    spectra = sector_spectra(params, lattice)
    rows = []
    for n, data in sorted(spectra.items()):
        for i, w in enumerate(data.eigenvalues):
            rows.append((n, i, float(w)))
    verdicts: dict[str, bool] = {}
    values: dict[str, float] = {}
    notes: list[str] = []
    if boundary_mode == "standard":
        try:
            report = ground_state_check(params, lattice)
            verdicts["zero_mode_simple"] = True
            values["second_lowest_eigenvalue"] = report.second_lowest
        except VerificationError as exc:
            verdicts["zero_mode_simple"] = False
            notes.append(str(exc))
    else:
        notes.append("zero-mode check skipped: requires the standard boundary mode")
    if lattice.size <= oracle_max_sites:
        full = assemble_full_oracle(params, lattice)
        worst = 0.0
        for n, data in spectra.items():
            block = oracle_sector_block(full, lattice, enumerate_sector(lattice, n))
            worst = max(worst, float(np.abs(block - data.matrix.entries).max()))
        verdicts["oracle_equivalence"] = worst <= 1e-12
        values["oracle_max_deviation"] = worst
    else:
        notes.append(f"oracle comparison skipped: {lattice.size} sites exceed {oracle_max_sites}")
    return PipelineResult(
        command="spectrum",
        table=Table(columns=("n", "index", "eigenvalue"), rows=tuple(rows)),
        verdicts=verdicts,
        values=values,
        notes=tuple(notes),
    )


def thresholds_pipeline(
    L: int,
    delta_inv: float,
    ks=(1, 2, 3),
    field_draws: int = 3,
    seed: int = 0,
    field_scale: float = 1.0,
) -> PipelineResult:
    """Cluster-count energy thresholds for the bare chain and random fields."""
    lattice = Lattice(L)
    rows = []
    worst = math.inf
    for draw in range(field_draws + 1):
        if draw == 0:
            params = ModelParams(delta_inv=delta_inv)
            label = "zero"
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, draw)))
            field_map = {s: float(field_scale * rng.random()) for s in lattice.sites}
            params = ModelParams(delta_inv=delta_inv, field=field_map)
            label = f"draw{draw}"
        for k in ks:
            margin = threshold_check(params, lattice, k)
            rows.append((label, k, margin))
            if math.isfinite(margin):
                worst = min(worst, margin)
    verdicts = {"threshold_margins_nonnegative": worst >= -MARGIN_TOL}
    return PipelineResult(
        command="thresholds",
        table=Table(columns=("field", "k", "margin"), rows=tuple(rows)),
        verdicts=verdicts,
        values={"worst_margin": worst},
    )


def _reference_nonclustered(lattice: Lattice, n: int):
    cluster = centered_cluster(lattice, n)
    moved = cluster[:-1] + (cluster[-1] + 1,)
    if moved[-1] > lattice.L:
        raise DomainError(f"no room for the reference configuration at L={lattice.L}, n={n}")
    return moved


def _greens_envelope(params: ModelParams, lattice: Lattice, n: int, energy: float):
    basis = enumerate_sector(lattice, n)
    slice_ = greens_function(params, basis, energy)
    x0 = _reference_nonclustered(lattice, n)
    j0 = slice_.config_index(x0)
    column = slice_.column(j0)
    envelope: dict[int, float] = {}
    for pos, ordinal in enumerate(slice_.kept):
        y = basis[ordinal]
        d = config_distance(x0, y)
        envelope[d] = max(envelope.get(d, 0.0), abs(float(column[pos])))
    return sorted(envelope.items())


def ct_decay_pipeline(
    delta_inv: float,
    L: int,
    n_values=(2, 3),
    e_fracs=(0.0, 0.5, 1.0),
    stability_L: int | None = None,
    window_fraction: float = 0.9,
) -> PipelineResult:
    """Off-diagonal decay of the restricted resolvent, with cross-size stability."""
    params = ModelParams(delta_inv=delta_inv)
    window = auto_window(params, window_fraction)
    L_values = [L] if not stability_L else [L, stability_L]
    rows = []
    fits: dict[tuple[int, int, float], tuple[float, float]] = {}
    all_positive = True
    for L_val in L_values:
        lattice = Lattice(L_val)
        for n in n_values:
            for frac in e_fracs:
                energy = frac * window.e_max
                points = _greens_envelope(params, lattice, n, energy)
                fit = fit_exponential_envelope(points)
                rows.append(
                    (L_val, n, energy, fit.c, fit.mu, fit.max_violation, fit.points)
                )
                fits[(L_val, n, frac)] = (fit.c, fit.mu)
                all_positive = all_positive and fit.mu > MIN_DECAY_RATE
    verdicts = {"decay_rates_exceed_minimum": all_positive}
    values: dict[str, float] = {}
    if len(L_values) == 2:
        stable = True
        worst_change = 0.0
        for n in n_values:
            for frac in e_fracs:
                c_a, mu_a = fits[(L_values[0], n, frac)]
                c_b, mu_b = fits[(L_values[1], n, frac)]
                change = max(abs(c_b - c_a) / c_a, abs(mu_b - mu_a) / mu_a)
                worst_change = max(worst_change, change)
                stable = stable and change < FIT_STABILITY
        verdicts["fit_stable_across_sizes"] = stable
        values["worst_fit_change"] = worst_change
    return PipelineResult(
        command="ct-decay",
        table=Table(
            columns=("L", "n", "energy", "prefactor", "rate", "max_violation", "points"),
            rows=tuple(rows),
        ),
        verdicts=verdicts,
        values=values,
    )


def dos_bound_pipeline(
    delta_inv: float, L: int, window_fraction: float = 0.9
) -> PipelineResult:
    """Pointwise amplitude bound by the windowed density of states plus its decay."""
    lattice = Lattice(L)
    params = ModelParams(delta_inv=delta_inv)
    window = auto_window(params, window_fraction)
    projector = droplet_projector(params, lattice, window)
    rows = []
    worst_pointwise = -math.inf
    envelope: dict[int, float] = {}
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        dos = local_dos_by_sector(projector, n)
        vectors = projector.selections[n].vectors
        if vectors.shape[1]:
            worst_pointwise = max(
                worst_pointwise, float((vectors**2 - dos[:, None]).max())
            )
        for i, x in enumerate(basis):
            d = distance_to_clustered(x)
            rows.append((n, "+".join(str(u) for u in x) or "vacuum", d, float(dos[i])))
            envelope[d] = max(envelope.get(d, 0.0), float(dos[i]))
    fit = fit_exponential_envelope(sorted(envelope.items()))
    verdicts = {
        "amplitude_bounded_by_dos": worst_pointwise <= POINTWISE_TOL,
        "dos_decay_rate_positive": fit.mu > MIN_DECAY_RATE,
    }
    values = {
        "worst_pointwise_violation": worst_pointwise,
        "dos_decay_rate": fit.mu,
        "projector_rank": float(projector.rank),
    }
    return PipelineResult(
        command="dos-bound",
        table=Table(columns=("n", "config", "distance", "local_dos"), rows=tuple(rows)),
        verdicts=verdicts,
        values=values,
    )


def ising_entropy_pipeline(
    L: int, n_states: int = 500, seed: int = 0, witness_ns=(2, 3, 4)
) -> PipelineResult:
    """Hartley bounds for cluster-supported states plus the saturation witness."""
    lattice = Lattice(L)
    support = _droplet_support_configs(lattice)
    blocks = [
        Bipartition(lattice, lo, hi)
        for lo in lattice.sites
        for hi in range(lo, lattice.L + 1)
        if not (lo == -lattice.L and hi == lattice.L)
    ]
    rows = []
    all_hold = True
    min_slack = math.inf
    for j in range(n_states):
        rng = np.random.default_rng(np.random.SeedSequence((seed, j)))
        psi = random_state_on_configs(lattice, support, rng)
        worst = None
        for part in blocks:
            report = hartley_bound_check(psi, part)
            if worst is None or report.slack < worst[0]:
                worst = (report.slack, part, report.value, report.boundary_bound)
        slack, part, value, bound = worst
        min_slack = min(min_slack, slack)
        all_hold = all_hold and slack >= -1e-9
        rows.append(("random", j, part.lo, part.hi, value, bound, slack))
    witness_ok = True
    for n in witness_ns:
        psi = uniform_cluster_state(lattice, n)
        part = centered_block(lattice, n)
        report = hartley_bound_check(psi, part, n=n)
        bound = report.particle_bound
        achieved = report.value
        gap = bound - achieved
        witness_ok = witness_ok and gap <= math.log(2.0) + 1e-12
        rows.append(("witness", n, part.lo, part.hi, achieved, bound, gap))
    verdicts = {
        "hartley_bounds_hold": all_hold,
        "witness_saturates_bound": witness_ok,
    }
    return PipelineResult(
        command="ising-entropy",
        table=Table(
            columns=("kind", "index", "block_lo", "block_hi", "entropy", "bound", "slack"),
            rows=tuple(rows),
        ),
        verdicts=verdicts,
        values={"min_slack": min_slack},
    )


def entropy_scan_pipeline(
    delta_inv: float,
    L: int,
    block_sizes=None,
    alphas=(0.0, 0.5, 1.0, 2.0),
    seed: int = 0,
    n_random: int = 64,
    window_fraction: float = 0.9,
) -> PipelineResult:
    """Entropy growth over block sizes with the concave-log fit verdicts."""
    lattice = Lattice(L)
    params = ModelParams(delta_inv=delta_inv)
    window = auto_window(params, window_fraction)
    if block_sizes is None:
        block_sizes = tuple(range(2, min(6, lattice.size - 2) + 1))
    block_sizes = tuple(block_sizes)
    scan = entropy_scan(
        params, lattice, window, block_sizes, alphas, seed=seed, n_random=n_random
    )
    rows = [
        (r.block_size, r.n, r.alpha, r.max_entropy, r.states) for r in scan.rows
    ]
    verdicts: dict[str, bool] = {}
    values: dict[str, float] = {}
    monotone = True
    keyed: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for r in scan.rows:
        keyed.setdefault((r.block_size, r.n), []).append((r.alpha, r.max_entropy))
    # Monotonicity applies per state, so compare the per-(B, n) maxima loosely:
    # the max over a family is still nonincreasing in alpha.
    for pairs in keyed.values():
        pairs.sort()
        for (_, a), (_, b) in zip(pairs, pairs[1:]):
            monotone = monotone and b <= a + 1e-9
    verdicts["alpha_monotonicity"] = monotone
    for alpha, fit in scan.fits.items():
        tag = f"alpha_{alpha:g}"
        values[f"fit_scale_{tag}"] = fit.scale
        values[f"fit_offset_{tag}"] = fit.offset
        values[f"fit_slope_{tag}"] = fit.slope
        values[f"fit_max_residual_{tag}"] = fit.max_residual
    if 1.0 in scan.fits:
        verdicts["log_fit_residual_small"] = scan.fits[1.0].max_residual < SCAN_RESIDUAL_TOL
        big = max(block_sizes)
        ref_candidates = [b for b in block_sizes if b * 2 <= big]
        if ref_candidates:
            ref = max(ref_candidates)
            max_big = max(r.max_entropy for r in scan.rows if r.alpha == 1.0 and r.block_size == big)
            max_ref = max(r.max_entropy for r in scan.rows if r.alpha == 1.0 and r.block_size == ref)
            ratio = max_big / max_ref if max_ref > 0 else math.inf
            verdicts["growth_sublinear"] = ratio < big / ref
            values["entropy_ratio"] = ratio
            values["block_ratio"] = big / ref
    notes = ()
    if scan.empty_sectors:
        notes = (f"window selection empty in sectors {list(scan.empty_sectors)}",)
    return PipelineResult(
        command="entropy-scan",
        table=Table(
            columns=("block", "n", "alpha", "max_entropy", "states"), rows=tuple(rows)
        ),
        verdicts=verdicts,
        values=values,
        notes=notes,
    )


def droplet_band_pipeline(delta_inv: float, L: int, n_list=(3, 4, 5, 6)) -> PipelineResult:
    """Band width and gap trends for the square-root boundary variant."""
    lattice = Lattice(L)
    n_list = tuple(n_list)
    rows = []
    widths = []
    gaps = []
    for n in n_list:
        report = droplet_spectrum_report(delta_inv, lattice, n)
        trendrow = (
            n,
            report.lowest_count,
            report.band_center,
            report.band_width,
            report.gap,
            (1.0 - delta_inv) - report.gap,
        )
        rows.append(trendrow)
        widths.append(report.band_width)
        gaps.append(report.gap)
    trend = gap_limit_check(delta_inv, lattice, n_list)
    verdicts = {
        "band_width_shrinks": all(b < a for a, b in zip(widths, widths[1:])),
        "gap_increases": trend.gap_increasing,
        "gap_saturates_near_limit": trend.limit_reached,
    }
    return PipelineResult(
        command="droplet-band",
        table=Table(
            columns=("n", "lowest_count", "band_center", "band_width", "gap", "deficit"),
            rows=tuple(rows),
        ),
        verdicts=verdicts,
        values={"final_gap": gaps[-1]},
    )


def disorder_dos_pipeline(
    delta_inv: float,
    L: int,
    spec: DisorderSpec,
    probe_ns=(1, 2, 3, 4),
    window_fraction: float = 0.9,
    j_max: float | None = None,
) -> PipelineResult:
    """Averaged windowed density of states at cluster probes, decaying in n.

    The averaged claim holds for any compact energy window; by default the
    droplet window is widened by twice the field mean so that higher probes
    keep sampleable weight.
    """
    lattice = Lattice(L)
    template = ModelParams(delta_inv=delta_inv)
    if j_max is None:
        j_max = auto_window(template, window_fraction).e_max + 2.0 * spec.mean
    window = DropletWindow(j_max)
    probes = {n: centered_cluster(lattice, n) for n in probe_ns}
    result = dos_decay_experiment(spec, template, lattice, window, probes)
    rows = [
        (n, mean, se if se is not None else math.nan)
        for n, mean, se in zip(result.probe_ns, result.means, result.stderrs)
    ]
    verdicts: dict[str, bool] = {}
    notes: list[str] = []
    values = {
        "decay_rate": result.decay_rate,
        "decay_rate_stderr": result.decay_rate_stderr,
    }
    if result.nontrivial_support:
        verdicts["averaged_dos_decays"] = result.decay_rate > 0
        if math.isfinite(result.decay_rate_stderr):
            verdicts["decay_rate_significant"] = (
                result.decay_rate_stderr < result.decay_rate / 2
            )
    else:
        notes.append(
            "field support is a point mass: the decay claim requires non-trivial "
            "support, decay verdicts skipped"
        )
    return PipelineResult(
        command="disorder-dos",
        table=Table(columns=("n", "mean_dos", "stderr"), rows=tuple(rows)),
        verdicts=verdicts,
        values=values,
        notes=tuple(notes),
    )


def area_law_pipeline(
    delta_inv: float,
    L: int,
    spec: DisorderSpec,
    block_sizes=(2, 3, 4, 5),
    alpha: float = 1.0,
    epsilon: float = 0.5,
    contrast: bool = True,
    window_fraction: float = 0.9,
    n_random: int = 64,
    ascent_steps: int = 20,
) -> PipelineResult:
    """Flatness in block size of the averaged exponentiated entropy supremum."""
    lattice = Lattice(L)
    template = ModelParams(delta_inv=delta_inv)
    window = auto_window(template, window_fraction)
    result = area_law_experiment(
        spec, template, lattice, window, block_sizes, alpha, epsilon,
        n_random=n_random, ascent_steps=ascent_steps,
    )
    rows = [
        (spec.kind, b, mean, se if se is not None else math.nan)
        for b, mean, se in zip(result.block_sizes, result.means, result.stderrs)
    ]
    verdicts = {"averaged_sup_flat": result.flat}
    values = {
        "trend_slope": result.trend_slope,
        "trend_slope_stderr": result.trend_slope_stderr,
        "empty_subspace_samples": float(result.empty_subspace_samples),
    }
    notes: list[str] = []
    if not result.nontrivial_support:
        notes.append("field support is a point mass: flatness is not the claimed regime")
    if result.trend_slope_stderr > result.trend_tol / 2:
        notes.append(
            f"trend slope stderr {result.trend_slope_stderr:.4f} exceeds trend_tol/2 = "
            f"{result.trend_tol / 2:.4f}: too few samples to resolve the tolerance, "
            "a flat verdict does not show the slope is below it"
        )
    if contrast:
        zero_spec = DisorderSpec.constant(0.0, 1, spec.master_seed)
        zero = area_law_experiment(
            zero_spec, template, lattice, window, block_sizes, alpha, epsilon,
            n_random=n_random, ascent_steps=ascent_steps,
        )
        for b, mean, se in zip(zero.block_sizes, zero.means, zero.stderrs):
            rows.append(("constant0", b, mean, se if se is not None else math.nan))
        verdicts["deterministic_contrast_grows"] = zero.trend_slope > zero.trend_tol
        values["zero_disorder_slope"] = zero.trend_slope
    return PipelineResult(
        command="area-law",
        table=Table(columns=("disorder", "block", "mean_exp_entropy", "stderr"), rows=tuple(rows)),
        verdicts=verdicts,
        values=values,
        notes=tuple(notes),
    )


def sum_constants_pipeline(
    mus=(0.5, 1.0, 2.0), ns=(2, 3, 4), b_lengths=(2, 3, 4), L: int = 5
) -> PipelineResult:
    """All three configuration-sum bounds on a grid, with window stability."""
    lattice = Lattice(L)
    rows = []
    all_hold = True
    all_stable = True
    for mu in mus:
        constant = displacement_sum_constant(mu)
        for n in ns:
            check = check_displacement_sum(mu, n)
            rows.append(("displacement", mu, n, 0, check.lhs, check.bound, check.doubling_delta))
            all_hold = all_hold and check.holds
            all_stable = all_stable and check.stable
            for b in b_lengths:
                check = check_straddling_sum(mu, n, b)
                rows.append(("straddling", mu, n, b, check.lhs, check.bound, check.doubling_delta))
                all_hold = all_hold and check.holds
                all_stable = all_stable and check.stable
            check = check_edge_weighted_sum(mu, n, lattice)
            rows.append(("edge", mu, n, 0, check.lhs, check.bound, check.doubling_delta))
            all_hold = all_hold and check.holds
        rows.append(("constant", mu, 0, 0, constant.value, constant.value, constant.tail_bound))
    verdicts = {"summability_bounds_hold": all_hold, "windows_stable": all_stable}
    return PipelineResult(
        command="sum-constants",
        table=Table(
            columns=("check", "mu", "n", "b", "lhs", "bound", "delta"), rows=tuple(rows)
        ),
        verdicts=verdicts,
        values={},
    )


def evolve_entropy_pipeline(
    delta_inv: float,
    L: int,
    times=(0.0, 1.0, 10.0, 100.0),
    n_states: int = 5,
    block_sizes=None,
    seed: int = 0,
    window_fraction: float = 0.9,
    n_random: int = 64,
) -> PipelineResult:
    """Entropy of evolving low-energy states against the fitted log envelope."""
    lattice = Lattice(L)
    params = ModelParams(delta_inv=delta_inv)
    window = auto_window(params, window_fraction)
    if block_sizes is None:
        block_sizes = tuple(range(2, min(6, lattice.size - 2) + 1))
    block_sizes = tuple(block_sizes)
    spectra = sector_spectra(params, lattice)
    projector = droplet_projector(params, lattice, window)
    scan = entropy_scan(
        params, lattice, window, block_sizes, (1.0,), seed=seed,
        n_random=n_random, projector=projector,
    )
    fit = scan.fits[1.0]
    rows = []
    bounded = True
    worst_headroom = math.inf
    for j in range(n_states):
        rng = np.random.default_rng(np.random.SeedSequence((seed, j, 11)))
        psi = random_droplet_state(projector, rng)
        n_cap = psi.n_max
        for t in times:
            psi_t = evolve(spectra, psi, t)
            for b in block_sizes:
                part = centered_block(lattice, b)
                s1 = renyi_entropy(matricize(psi_t, part), 1.0).value
                bound = fit.envelope(min(n_cap, b, lattice.size - b)) + DYNAMICS_HEADROOM
                rows.append((j, t, b, s1, bound, bound - s1))
                worst_headroom = min(worst_headroom, bound - s1)
                bounded = bounded and s1 <= bound
    verdicts = {"dynamics_stay_below_envelope": bounded}
    return PipelineResult(
        command="evolve-entropy",
        table=Table(
            columns=("state", "t", "block", "entropy", "envelope", "headroom"),
            rows=tuple(rows),
        ),
        verdicts=verdicts,
        values={"worst_headroom": worst_headroom},
    )


def verify_all_pipeline(
    L: int = 4,
    delta_inv: float = 0.1,
    seed: int = 0,
    disorder_samples: int = 60,
    area_samples: int = 30,
) -> PipelineResult:
    """Every pipeline at desk scale; verdicts are merged under stage prefixes."""
    stages = [
        ("spectrum", lambda: spectrum_pipeline(L, delta_inv)),
        ("thresholds", lambda: thresholds_pipeline(L, delta_inv, seed=seed)),
        ("ct-decay", lambda: ct_decay_pipeline(delta_inv, L, stability_L=L + 1)),
        ("dos-bound", lambda: dos_bound_pipeline(delta_inv, L)),
        ("ising-entropy", lambda: ising_entropy_pipeline(L, n_states=200, seed=seed)),
        ("entropy-scan", lambda: entropy_scan_pipeline(delta_inv, L, seed=seed)),
        ("droplet-band", lambda: droplet_band_pipeline(delta_inv, max(L, 5))),
        (
            "disorder-dos",
            lambda: disorder_dos_pipeline(
                delta_inv, L, DisorderSpec.uniform(0.0, 2.0, disorder_samples, seed)
            ),
        ),
        (
            # Desk-scale smoke run of the flatness check at L >= 6.  Its
            # 30 samples leave a slope stderr of about 0.03, so the verdict
            # cannot resolve the 0.05 tolerance (the stage notes this).  The
            # averaged sup still rises over blocks 2..5 at every L measured
            # (5 to 8), so the larger L is no finite-size cure; see the
            # README's acceptance-status section.
            "area-law",
            lambda: area_law_pipeline(
                delta_inv,
                max(L, 6),
                DisorderSpec.uniform(0.0, 2.0, area_samples, seed),
                block_sizes=(2, 3, 4, 5),
            ),
        ),
        ("sum-constants", lambda: sum_constants_pipeline(L=L)),
        ("evolve-entropy", lambda: evolve_entropy_pipeline(delta_inv, L, seed=seed)),
    ]
    rows = []
    verdicts = {}
    values = {}
    notes = []
    for name, runner in stages:
        result = runner()
        for key, ok in result.verdicts.items():
            verdicts[f"{name}.{key}"] = ok
            rows.append((name, key, int(ok)))
        for key, val in result.values.items():
            values[f"{name}.{key}"] = val
        notes.extend(f"{name}: {note}" for note in result.notes)
    return PipelineResult(
        command="verify-all",
        table=Table(columns=("stage", "verdict", "passed"), rows=tuple(rows)),
        verdicts=verdicts,
        values=values,
        notes=tuple(notes),
    )
