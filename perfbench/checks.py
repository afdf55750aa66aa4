"""Correctness checks made apart from the program.

Sector matrices are assembled here from bit masks, without the program's
`assemble_sector`: a configuration of the N = 2L + 1 sites is an integer whose
bit N - 1 - (u + L) is set when site u is occupied, the same order as the
tensor-product index of `assemble_full_oracle`.  Window ranks are counted with
LDL^T inertia (Sylvester's law), and entropies of in-window eigenvectors come
from a reshape of the full 2^N amplitude vector.

Run as a script, it replays the first samples of one area-law invocation
through the CLI, captures what `droplet_projector` and `droplet_sup_entropy`
return, and checks them against these independent computations:

    python3 perfbench/checks.py --argv '<area-law argv as JSON>' --out checks.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math

import numpy as np
import scipy.linalg

EDGE_TOL = 1e-12  # the program's window edge tolerance (spectral.EDGE_TIE_TOL)
ENTROPY_TOL = 1e-9


def sector_configs(N: int, n: int) -> np.ndarray:
    """All N-site bit masks with n bits set, ascending."""
    masks = np.arange(1 << N, dtype=np.int64)
    counts = np.zeros_like(masks)
    for j in range(N):
        counts += (masks >> j) & 1
    return masks[counts == n]


def occupations(configs: np.ndarray, N: int) -> np.ndarray:
    """Occupation numbers, column j for site index j (site u = j - L)."""
    return (configs[:, None] >> (N - 1 - np.arange(N))) & 1


def sector_matrix(N: int, n: int, delta_inv: float, beta: float, field: np.ndarray) -> np.ndarray:
    """Dense sector matrix in ascending bit-mask order.

    Diagonal: half the domain walls, beta per occupied end site, and the
    on-site field of every particle; one hop into an empty neighbour couples
    with -delta_inv / 2.  `field` is indexed by site index j.
    """
    configs = sector_configs(N, n)
    occ = occupations(configs, N)
    walls = np.sum(occ[:, 1:] != occ[:, :-1], axis=1)
    diagonal = 0.5 * walls + beta * (occ[:, 0] + occ[:, -1]) + occ @ np.asarray(field, dtype=float)
    H = np.diag(diagonal)
    for j in range(N - 1):
        src = np.nonzero(occ[:, j] != occ[:, j + 1])[0]
        bond = (1 << (N - 1 - j)) | (1 << (N - 2 - j))
        dst = np.searchsorted(configs, configs[src] ^ bond)
        H[src, dst] = -0.5 * delta_inv
    return H


def count_below(H: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of symmetric H below sigma, from LDL^T inertia."""
    if len(H) == 0:
        return 0
    _, d, _ = scipy.linalg.ldl(H - sigma * np.eye(len(H)))
    negative = 0
    i = 0
    while i < len(d):
        if i + 1 < len(d) and d[i + 1, i] != 0.0:
            negative += int(np.sum(np.linalg.eigvalsh(d[i : i + 2, i : i + 2]) < 0))
            i += 2
        else:
            negative += int(d[i, i] < 0)
            i += 1
    return negative


def window_count(H: np.ndarray, e_max: float) -> int:
    """Eigenvalues in [-EDGE_TOL, e_max + EDGE_TOL]."""
    return count_below(H, e_max + EDGE_TOL) - count_below(H, -EDGE_TOL)


def block_entropy(vector: np.ndarray, configs: np.ndarray, N: int, block: list[int], alpha: float) -> float:
    """Renyi entropy of a sector vector across the cut between `block` site indices and the rest."""
    full = np.zeros(1 << N)
    full[configs] = vector
    tensor = full.reshape((2,) * N)
    rest = [j for j in range(N) if j not in block]
    matrix = tensor.transpose(block + rest).reshape(1 << len(block), -1)
    p = np.linalg.svd(matrix, compute_uv=False) ** 2
    p = p[p > 0] / p.sum()
    if alpha == 1:
        return float(-np.sum(p * np.log(p)))
    if alpha == 0:
        return float(np.log(np.sum(p > 1e-12 * p[0])))
    return float(np.log(np.sum(p**alpha)) / (1.0 - alpha))


def check_sample(sample: dict) -> list[str]:
    """Problems found in one captured sample; empty when every check passes.

    `sample` holds the model (L, delta_inv, beta, field by site index), the
    window edge, the rank the program's projector reported, and its sup
    estimates as (block site indices, alpha, value).
    """
    L = sample["L"]
    N = 2 * L + 1
    field = np.asarray(sample["field"], dtype=float)
    e_max = sample["e_max"]
    problems = []
    counts = {}
    vectors = {}
    for n in range(N + 1):
        H = sector_matrix(N, n, sample["delta_inv"], sample["beta"], field)
        counts[n] = window_count(H, e_max)
        if counts[n]:
            _, v = scipy.linalg.eigh(H, subset_by_value=(-EDGE_TOL, e_max + EDGE_TOL))
            vectors[n] = v
    rank = sum(counts.values())
    if rank != sample["rank"]:
        problems.append(f"window rank {sample['rank']} reported, {rank} counted by LDL inertia")
    for n, v in vectors.items():
        if v.shape[1] != counts[n]:
            problems.append(f"sector {n}: eigh found {v.shape[1]} in-window pairs, inertia {counts[n]}")
    n_max = max((n for n, c in counts.items() if c), default=0)
    for block, alpha, value in sample["sups"]:
        eigen_max = max(
            (
                block_entropy(v[:, k], sector_configs(N, n), N, list(block), alpha)
                for n, v in vectors.items()
                for k in range(v.shape[1])
            ),
            default=0.0,
        )
        if value < eigen_max - ENTROPY_TOL:
            problems.append(f"block {block}: sup {value!r} below in-window eigenstate entropy {eigen_max!r}")
        rows = sum(math.comb(len(block), k) for k in range(min(n_max, len(block)) + 1))
        if value > math.log(rows) + ENTROPY_TOL:
            problems.append(f"block {block}: sup {value!r} above ln({rows}) for n_max={n_max}")
    return problems


def capture_samples(argv: list[str]) -> list[dict]:
    """Run one CLI invocation and capture each sample's projector and sup estimates."""
    from droplet_lab import cli, disorder

    samples: list[dict] = []
    projector_fn = disorder.droplet_projector
    sup_fn = disorder.droplet_sup_entropy

    def projector(params, lattice, window, *args, **kwargs):
        result = projector_fn(params, lattice, window, *args, **kwargs)
        if params.boundary_mode != "standard":
            raise ValueError("the independent assembler covers the standard boundary mode only")
        samples.append(
            {
                "L": lattice.L,
                "delta_inv": params.delta_inv,
                "beta": 0.5 * (1.0 - params.delta_inv),
                "field": [float((params.field or {}).get(u, 0.0)) for u in lattice.sites],
                "e_max": window.e_max,
                "rank": int(result.rank),
                "sups": [],
            }
        )
        return result

    def sup(projector_obj, part, alpha, *args, **kwargs):
        estimate = sup_fn(projector_obj, part, alpha, *args, **kwargs)
        L = part.lattice.L
        samples[-1]["sups"].append(([u + L for u in part.sites], alpha, float(estimate.value)))
        return estimate

    disorder.droplet_projector, disorder.droplet_sup_entropy = projector, sup
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
    finally:
        disorder.droplet_projector, disorder.droplet_sup_entropy = projector_fn, sup_fn
    if code not in (0, 2):
        raise RuntimeError(f"check invocation exited {code}")
    return samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--argv", required=True, help="area-law CLI arguments as a JSON list")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    samples = capture_samples(json.loads(args.argv))
    problems = [] if samples else ["no droplet_projector call was captured"]
    for i, sample in enumerate(samples):
        if not sample["sups"] and sample["rank"]:
            problems.append(f"sample {i}: no sup estimate was captured")
        problems.extend(f"sample {i}: {p}" for p in check_sample(sample))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"samples": len(samples), "problems": problems}, handle)


if __name__ == "__main__":
    main()
