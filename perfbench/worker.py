"""One workload in a fresh process: set-up, then timed CLI invocations.

The set-up time runs from before `import droplet_lab` to the end of the
sector-basis enumeration of the workload's lattice.  The timed phase then
calls `droplet_lab.cli.run` round after round until the next round would
end past `--seconds`; with `--trace 1` every public function of the package
is wrapped first (see tracer.py).  The record goes to `--out` as JSON:

    python3 perfbench/worker.py --workload disorder-L4 --seed 0 --seconds 20 \
        --trace 0 --outroot .perfbench_out/run --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# name: (lattice half-length, CLI arguments after the command, disorder
# samples drawn per round, whether a cached rerun follows each cold run)
WORKLOADS = {
    "disorder-L6": (6, ["area-law", "--L", "6", "--no-contrast", "--samples", "2"], 2, False),
    "disorder-L4": (4, ["area-law", "--L", "4", "--no-contrast", "--samples", "100"], 100, False),
    # 2 area-law samples and the 1-sample contrast at L=6, 60 disorder-dos samples at L=4.
    "verify-all-L4": (4, ["verify-all", "--L", "4", "--area-samples", "2"], 63, True),
}


def program_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def round_argvs(workload: str, seed: int, round_index: int, outroot: Path) -> list[list[str]]:
    """The invocations of one round, each with its own output directory and a fresh cache."""
    _, args, _, rerun = WORKLOADS[workload]
    base = outroot / f"round{round_index}"
    common = args + ["--seed", str(program_seed(seed, round_index)), "--cache-dir", str(base / "cache")]
    argvs = [common + ["--outdir", str(base / "cold")]]
    if rerun:
        argvs.append(common + ["--outdir", str(base / "warm")])
    return argvs


def invoke(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        error = None
    except Exception as exc:  # a crash is a failed invocation, not a benchmark crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    return {
        "argv": argv,
        "code": code,
        "error": error,
        "seconds": seconds,
        "first_line": lines[0] if lines else "",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outroot", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import droplet_lab
    import droplet_lab.cli
    from droplet_lab.configspace import Lattice, enumerate_sector

    L = WORKLOADS[args.workload][0]
    lattice = Lattice(L)
    for n in range(lattice.size + 1):
        enumerate_sector(lattice, n)
    record = {"setup_s": time.perf_counter() - t0, "package": droplet_lab.__file__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            record["wrapped_functions"] = tracer.install(droplet_lab)
        invocations = []
        rounds = 0
        start = time.perf_counter()
        while True:
            for argv in round_argvs(args.workload, args.seed, rounds, Path(args.outroot)):
                invocations.append(invoke(droplet_lab.cli, argv))
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
        record.update(
            rounds=rounds,
            invocations=invocations,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            from tracer import layer_metrics

            record["layers"] = layer_metrics(tracer, rounds)
            record["spans"] = len(tracer.start)
            tracer.save(Path(args.outroot) / "spans.npz")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
