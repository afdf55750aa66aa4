"""Benchmark of droplet_lab: disorder-sample throughput and the verify-all run.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload disorder-L4 --seed 0 --seconds 20 --trace 0

One run measures one workload.  Four set-up-only processes and the timed
worker (worker.py) run one after another, then the worker's outputs are
checked and, for the disorder workloads, the first samples are replayed and
checked apart from the program (checks.py).  The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
SETUP_PROCESSES = 4
CHECK_SAMPLES = {"disorder-L6": 1, "disorder-L4": 3}
# The area-law flatness verdict passes or fails with the seed at these sample
# counts (see README.md, "Checks"); exit code 2 reports it.  Every other
# verdict must pass.
SEED_DEPENDENT_VERDICTS = {"averaged_sup_flat", "area-law.averaged_sup_flat"}
BLAS_THREADS = "1"
DEADLINE_S = 170  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env.pop("DROPLET_LAB_CACHE", None)
    return env


def run_json(argv: list[str], out: Path, deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter and read the JSON it wrote to `out`."""
    timeout = deadline - time.monotonic()
    argv = [sys.executable, *argv, "--out", str(out)]
    subprocess.run(argv, env=child_env(), check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))


def summary_verdicts(text: str) -> dict[str, bool]:
    verdicts = {}
    section = None
    for line in text.splitlines():
        if not line.startswith("  "):
            section = line.rstrip(":")
        elif section == "verdicts":
            key, _, value = line.strip().partition(": ")
            verdicts[key] = value == "PASS"
    return verdicts


def output_problems(invocation: dict, cold: dict | None) -> list[str]:
    """What is wrong with the files one invocation that exited 0 or 2 wrote."""
    argv = invocation["argv"]
    outdir = Path(argv[argv.index("--outdir") + 1])
    files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*")) if p.is_file()}
    csvs = [name for name in files if name.endswith(".csv")]
    summaries = [name for name in files if name.endswith(".summary.txt")]
    if len(csvs) != 1 or len(summaries) != 1:
        return [f"{outdir}: expected one CSV and one summary, found {sorted(files)}"]
    problems = []
    verdicts = summary_verdicts(files[summaries[0]].decode())
    failing = {name for name, ok in verdicts.items() if not ok}
    if not verdicts or failing - SEED_DEPENDENT_VERDICTS:
        problems.append(f"{outdir}: verdicts {verdicts}")
    if invocation["code"] != (2 if failing else 0):
        problems.append(f"{outdir}: exit {invocation['code']} with failing verdicts {sorted(failing)}")
    if argv[0] == "area-law":
        rows = list(csv.DictReader(files[csvs[0]].decode().splitlines()))
        if len(rows) != 4:
            problems.append(f"{outdir}: {len(rows)} block rows, expected 4")
        low = [r for r in rows if not float(r["mean_exp_entropy"]) >= 1.0]
        if low:
            problems.append(f"{outdir}: averaged exp((1-eps)S) below 1 in {low}")
    if cold is not None:
        if not invocation["first_line"].startswith("cache hit"):
            problems.append(f"{outdir}: cached rerun printed {invocation['first_line']!r}")
        cold_dir = Path(cold["argv"][cold["argv"].index("--outdir") + 1])
        for name, data in files.items():
            if not (cold_dir / name).is_file() or (cold_dir / name).read_bytes() != data:
                problems.append(f"{outdir / name} differs from the cold run's")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not Path("src/droplet_lab/__init__.py").is_file():
        print("error: run from the root of a droplet_lab checkout (src/droplet_lab not found)", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--outroot", str(run_dir)]
    setups = [
        run_json(base + ["--setup-only"], run_dir / f"setup{i}.json", deadline)["setup_s"]
        for i in range(SETUP_PROCESSES)
    ]
    record = run_json(base, run_dir / "worker.json", deadline)
    if Path(record["package"]).resolve() != Path("src/droplet_lab/__init__.py").resolve():
        print(f"error: droplet_lab was imported from {record['package']}", file=sys.stderr)
        return 2
    setups.append(record["setup_s"])

    _, _, samples, rerun = WORKLOADS[args.workload]
    invocations = record["invocations"]
    per_round = 2 if rerun else 1
    failed = 0
    problems = []
    for i, invocation in enumerate(invocations):
        if invocation["code"] not in (0, 2):
            failed += 1
            print(f"failed: {invocation['argv']}: exit {invocation['code']} {invocation['error'] or ''}")
            continue
        cold = invocations[i - 1] if i % per_round else None
        problems.extend(output_problems(invocation, cold))

    if args.workload in CHECK_SAMPLES:
        check_argv = WORKLOADS[args.workload][1][:-1] + [
            str(CHECK_SAMPLES[args.workload]), "--seed", str(program_seed(args.seed, 0)),
            "--outdir", str(run_dir / "check"), "--cache-dir", str(run_dir / "check-cache"),
        ]
        checked = run_json([str(HERE / "checks.py"), "--argv", json.dumps(check_argv)], run_dir / "checks.json", deadline)
        problems.extend(checked["problems"])

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in record["layers"].items()}
        shutil.copyfile(run_dir / "spans.npz", OUT / f"spans-{args.workload}.npz")
    else:
        cold_s = statistics.median(inv["seconds"] for inv in invocations[::per_round])
        metrics = {
            "samples_per_s": {"value": samples / cold_s, "unit": "samples/s"},
            "verify_all_s": {"value": cold_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    for problem in problems:
        print(f"problem: {problem}")
    record.update(setups=setups, problems=problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")
    shutil.rmtree(run_dir)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(invocations), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
