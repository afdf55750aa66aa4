"""Command-line harness: argument parsing, result records, caching.

Each run resolves its configuration, hashes the canonical serialization, and
writes two files under the output directory: a flat CSV table and a
structured-text summary embedding the config, verdicts and key values.  With
caching enabled an identical configuration is served bit-identically from the
cache directory (flag, then DROPLET_LAB_CACHE, then ./results/cache).

Exit codes: 0 all verdicts pass, 2 at least one verdict failed, 3 no verdict
was checked, 1 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import pipelines
from .disorder import DisorderSpec
from .errors import DropletLabError
from .pipelines import PipelineResult, Table

VERSION = "0.1.0"
EXIT_NO_VERDICTS = 3
NO_VERDICTS_NOTE = "no verdict was checked: this run verifies nothing"

COMMANDS = (
    "spectrum",
    "thresholds",
    "ct-decay",
    "dos-bound",
    "ising-entropy",
    "entropy-scan",
    "droplet-band",
    "disorder-dos",
    "area-law",
    "sum-constants",
    "evolve-entropy",
    "verify-all",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the harness wants 1
        raise UsageError(message)


def format_number(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class ResultRecord:
    command: str
    config_hash: str
    version: str
    timestamp: str
    config: dict
    verdicts: dict
    values: dict
    notes: tuple
    table_rows: int

    @property
    def exit_code(self) -> int:
        if not self.verdicts:
            return EXIT_NO_VERDICTS
        return 0 if all(self.verdicts.values()) else 2


@functools.cache
def source_digest() -> str:
    """SHA-256 over the package's source files, computed once per process on first use."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def canonical_config(command: str, options: dict) -> str:
    """The serialization the cache key hashes: command, options, version and source digest."""
    return json.dumps(
        {"command": command, "options": options, "version": VERSION, "source": source_digest()},
        sort_keys=True,
        separators=(",", ":"),
    )


def cache_key(command: str, options: dict) -> str:
    return hashlib.sha256(canonical_config(command, options).encode()).hexdigest()[:16]


def render_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def render_summary(record: ResultRecord) -> str:
    lines = ["droplet-lab result record"]
    lines.append(f"command: {record.command}")
    lines.append(f"config-hash: {record.config_hash}")
    lines.append(f"artifact-version: {record.version}")
    lines.append(f"timestamp: {record.timestamp}")
    lines.append("config:")
    for key in sorted(record.config):
        lines.append(f"  {key}: {json.dumps(record.config[key])}")
    lines.append("verdicts:")
    for key in sorted(record.verdicts):
        lines.append(f"  {key}: {'PASS' if record.verdicts[key] else 'FAIL'}")
    lines.append("values:")
    for key in sorted(record.values):
        lines.append(f"  {key}: {format_number(record.values[key])}")
    lines.append("notes:")
    for note in record.notes:
        lines.append(f"  - {note}")
    lines.append(f"table-rows: {record.table_rows}")
    return "\n".join(lines) + "\n"


def parse_summary(text: str) -> ResultRecord:
    """Inverse of render_summary (the timestamp is carried verbatim)."""
    lines = text.splitlines()
    head = {}
    config = {}
    verdicts = {}
    values = {}
    notes = []
    section = None
    for line in lines[1:]:
        if not line.startswith("  "):
            key, _, rest = line.partition(":")
            rest = rest.strip()
            if key in ("config", "verdicts", "values", "notes"):
                section = key
            else:
                head[key] = rest
                section = None
            continue
        body = line[2:]
        if section == "notes":
            notes.append(body[2:])
            continue
        key, _, rest = body.partition(":")
        rest = rest.strip()
        if section == "config":
            config[key] = json.loads(rest)
        elif section == "verdicts":
            verdicts[key] = rest == "PASS"
        elif section == "values":
            values[key] = float(rest)
    return ResultRecord(
        command=head["command"],
        config_hash=head["config-hash"],
        version=head["artifact-version"],
        timestamp=head["timestamp"],
        config=config,
        verdicts=verdicts,
        values=values,
        notes=tuple(notes),
        table_rows=int(head["table-rows"]),
    )


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def resolve_cache_dir(flag_value: str | None, outdir: Path) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("DROPLET_LAB_CACHE")
    if env:
        return Path(env)
    return Path("results") / "cache"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--L", type=int, default=4, help="lattice half-length")
    parser.add_argument("--delta-inv", type=float, default=0.1, help="inverse anisotropy in [0, 1)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--cache-dir", default=None, help="cache directory override")
    parser.add_argument(
        "--window-fraction",
        type=float,
        default=0.9,
        help="window edge as a fraction of 2(1 - 3*delta_inv)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="droplet-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="sector spectra, zero mode, oracle agreement")
    _add_common(p)
    p.add_argument("--boundary-mode", choices=("standard", "droplet"), default="standard")

    p = sub.add_parser("thresholds", help="cluster-count energy thresholds")
    _add_common(p)
    p.add_argument("--k", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--field-draws", type=int, default=3)

    p = sub.add_parser("ct-decay", help="restricted resolvent decay fits")
    _add_common(p)
    p.add_argument("--n", type=int, nargs="+", default=[2, 3])
    p.add_argument("--stability-L", type=int, default=None, help="second size (0 disables)")

    p = sub.add_parser("dos-bound", help="windowed density of states decay")
    _add_common(p)

    p = sub.add_parser("ising-entropy", help="Hartley bounds for cluster states")
    _add_common(p)
    p.add_argument("--states", type=int, default=500)
    p.add_argument("--witness-n", type=int, nargs="+", default=[2, 3, 4])

    p = sub.add_parser("entropy-scan", help="entropy growth over block sizes")
    _add_common(p)
    p.add_argument("--block-sizes", type=int, nargs="+", default=None)
    p.add_argument("--alphas", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0])
    p.add_argument("--n-random", type=int, default=64)

    p = sub.add_parser("droplet-band", help="square-root boundary band structure")
    _add_common(p)
    p.add_argument("--n-list", type=int, nargs="+", default=[3, 4, 5, 6])

    p = sub.add_parser("disorder-dos", help="averaged density of states decay in n")
    _add_common(p)
    p.add_argument("--dist", choices=("uniform", "bernoulli", "constant"), default="uniform")
    p.add_argument("--dist-a", type=float, default=0.0)
    p.add_argument("--dist-b", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--probe-n", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--j-max", type=float, default=None, help="window edge (default: droplet edge + 2 x field mean)")

    p = sub.add_parser("area-law", help="averaged exponentiated entropy flatness")
    _add_common(p)
    p.add_argument("--dist", choices=("uniform", "bernoulli", "constant"), default="uniform")
    p.add_argument("--dist-a", type=float, default=0.0)
    p.add_argument("--dist-b", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--block-sizes", type=int, nargs="+", default=[2, 3, 4, 5])
    p.add_argument("--contrast", action=argparse.BooleanOptionalAction, default=True)

    p = sub.add_parser("sum-constants", help="configuration-sum bounds")
    _add_common(p)
    p.add_argument("--mu", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--n", type=int, nargs="+", default=[2, 3, 4])
    p.add_argument("--b", type=int, nargs="+", default=[2, 3, 4])

    p = sub.add_parser("evolve-entropy", help="dynamic entropy under the log envelope")
    _add_common(p)
    p.add_argument("--times", type=float, nargs="+", default=[0.0, 1.0, 10.0, 100.0])
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--block-sizes", type=int, nargs="+", default=None)

    p = sub.add_parser("verify-all", help="run every pipeline at desk scale")
    _add_common(p)
    p.add_argument("--disorder-samples", type=int, default=60)
    p.add_argument("--area-samples", type=int, default=30)
    return parser


def _disorder_spec(args, samples: int) -> DisorderSpec:
    if args.dist == "uniform":
        return DisorderSpec.uniform(args.dist_a, args.dist_b, samples, args.seed)
    if args.dist == "bernoulli":
        return DisorderSpec.bernoulli(args.dist_a, args.dist_b, samples, args.seed)
    return DisorderSpec.constant(args.dist_a, samples, args.seed)


def _options_dict(args) -> dict:
    skip = {"command", "outdir", "cache", "cache_dir"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, list):
            value = list(value)
        out[key] = value
    return out


def _dispatch(args) -> PipelineResult:
    cmd = args.command
    if cmd == "spectrum":
        return pipelines.spectrum_pipeline(args.L, args.delta_inv, args.boundary_mode)
    if cmd == "thresholds":
        return pipelines.thresholds_pipeline(
            args.L, args.delta_inv, ks=tuple(args.k), field_draws=args.field_draws, seed=args.seed
        )
    if cmd == "ct-decay":
        stability = args.stability_L
        if stability is None:
            stability = args.L + 1
        if stability == 0:
            stability = None
        return pipelines.ct_decay_pipeline(
            args.delta_inv,
            args.L,
            n_values=tuple(args.n),
            stability_L=stability,
            window_fraction=args.window_fraction,
        )
    if cmd == "dos-bound":
        return pipelines.dos_bound_pipeline(args.delta_inv, args.L, args.window_fraction)
    if cmd == "ising-entropy":
        return pipelines.ising_entropy_pipeline(
            args.L, n_states=args.states, seed=args.seed, witness_ns=tuple(args.witness_n)
        )
    if cmd == "entropy-scan":
        return pipelines.entropy_scan_pipeline(
            args.delta_inv,
            args.L,
            block_sizes=None if args.block_sizes is None else tuple(args.block_sizes),
            alphas=tuple(args.alphas),
            seed=args.seed,
            n_random=args.n_random,
            window_fraction=args.window_fraction,
        )
    if cmd == "droplet-band":
        return pipelines.droplet_band_pipeline(args.delta_inv, args.L, tuple(args.n_list))
    if cmd == "disorder-dos":
        return pipelines.disorder_dos_pipeline(
            args.delta_inv,
            args.L,
            _disorder_spec(args, args.samples),
            probe_ns=tuple(args.probe_n),
            window_fraction=args.window_fraction,
            j_max=args.j_max,
        )
    if cmd == "area-law":
        return pipelines.area_law_pipeline(
            args.delta_inv,
            args.L,
            _disorder_spec(args, args.samples),
            block_sizes=tuple(args.block_sizes),
            alpha=args.alpha,
            epsilon=args.epsilon,
            contrast=args.contrast,
            window_fraction=args.window_fraction,
        )
    if cmd == "sum-constants":
        return pipelines.sum_constants_pipeline(
            mus=tuple(args.mu), ns=tuple(args.n), b_lengths=tuple(args.b), L=args.L
        )
    if cmd == "evolve-entropy":
        return pipelines.evolve_entropy_pipeline(
            args.delta_inv,
            args.L,
            times=tuple(args.times),
            n_states=args.states,
            block_sizes=None if args.block_sizes is None else tuple(args.block_sizes),
            seed=args.seed,
            window_fraction=args.window_fraction,
        )
    if cmd == "verify-all":
        return pipelines.verify_all_pipeline(
            L=args.L,
            delta_inv=args.delta_inv,
            seed=args.seed,
            disorder_samples=args.disorder_samples,
            area_samples=args.area_samples,
        )
    raise UsageError(f"unknown command {cmd!r}")


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1

    options = _options_dict(args)
    key = cache_key(args.command, options)
    outdir = Path(args.outdir)
    csv_name = f"{args.command}-{key}.csv"
    summary_name = f"{args.command}-{key}.summary.txt"

    if args.cache:
        cache_dir = resolve_cache_dir(args.cache_dir, outdir)
        cached_summary = cache_dir / summary_name
        cached_csv = cache_dir / csv_name
        if cached_summary.exists() and cached_csv.exists():
            summary_text = cached_summary.read_text(encoding="utf-8")
            _atomic_write(outdir / summary_name, summary_text)
            _atomic_write(outdir / csv_name, cached_csv.read_text(encoding="utf-8"))
            record = parse_summary(summary_text)
            print(f"cache hit: {outdir / summary_name}")
            return record.exit_code

    try:
        result = _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DropletLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = ResultRecord(
        command=args.command,
        config_hash=key,
        version=VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(),
        config=options,
        verdicts=dict(result.verdicts),
        values=dict(result.values),
        notes=tuple(result.notes) + (() if result.verdicts else (NO_VERDICTS_NOTE,)),
        table_rows=len(result.table.rows),
    )
    summary_text = render_summary(record)
    csv_text = render_csv(result.table)
    _atomic_write(outdir / summary_name, summary_text)
    _atomic_write(outdir / csv_name, csv_text)
    if args.cache:
        cache_dir = resolve_cache_dir(args.cache_dir, outdir)
        _atomic_write(cache_dir / summary_name, summary_text)
        _atomic_write(cache_dir / csv_name, csv_text)
    for name in sorted(record.verdicts):
        print(f"{name}: {'PASS' if record.verdicts[name] else 'FAIL'}")
    if not record.verdicts:
        print(f"warning: {NO_VERDICTS_NOTE}", file=sys.stderr)
    print(f"record: {outdir / summary_name}")
    return record.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
