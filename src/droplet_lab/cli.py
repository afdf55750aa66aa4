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

from . import __version__, pipelines
from .disorder import DisorderSpec
from .errors import DropletLabError
from .pipelines import Table

EXIT_NO_VERDICTS = 3
NO_VERDICTS_NOTE = "no verdict was checked: this run verifies nothing"


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
        {"command": command, "options": options, "version": __version__, "source": source_digest()},
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


def _quote(text: str, key: bool = False) -> str:
    """`text` as a summary line carries it: verbatim, or as a JSON string.

    Verbatim text is one line without surrounding whitespace or a leading
    double quote, and a key holds no colon; anything else is written as a
    JSON string, which is ASCII and breaks no line.
    """
    verbatim = (
        text.splitlines() == [text]
        and text == text.strip()
        and not text.startswith('"')
        and not (key and ":" in text)
    )
    return text if verbatim else json.dumps(text)


def _unquote(text: str) -> str:
    return json.loads(text) if text.startswith('"') else text


def _split_entry(body: str) -> tuple[str, str]:
    """An indented `key: value` line, split at the colon that ends the key."""
    if body.startswith('"'):
        key, end = json.JSONDecoder().raw_decode(body)
        return key, body[end + 1 :].strip()
    key, _, rest = body.partition(":")
    return key, rest.strip()


def render_summary(record: ResultRecord) -> str:
    lines = ["droplet-lab result record"]
    lines.append(f"command: {_quote(record.command)}")
    lines.append(f"config-hash: {_quote(record.config_hash)}")
    lines.append(f"artifact-version: {_quote(record.version)}")
    lines.append(f"timestamp: {_quote(record.timestamp)}")
    lines.append("config:")
    for key in sorted(record.config):
        lines.append(f"  {_quote(key, key=True)}: {json.dumps(record.config[key])}")
    lines.append("verdicts:")
    for key in sorted(record.verdicts):
        lines.append(f"  {_quote(key, key=True)}: {'PASS' if record.verdicts[key] else 'FAIL'}")
    lines.append("values:")
    for key in sorted(record.values):
        lines.append(f"  {_quote(key, key=True)}: {format_number(record.values[key])}")
    lines.append("notes:")
    for note in record.notes:
        lines.append(f"  - {_quote(note)}")
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
                head[key] = _unquote(rest)
                section = None
            continue
        body = line[2:]
        if section == "notes":
            notes.append(_unquote(body[2:]))
            continue
        key, rest = _split_entry(body)
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


def resolve_cache_dir(flag_value: str | None) -> Path:
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


def _ints(*default: int) -> dict:
    return {"type": int, "nargs": "+", "default": list(default)}


def _floats(*default: float) -> dict:
    return {"type": float, "nargs": "+", "default": list(default)}


_J_MAX_HELP = "window edge (default: droplet edge + 2 x field mean)"
_DISORDER = [
    ("--dist", {"choices": ("uniform", "bernoulli", "constant"), "default": "uniform"}),
    ("--dist-a", {"type": float, "default": 0.0}),
    ("--dist-b", {"type": float, "default": 2.0}),
]


def _disorder_spec(args) -> DisorderSpec:
    if args.dist == "uniform":
        return DisorderSpec.uniform(args.dist_a, args.dist_b, args.samples, args.seed)
    if args.dist == "bernoulli":
        return DisorderSpec.bernoulli(args.dist_a, args.dist_b, args.samples, args.seed)
    return DisorderSpec.constant(args.dist_a, args.samples, args.seed)


# name: (help, arguments beyond the common ones as (flag, add_argument
# keywords), call from the parsed arguments to the pipeline).  Each call looks
# its pipeline up in `pipelines` when it runs, so a patched or wrapped
# pipeline is the one called.
COMMANDS = {
    "spectrum": (
        "sector spectra, zero mode, oracle agreement",
        [("--boundary-mode", {"choices": ("standard", "droplet"), "default": "standard"})],
        lambda a: pipelines.spectrum_pipeline(a.L, a.delta_inv, a.boundary_mode),
    ),
    "thresholds": (
        "cluster-count energy thresholds",
        [("--k", _ints(1, 2, 3)), ("--field-draws", {"type": int, "default": 3})],
        lambda a: pipelines.thresholds_pipeline(
            a.L, a.delta_inv, ks=a.k, field_draws=a.field_draws, seed=a.seed
        ),
    ),
    "ct-decay": (
        "restricted resolvent decay fits",
        [
            ("--n", _ints(2, 3)),
            ("--stability-L", {"type": int, "default": None, "help": "second size (0 disables)"}),
        ],
        lambda a: pipelines.ct_decay_pipeline(
            a.delta_inv,
            a.L,
            n_values=a.n,
            # Unset: one size up; 0: no second size.
            stability_L=a.L + 1 if a.stability_L is None else a.stability_L or None,
            window_fraction=a.window_fraction,
        ),
    ),
    "dos-bound": (
        "windowed density of states decay",
        [],
        lambda a: pipelines.dos_bound_pipeline(a.delta_inv, a.L, a.window_fraction),
    ),
    "ising-entropy": (
        "Hartley bounds for cluster states",
        [("--states", {"type": int, "default": 500}), ("--witness-n", _ints(2, 3, 4))],
        lambda a: pipelines.ising_entropy_pipeline(
            a.L, n_states=a.states, seed=a.seed, witness_ns=a.witness_n
        ),
    ),
    "entropy-scan": (
        "entropy growth over block sizes",
        [
            ("--block-sizes", {"type": int, "nargs": "+", "default": None}),
            ("--alphas", _floats(0.0, 0.5, 1.0, 2.0)),
            ("--n-random", {"type": int, "default": 64}),
        ],
        lambda a: pipelines.entropy_scan_pipeline(
            a.delta_inv,
            a.L,
            block_sizes=a.block_sizes,
            alphas=a.alphas,
            seed=a.seed,
            n_random=a.n_random,
            window_fraction=a.window_fraction,
        ),
    ),
    "droplet-band": (
        "square-root boundary band structure",
        [("--n-list", _ints(3, 4, 5, 6))],
        lambda a: pipelines.droplet_band_pipeline(a.delta_inv, a.L, a.n_list),
    ),
    "disorder-dos": (
        "averaged density of states decay in n",
        _DISORDER
        + [
            ("--samples", {"type": int, "default": 200}),
            ("--probe-n", _ints(1, 2, 3, 4)),
            ("--j-max", {"type": float, "default": None, "help": _J_MAX_HELP}),
        ],
        lambda a: pipelines.disorder_dos_pipeline(
            a.delta_inv,
            a.L,
            _disorder_spec(a),
            probe_ns=a.probe_n,
            window_fraction=a.window_fraction,
            j_max=a.j_max,
        ),
    ),
    "area-law": (
        "averaged exponentiated entropy flatness",
        _DISORDER
        + [
            ("--samples", {"type": int, "default": 100}),
            ("--alpha", {"type": float, "default": 1.0}),
            ("--epsilon", {"type": float, "default": 0.5}),
            ("--block-sizes", _ints(2, 3, 4, 5)),
            ("--contrast", {"action": argparse.BooleanOptionalAction, "default": True}),
        ],
        lambda a: pipelines.area_law_pipeline(
            a.delta_inv,
            a.L,
            _disorder_spec(a),
            block_sizes=a.block_sizes,
            alpha=a.alpha,
            epsilon=a.epsilon,
            contrast=a.contrast,
            window_fraction=a.window_fraction,
        ),
    ),
    "sum-constants": (
        "configuration-sum bounds",
        [("--mu", _floats(0.5, 1.0, 2.0)), ("--n", _ints(2, 3, 4)), ("--b", _ints(2, 3, 4))],
        lambda a: pipelines.sum_constants_pipeline(mus=a.mu, ns=a.n, b_lengths=a.b, L=a.L),
    ),
    "evolve-entropy": (
        "dynamic entropy under the log envelope",
        [
            ("--times", _floats(0.0, 1.0, 10.0, 100.0)),
            ("--states", {"type": int, "default": 5}),
            ("--block-sizes", {"type": int, "nargs": "+", "default": None}),
        ],
        lambda a: pipelines.evolve_entropy_pipeline(
            a.delta_inv,
            a.L,
            times=a.times,
            n_states=a.states,
            block_sizes=a.block_sizes,
            seed=a.seed,
            window_fraction=a.window_fraction,
        ),
    ),
    "verify-all": (
        "run every pipeline at desk scale",
        [
            ("--disorder-samples", {"type": int, "default": 60}),
            ("--area-samples", {"type": int, "default": 30}),
        ],
        lambda a: pipelines.verify_all_pipeline(
            L=a.L,
            delta_inv=a.delta_inv,
            seed=a.seed,
            disorder_samples=a.disorder_samples,
            area_samples=a.area_samples,
        ),
    ),
}


@functools.cache
def build_parser() -> _Parser:
    """The harness's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="droplet-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def _options_dict(args) -> dict:
    skip = {"command", "outdir", "cache", "cache_dir"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


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

    cache_dir = resolve_cache_dir(args.cache_dir) if args.cache else None
    if cache_dir is not None:
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
        result = COMMANDS[args.command][2](args)
    except DropletLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = ResultRecord(
        command=args.command,
        config_hash=key,
        version=__version__,
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
    if cache_dir is not None:
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
