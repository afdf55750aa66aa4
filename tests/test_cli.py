"""Harness behavior: records, caching, exit codes, determinism."""

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from droplet_lab import cli, pipelines
from droplet_lab.cli import (
    EXIT_NO_VERDICTS,
    NO_VERDICTS_NOTE,
    ResultRecord,
    cache_key,
    canonical_config,
    parse_summary,
    render_csv,
    render_summary,
    resolve_cache_dir,
    run,
)
from droplet_lab.pipelines import Table


def test_cache_key_stability_and_sensitivity():
    options = {"L": 4, "delta_inv": 0.1, "seed": 7}
    assert cache_key("spectrum", options) == cache_key("spectrum", dict(options))
    changed = dict(options, seed=8)
    assert cache_key("spectrum", options) != cache_key("spectrum", changed)
    assert cache_key("spectrum", options) != cache_key("thresholds", options)
    # Key order must not matter.
    reordered = {"seed": 7, "delta_inv": 0.1, "L": 4}
    assert canonical_config("spectrum", options) == canonical_config("spectrum", reordered)


def test_render_csv_format():
    table = Table(columns=("a", "b"), rows=((1, 0.5), (2, 1.0 / 3.0)))
    text = render_csv(table)
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert lines[2] == f"2,{1.0/3.0:.17g}"
    assert text.endswith("\n")


def test_summary_round_trip():
    record = ResultRecord(
        command="spectrum",
        config_hash="abc123",
        version="0.1.0",
        timestamp="2026-01-01T00:00:00+00:00",
        config={"L": 4, "delta_inv": 0.1, "list": [1, 2]},
        verdicts={"check_one": True, "check_two": False},
        values={"margin": 1.0 / 3.0, "tiny": 1.2345678901234567e-11},
        notes=("a note", "another: with colon"),
        table_rows=12,
    )
    text = render_summary(record)
    back = parse_summary(text)
    assert back == record
    assert back.exit_code == 2


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=10,
)
RECORDS = st.builds(
    ResultRecord,
    command=st.text(),
    config_hash=st.text(),
    version=st.text(),
    timestamp=st.text(),
    config=st.dictionaries(st.text(), JSON),
    verdicts=st.dictionaries(st.text(), st.booleans()),
    values=st.dictionaries(st.text(), st.floats()),
    notes=st.lists(st.text()).map(tuple),
    table_rows=st.integers(),
)


@settings(max_examples=300, deadline=None)
@given(record=RECORDS)
def test_summary_round_trip_generated(record):
    text = render_summary(record)
    back = parse_summary(text)
    # NaN is carried as NaN, but compares unequal to itself: compare the
    # serializations of config and values, and every other field directly.
    assert json.dumps(back.config, sort_keys=True) == json.dumps(record.config, sort_keys=True)
    assert back.values.keys() == record.values.keys()
    for key, value in record.values.items():
        assert back.values[key] == value or (math.isnan(value) and math.isnan(back.values[key]))
    others = ("command", "config_hash", "version", "timestamp", "verdicts", "notes", "table_rows")
    for name in others:
        assert getattr(back, name) == getattr(record, name), name
    assert render_summary(back) == text


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv("DROPLET_LAB_CACHE", raising=False)
    assert resolve_cache_dir(None) == Path("results") / "cache"
    monkeypatch.setenv("DROPLET_LAB_CACHE", str(tmp_path / "envcache"))
    assert resolve_cache_dir(None) == tmp_path / "envcache"
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"


def test_unknown_command_exits_one(capsys):
    assert run(["no-such-command"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_command_exits_one(capsys):
    assert run([]) == 1


def test_window_precondition_exits_one(tmp_path, capsys):
    code = run(
        ["ct-decay", "--L", "4", "--delta-inv", "0.5", "--no-cache", "--outdir", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "window" in err or "delta_inv" in err


def test_ising_entropy_without_states_exits_one(tmp_path, capsys):
    for states in ("0", "-3"):
        argv = ["ising-entropy", "--L", "4", "--states", states, "--no-cache"]
        assert run(argv + ["--outdir", str(tmp_path)]) == 1
        assert "n_states" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_evolve_entropy_without_states_exits_one(tmp_path, capsys):
    argv = ["evolve-entropy", "--L", "3", "--states", "0", "--no-cache"]
    assert run(argv + ["--outdir", str(tmp_path)]) == 1
    assert "n_states" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unreachable_threshold_exits_one(tmp_path, capsys):
    assert run(["thresholds", "--L", "2", "--k", "9", "--no-cache", "--outdir", str(tmp_path)]) == 1
    assert "k=[9]" in capsys.readouterr().err


def test_area_law_with_one_block_size_exits_one(tmp_path, capsys):
    argv = ["area-law", "--L", "3", "--block-sizes", "3", "--samples", "2", "--no-contrast"]
    assert run(argv + ["--no-cache", "--outdir", str(tmp_path)]) == 1
    assert "at least two block sizes" in capsys.readouterr().err


def test_spectrum_run_writes_record_and_csv(tmp_path):
    code = run(
        ["spectrum", "--L", "2", "--delta-inv", "0.2", "--no-cache", "--outdir", str(tmp_path)]
    )
    assert code == 0
    csvs = list(tmp_path.glob("spectrum-*.csv"))
    summaries = list(tmp_path.glob("spectrum-*.summary.txt"))
    assert len(csvs) == 1 and len(summaries) == 1
    text = summaries[0].read_text()
    record = parse_summary(text)
    assert record.command == "spectrum"
    assert record.verdicts["oracle_equivalence"]
    header = csvs[0].read_text().splitlines()[0]
    assert header == "n,index,eigenvalue"


def test_determinism_without_cache(tmp_path):
    args = ["thresholds", "--L", "2", "--delta-inv", "0.3", "--no-cache"]
    run(args + ["--outdir", str(tmp_path / "a")])
    run(args + ["--outdir", str(tmp_path / "b")])
    csv_a = next((tmp_path / "a").glob("*.csv")).read_text()
    csv_b = next((tmp_path / "b").glob("*.csv")).read_text()
    assert csv_a == csv_b


def test_cache_hit_is_bit_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("DROPLET_LAB_CACHE", raising=False)
    cache_dir = tmp_path / "cache"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = [
        "thresholds", "--L", "2", "--delta-inv", "0.3",
        "--cache", "--cache-dir", str(cache_dir),
    ]
    assert run(args + ["--outdir", str(out_a)]) == 0
    assert run(args + ["--outdir", str(out_b)]) == 0
    name_a = sorted(p.name for p in out_a.glob("*"))
    name_b = sorted(p.name for p in out_b.glob("*"))
    assert name_a == name_b
    for name in name_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cache_ignored_when_disabled(tmp_path):
    cache_dir = tmp_path / "cache"
    out = tmp_path / "out"
    args = [
        "spectrum", "--L", "1", "--delta-inv", "0.1",
        "--no-cache", "--cache-dir", str(cache_dir), "--outdir", str(out),
    ]
    assert run(args) == 0
    assert not cache_dir.exists()


def test_env_cache_dir(tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("DROPLET_LAB_CACHE", str(env_cache))
    out = tmp_path / "out"
    assert run(["spectrum", "--L", "1", "--delta-inv", "0.1", "--outdir", str(out)]) == 0
    assert any(env_cache.glob("spectrum-*.summary.txt"))


def test_cache_misses_under_another_source_digest(tmp_path, monkeypatch, capsys):
    args = [
        "thresholds", "--L", "1", "--delta-inv", "0.3", "--k", "1", "2",
        "--cache", "--cache-dir", str(tmp_path / "cache"),
    ]
    monkeypatch.setattr(cli, "source_digest", lambda: "a" * 64)
    assert run(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert run(args + ["--outdir", str(tmp_path / "b")]) == 0
    assert "cache hit" in capsys.readouterr().out
    monkeypatch.setattr(cli, "source_digest", lambda: "b" * 64)
    assert run(args + ["--outdir", str(tmp_path / "c")]) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert len(list((tmp_path / "cache").glob("*.summary.txt"))) == 2


def test_one_parser_serves_successive_runs(tmp_path, capsys):
    # The parser is built once per process.  A usage error and a run with
    # explicit block sizes must leave the next run's defaults as they were:
    # its record equals that of the same command in a fresh process.
    assert cli.build_parser() is cli.build_parser()
    args = ["area-law", "--L", "3", "--samples", "3", "--no-contrast", "--no-cache"]
    assert run(["area-law", "--no-such-option"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(args + ["--block-sizes", "2", "3", "--outdir", str(tmp_path / "explicit")]) in (0, 2)
    assert run(args + ["--outdir", str(tmp_path / "reused")]) in (0, 2)
    subprocess.run(
        [sys.executable, "-m", "droplet_lab", *args, "--outdir", str(tmp_path / "fresh")],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )

    def summary(name):
        (path,) = (tmp_path / name).glob("*.summary.txt")
        return path.read_text()

    explicit, reused, fresh = (summary(name) for name in ("explicit", "reused", "fresh"))
    assert parse_summary(explicit).config["block_sizes"] == [2, 3]
    assert parse_summary(reused).config["block_sizes"] == [2, 3, 4, 5]

    def without_timestamp(text):
        return [line for line in text.splitlines() if not line.startswith("timestamp:")]

    assert without_timestamp(reused) == without_timestamp(fresh)


def test_source_digest_is_lazy_and_stable():
    # Importing the package must not read its sources (setup time).
    probe = "import droplet_lab.cli as c; print(c.source_digest.cache_info().currsize)"
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "0"
    digest = cli.source_digest()
    assert len(digest) == 64 and digest == cli.source_digest()


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is needed only by the log-bound fit and costs about a
    # quarter second to import, so it must not load with the package.
    probe = "import sys, droplet_lab, droplet_lab.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_sparse_linalg_unloaded():
    # Only sectors large enough for a Lanczos solve need scipy.sparse; loading
    # it with the package raises the peak memory of every disorder run.
    probe = "import sys, droplet_lab, droplet_lab.cli; print('scipy.sparse.linalg' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_run_without_verdicts_exits_nonzero_with_note(tmp_path, monkeypatch, capsys):
    # The droplet boundary mode skips the zero-mode check and, with the
    # oracle limit at 0 sites, the oracle comparison too: no verdict is left.
    monkeypatch.setattr(
        pipelines,
        "spectrum_pipeline",
        functools.partial(pipelines.spectrum_pipeline, oracle_max_sites=0),
    )
    args = [
        "spectrum", "--L", "1", "--boundary-mode", "droplet",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert run(args + ["--outdir", str(tmp_path / "a")]) == EXIT_NO_VERDICTS
    assert NO_VERDICTS_NOTE in capsys.readouterr().err
    record = parse_summary(next((tmp_path / "a").glob("*.summary.txt")).read_text())
    assert record.verdicts == {}
    assert NO_VERDICTS_NOTE in record.notes
    # The cached record fails the same way.
    assert run(args + ["--outdir", str(tmp_path / "b")]) == EXIT_NO_VERDICTS


COMMON_DEFAULTS = {"L": 4}
DELTA_INV = {"delta_inv": 0.1}
SEED = {"seed": 0}
WINDOW = {"window_fraction": 0.9}
DISORDER_DEFAULTS = {**SEED, "dist": "uniform", "dist_a": 0.0, "dist_b": 2.0}
DEFAULT_OPTIONS = {
    "spectrum": {**DELTA_INV, "boundary_mode": "standard"},
    "thresholds": {**DELTA_INV, **SEED, "field_draws": 3, "k": [1, 2, 3]},
    "ct-decay": {**DELTA_INV, **WINDOW, "n": [2, 3], "stability_L": None},
    "dos-bound": {**DELTA_INV, **WINDOW},
    "ising-entropy": {**SEED, "states": 500, "witness_n": [2, 3, 4]},
    "entropy-scan": {
        **DELTA_INV, **SEED, **WINDOW,
        "alphas": [0.0, 0.5, 1.0, 2.0], "block_sizes": None, "n_random": 64,
    },
    "droplet-band": {**DELTA_INV, "n_list": [3, 4, 5, 6]},
    "disorder-dos": {
        **DELTA_INV, **WINDOW, **DISORDER_DEFAULTS,
        "j_max": None, "probe_n": [1, 2, 3, 4], "samples": 200,
    },
    "area-law": {
        **DELTA_INV, **WINDOW, **DISORDER_DEFAULTS,
        "alpha": 1.0, "block_sizes": [2, 3, 4, 5], "contrast": True, "epsilon": 0.5,
        "samples": 100,
    },
    "sum-constants": {"b": [2, 3, 4], "mu": [0.5, 1.0, 2.0], "n": [2, 3, 4]},
    "evolve-entropy": {
        **DELTA_INV, **SEED, **WINDOW,
        "block_sizes": None, "states": 5, "times": [0.0, 1.0, 10.0, 100.0],
    },
    "verify-all": {**DELTA_INV, **SEED, "area_samples": 30, "disorder_samples": 60},
}


def test_default_options_of_every_command():
    # The options (and so the summary's config section and the cache key)
    # each command parses from its defaults.
    assert set(cli.COMMANDS) == set(DEFAULT_OPTIONS)
    parser = cli.build_parser()
    for command, extra in DEFAULT_OPTIONS.items():
        options = cli._options_dict(parser.parse_args([command]))
        assert options == {**COMMON_DEFAULTS, **extra}, command
        assert list(options) == sorted(options)


def test_commands_look_up_their_pipeline_when_run(tmp_path, monkeypatch):
    calls = []

    def fake(*args, **kwargs):
        calls.append((args, kwargs))
        return pipelines.PipelineResult(
            table=Table(columns=("n",), rows=((3,),)), verdicts={"ok": True}, values={}
        )

    monkeypatch.setattr(pipelines, "droplet_band_pipeline", fake)
    args = ["droplet-band", "--L", "2", "--n-list", "3", "4", "--no-cache"]
    assert run(args + ["--outdir", str(tmp_path)]) == 0
    assert calls == [((0.1, 2, [3, 4]), {})]


class _ReadRecorder(argparse.Namespace):
    """A parsed namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_parsed_option_is_read_by_its_command(monkeypatch):
    # An option the call never reads would change the record and the cache
    # key without changing the run.
    def fake(*args, **kwargs):
        return pipelines.PipelineResult(table=Table(columns=(), rows=()), verdicts={}, values={})

    for name in dir(pipelines):
        if name.endswith("_pipeline"):
            monkeypatch.setattr(pipelines, name, fake)
    parser = cli.build_parser()
    for command, (_, _, call) in cli.COMMANDS.items():
        args = parser.parse_args([command], namespace=_ReadRecorder(_reads=set()))
        options = set(vars(args)) - {"_reads", "command", "outdir", "cache", "cache_dir"}
        args._reads.clear()
        call(args)
        assert options - args._reads == set(), command


def test_an_option_the_command_does_not_read_exits_one(tmp_path, capsys):
    argv = ["verify-all", "--L", "4", "--area-samples", "2", "--window-fraction", "0.5"]
    assert run(argv + ["--no-cache", "--outdir", str(tmp_path)]) == 1
    assert "--window-fraction" in capsys.readouterr().err
    assert not tmp_path.exists() or not list(tmp_path.iterdir())
