"""Harness behavior: records, caching, exit codes, determinism."""

import functools
import os
import subprocess
import sys
from pathlib import Path

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


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv("DROPLET_LAB_CACHE", raising=False)
    assert resolve_cache_dir(None, tmp_path) == Path("results") / "cache"
    monkeypatch.setenv("DROPLET_LAB_CACHE", str(tmp_path / "envcache"))
    assert resolve_cache_dir(None, tmp_path) == tmp_path / "envcache"
    assert resolve_cache_dir(str(tmp_path / "flag"), tmp_path) == tmp_path / "flag"


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
        "thresholds", "--L", "1", "--delta-inv", "0.3",
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
