"""The hooks the benchmark in perfbench/ uses to reach into the package.

perfbench/ is kept apart from the package: `checks.py` replaces
`disorder.droplet_projector` and `disorder.droplet_sup_entropy` to capture
each disorder sample, and `tracer.py` wraps every public function in every
module namespace that holds it.  Both run here in a subprocess, so the
wrapping cannot leak into other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PROBE = r"""
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
out = Path(sys.argv[2])

import numpy as np

import checks
import droplet_lab
from droplet_lab import cli, disorder
from droplet_lab.configspace import Lattice, enumerate_sector
from droplet_lab.entanglement import centered_block, matricize
from droplet_lab.hamiltonian import ModelParams, assemble_sector
from droplet_lab.spectral import auto_window, eigensolve
from droplet_lab.states import from_amplitudes
from tracer import Tracer, layer_metrics

argv = ["area-law", "--L", "3", "--no-contrast", "--samples", "2", "--seed", "0"]
report = {}

samples = checks.capture_samples(
    argv + ["--outdir", str(out / "check"), "--cache-dir", str(out / "check-cache")]
)
report["samples"] = len(samples)
report["problems"] = [p for s in samples for p in checks.check_sample(s)]

# What the checks and the tracer read off the package's results.
lattice = Lattice(3)
params = ModelParams(0.1, field={u: 0.01 for u in lattice.sites})
report["field_is_mapping"] = params.field.get(0, None) == 0.01
projector = disorder.droplet_projector(params, lattice, auto_window(params))
estimate = disorder.droplet_sup_entropy(
    projector, centered_block(lattice, 3), 1.0, np.random.default_rng(0)
)
matrix = assemble_sector(params, enumerate_sector(lattice, 2))
report["reads"] = [
    projector.rank, projector.n_max, estimate.value, estimate.candidates,
    eigensolve(matrix).dim, matrix.dim,
    matricize(from_amplitudes(lattice, {(0,): 1.0}), centered_block(lattice, 3)).matrix.size,
]

tracer = Tracer()
tracer.install(droplet_lab)
report["code"] = cli.run(
    argv + ["--outdir", str(out / "traced"), "--cache-dir", str(out / "traced-cache")]
)
report["layers"] = {name: value for name, (value, _) in layer_metrics(tracer, 1).items()}
print(json.dumps(report))
"""


def test_benchmark_hooks_capture_check_and_trace(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(REPO / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])

    assert report["samples"] == 2
    assert report["problems"] == []
    assert report["field_is_mapping"]
    rank, n_max, value, candidates, solved_dim, matrix_dim, matricized = report["reads"]
    assert rank > 0 and n_max == 7 and value > 0 and candidates > 0
    assert solved_dim == matrix_dim == 21 and matricized == 8 * 16

    assert report["code"] in (0, 2)
    for name in (
        "entanglement.sup_candidates",
        "spectral.eigensolve.calls",
        "pipelines.area_law_pipeline.s",
        "cli.run.miss_s",
    ):
        assert report["layers"][name] > 0, name
    # Exactly one CSV and one summary per run, as the benchmark expects.
    for run in ("check", "traced"):
        names = sorted(p.name for p in (tmp_path / run).iterdir())
        assert [n.rsplit(".", 1)[-1] for n in names] == ["csv", "txt"], names
        assert names[1].endswith(".summary.txt")
