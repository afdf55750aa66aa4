"""Spans around the public functions of every droplet_lab module.

`Tracer.install` replaces each public function of the package, in every
module namespace that holds it, with a wrapper that records one span: name
(`module.function`), start, end and the index of the enclosing span.  A few
functions also record how much work a call did (see ANNOTATIONS).  Spans stay
in memory in flat arrays and are written out once, by `save`.

`layer_metrics` turns the spans into the per-layer figures of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

STAGES = (
    "spectrum",
    "thresholds",
    "ct_decay",
    "dos_bound",
    "ising_entropy",
    "entropy_scan",
    "droplet_band",
    "disorder_dos",
    "area_law",
    "sum_constants",
    "evolve_entropy",
)
MATRICIZE = ("entanglement.matricize", "entanglement.matricize_sites")
SELF_TIMED = ("spectral.droplet_projector", "disorder.area_law_experiment")


def _eigensolve(args, kwargs, result):
    return (float(result.dim),)


def _assemble_sector(args, kwargs, result):
    return (float(result.dim),)


def _droplet_projector(args, kwargs, result):
    # Eigenpairs behind the selection: those of a precomputed `spectra`
    # argument; eigensolves nested in the call are added in layer_metrics.
    spectra = kwargs.get("spectra", args[5] if len(args) > 5 else None) or {}
    given = sum(len(d.eigenvalues) for n, d in spectra.items() if n <= result.n_max)
    return (float(result.rank), float(given))


def _sup(args, kwargs, result):
    return (float(result.candidates),)


def _matricize(args, kwargs, result):
    return (float(result.matrix.nbytes),)


ANNOTATIONS = {
    "spectral.eigensolve": _eigensolve,
    "hamiltonian.assemble_sector": _assemble_sector,
    "spectral.droplet_projector": _droplet_projector,
    "entanglement.droplet_sup_entropy": _sup,
    "entanglement.matricize": _matricize,
    "entanglement.matricize_sites": _matricize,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attrs: dict[int, tuple] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        annotate = ANNOTATIONS.get(name)
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if annotate is not None:
                self.attrs[index] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> int:
        """Wrap every public function of `package`'s modules in every namespace; return the count."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        wrapped: dict[int, types.FunctionType] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith(package.__name__ + ".")
                ):
                    continue
                if id(obj) not in wrapped:
                    short = obj.__module__.rsplit(".", 1)[-1]
                    wrapped[id(obj)] = self.wrap(f"{short}.{obj.__name__}", obj)
                setattr(module, attr, wrapped[id(obj)])
        return len(wrapped)

    def save(self, path) -> None:
        keys = sorted(self.attrs)
        width = max((len(self.attrs[k]) for k in keys), default=0)
        values = np.full((len(keys), width), np.nan)
        for row, k in enumerate(keys):
            values[row, : len(self.attrs[k])] = self.attrs[k]
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            attr_index=np.array(keys, dtype=np.int64),
            attr_values=values,
        )


def self_times(start, end, parent, spans) -> dict[int, float]:
    """Self time of each span in `spans`: its duration minus the part of it its child spans cover."""
    covered: dict[int, list] = {i: [] for i in spans}
    for i, p in enumerate(parent):
        if p in covered:
            covered[p].append((start[i], end[i]))
    out = {}
    for i, children in covered.items():
        busy = 0.0
        reach = start[i]
        for lo, hi in sorted(children):
            lo, hi = max(lo, reach), min(hi, end[i])
            if hi > lo:
                busy += hi - lo
                reach = hi
        out[i] = (end[i] - start[i]) - busy
    return out


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures as (value per round, unit)."""
    names = [tracer.names[i] for i in tracer.name_id]
    start, end, parent = tracer.start, tracer.end, tracer.parent
    duration = np.frombuffer(end) - np.frombuffer(start)
    total = defaultdict(float)
    calls = defaultdict(int)
    for i, name in enumerate(names):
        total[name] += duration[i]
        calls[name] += 1
    self_total = defaultdict(float)
    wanted = [i for i, n in enumerate(names) if n in SELF_TIMED]
    for i, value in self_times(start, end, parent, wanted).items():
        self_total[names[i]] += value

    def attr(i, k=0):
        return tracer.attrs.get(i, (0.0, 0.0))[k]

    def inside(i, targets) -> bool:
        p = parent[i]
        while p >= 0:
            if names[p] in targets:
                return True
            p = parent[p]
        return False

    def spans(name):
        return [i for i, n in enumerate(names) if n == name]

    eigensolves = spans("spectral.eigensolve")
    flops = sum(attr(i) ** 3 for i in eigensolves)
    configs = sum(attr(i) for i in spans("hamiltonian.assemble_sector"))
    candidates = sum(attr(i) for i in spans("entanglement.droplet_sup_entropy"))
    outer_matricize = [i for i, n in enumerate(names) if n in MATRICIZE and not inside(i, MATRICIZE)]
    projectors = spans("spectral.droplet_projector")
    rank = sum(attr(i, 0) for i in projectors)
    base = sum(attr(i, 1) for i in projectors) + sum(
        attr(i) for i in eigensolves if inside(i, ("spectral.droplet_projector",))
    )
    # A top-level CLI run that reached a pipeline missed the cache.
    root = array("i")
    for i, p in enumerate(parent):
        root.append(i if p < 0 else root[p])
    reached = {root[i] for i, n in enumerate(names) if n.startswith("pipelines.")}
    hit = miss = 0.0
    for i, n in enumerate(names):
        if n == "cli.run" and parent[i] < 0:
            if i in reached:
                miss += duration[i]
            else:
                hit += duration[i]

    per = 1.0 / rounds
    out = {
        "spectral.eigensolve.calls": (calls["spectral.eigensolve"] * per, "count"),
        "spectral.eigensolve.s": (total["spectral.eigensolve"] * per, "s"),
        "spectral.eigensolve.flops_computed": (flops * per, "flop"),
        "spectral.droplet_projector.self_s": (self_total["spectral.droplet_projector"] * per, "s"),
        "spectral.window_yield": (rank / base if base else 0.0, "ratio"),
        "spectral.window_yield.base": (base * per, "count"),
        "hamiltonian.assemble_sector.calls": (calls["hamiltonian.assemble_sector"] * per, "count"),
        "hamiltonian.assemble_sector.s": (total["hamiltonian.assemble_sector"] * per, "s"),
        "hamiltonian.assemble_sector.configs": (configs * per, "count"),
        "entanglement.droplet_sup_entropy.s": (total["entanglement.droplet_sup_entropy"] * per, "s"),
        "entanglement.sup_candidates": (candidates * per, "count"),
        "entanglement.matricize.calls": (len(outer_matricize) * per, "count"),
        "entanglement.matricize.s": (sum(duration[i] for i in outer_matricize) * per, "s"),
        "entanglement.matricize.bytes_computed": (sum(attr(i) for i in outer_matricize) * per, "B"),
        "entanglement.renyi_entropy.s": (total["entanglement.renyi_entropy"] * per, "s"),
        "disorder.area_law_experiment.self_s": (self_total["disorder.area_law_experiment"] * per, "s"),
        "configspace.enumerate_sector.s": (total["configspace.enumerate_sector"] * per, "s"),
    }
    for stage in STAGES:
        key = f"pipelines.{stage}_pipeline"
        out[f"{key}.s"] = (total[key] * per, "s")
    out["cli.run.miss_s"] = (miss * per, "s")
    out["cli.run.hit_s"] = (hit * per, "s")
    return out

