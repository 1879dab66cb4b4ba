"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer.install`` replaces every public module-level function of the eight
layer modules, at every name the package binds it to, with a wrapper that
records one span per call: name, layer, start, end and parent span, plus
counts read from the returned object. Cross-module calls such as
``cycqed.device.embed`` and calls the benchmark makes through the package
namespace both go through the wrapper. ``uninstall`` puts the originals
back, so untraced passes run the unmodified code.

Spans stay in memory until ``write`` is called at exit. ``layer_metrics``
turns the spans of one pass into the per-layer metrics; a metric whose
wrapped function no longer exists in the package is left out, not zeroed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "cycqed"
LAYERS = ("config", "hilbert", "device", "spectral", "perturbation", "dynamics", "scenarios", "cli")
BENCH = "bench"

# Counts read from the objects some functions return.
COUNTERS = {
    "perturbation.enumerate_paths": lambda r: {
        "paths_kept": len(r.paths),
        "paths_rejected": len(r.rejected),
    },
    "dynamics.evolve": lambda r: {
        "steps": int(r.steps),
        "method": r.method,
        "dimension": None if r.final_state is None else r.final_state.space.total_dim,
    },
    "spectral.sweep_spectrum": lambda r: {"points": len(r.values)},
}

# Span record fields, kept as lists to make recording cheap.
NAME, LAYER, START, END, PARENT, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._saved: list[tuple] = []
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    self._wrappers[obj] = self._wrap(obj, name, layer, COUNTERS.get(name))
                    self.wrapped.add(name)

    def _wrap(self, fn, name, layer, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if counter is not None:
                record[COUNTS] = counter(result)
            return result

        return traced

    def install(self) -> None:
        prefix = PACKAGE + "."
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._saved.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved.clear()

    def open(self, name: str) -> int:
        """Start a benchmark span (a set-up, pass or question); returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, BENCH, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, s in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": s[NAME],
                            "layer": s[LAYER],
                            "start": s[START] - origin,
                            "end": s[END] - origin,
                            "parent": s[PARENT],
                            "counts": s[COUNTS],
                        }
                    )
                    + "\n"
                )


# -- per-layer metrics --------------------------------------------------------------

ASSEMBLY = ("device.build_bare_hamiltonian", "device.build_interaction_rwa", "device.build_interaction_full")
CONFIG_LOAD = ("config.load_device", "config.parse_device", "config.read_json")

# metric -> (unit, functions it needs); left out when none of them is wrapped.
NAMED = {
    "config.load_s": ("s", CONFIG_LOAD),
    "hilbert.embed_calls": ("count", ("hilbert.embed",)),
    "hilbert.embed_s": ("s", ("hilbert.embed",)),
    "device.assemble_calls": ("count", ASSEMBLY),
    "device.assemble_s": ("s", ASSEMBLY),
    "device.with_parameter_calls": ("count", ("device.with_parameter",)),
    "device.with_parameter_s": ("s", ("device.with_parameter",)),
    "device.build_space_calls": ("count", ("device.build_space",)),
    "device.build_space_s": ("s", ("device.build_space",)),
    "spectral.diag_calls": ("count", ("spectral.diagonalize",)),
    "spectral.diag_s": ("s", ("spectral.diagonalize",)),
    "spectral.crossings": ("count", ("spectral.find_resonance",)),
    "spectral.diag_per_crossing": ("ratio", ("spectral.diagonalize", "spectral.find_resonance")),
    "spectral.sweep_points": ("count", ("spectral.sweep_spectrum",)),
    "spectral.sweep_point_s": ("s", ("spectral.sweep_spectrum",)),
    "perturbation.enumerate_s": ("s", ("perturbation.enumerate_paths",)),
    "perturbation.paths_kept": ("count", ("perturbation.enumerate_paths",)),
    "perturbation.paths_rejected": ("count", ("perturbation.enumerate_paths",)),
    "perturbation.shifts_calls": ("count", ("perturbation.second_order_shifts",)),
    "perturbation.shifts_s": ("s", ("perturbation.second_order_shifts",)),
    "dynamics.evolve_calls": ("count", ("dynamics.evolve",)),
    "dynamics.steps": ("count", ("dynamics.evolve",)),
    "dynamics.rk45_runs": ("count", ("dynamics.evolve",)),
    "dynamics.split_runs": ("count", ("dynamics.evolve",)),
    "dynamics.step_s": ("s", ("dynamics.evolve",)),
    "dynamics.channels_calls": ("count", ("dynamics.build_collapse_channels",)),
    "dynamics.channels_s": ("s", ("dynamics.build_collapse_channels",)),
    "dynamics.observables_s": ("s", ("dynamics.standard_observables",)),
    "dynamics.rho_bytes": ("B", ("dynamics.evolve",)),
    "scenarios.locate_crossing_s": ("s", ("scenarios.locate_crossing",)),
    "scenarios.run_scenario_s": ("s", ("scenarios.run_scenario",)),
}

CROSSING_ROOTS = ("spectral.find_resonance", "scenarios.locate_crossing")

UNITS = {f"{layer}.self_s": "s" for layer in LAYERS + (BENCH,)}
UNITS.update({metric: unit for metric, (unit, _) in NAMED.items()})


def _inside(spans: list[list], index: int, names: tuple[str, ...], first: int) -> bool:
    """Whether a span named in ``names`` encloses spans[index], looking no further back than first."""
    parent = spans[index][PARENT]
    while parent >= first:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded in ``tracer.spans[first:last]``.

    The range must start at a span that encloses all the others, such as a
    pass: a child span always follows its parent.
    """
    spans = tracer.spans
    own = {index: spans[index][END] - spans[index][START] for index in range(first, last)}
    for index in range(first + 1, last):
        own[spans[index][PARENT]] -= spans[index][END] - spans[index][START]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS + (BENCH,)}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    evolve_self = 0.0
    steps = rk45 = split = rho_bytes = points = kept = rejected = crossing_diags = 0
    for index in range(first, last):
        s = spans[index]
        name, counts = s[NAME], s[COUNTS]
        out[f"{s[LAYER]}.self_s"] += own[index]
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        calls[name] = calls.get(name, 0) + 1
        if name == "dynamics.evolve":
            evolve_self += own[index]
            if counts is not None:
                steps += counts["steps"]
                rk45 += counts["method"] == "rk45"
                split += counts["method"] == "split"
                if counts["dimension"]:
                    rho_bytes = max(rho_bytes, counts["dimension"] ** 2 * 16)
        elif name == "spectral.sweep_spectrum" and counts is not None:
            points += counts["points"]
        elif name == "perturbation.enumerate_paths" and counts is not None:
            kept += counts["paths_kept"]
            rejected += counts["paths_rejected"]
        elif name == "spectral.diagonalize" and _inside(spans, index, CROSSING_ROOTS, first):
            crossing_diags += 1

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    def outermost(names):
        return sum(
            (
                spans[index][END] - spans[index][START]
                for index in range(first, last)
                if spans[index][NAME] in names and not _inside(spans, index, names, first)
            ),
            0.0,
        )

    crossings = n("spectral.find_resonance")
    values = {
        "config.load_s": outermost(CONFIG_LOAD),
        "hilbert.embed_calls": n("hilbert.embed"),
        "hilbert.embed_s": t("hilbert.embed"),
        "device.assemble_calls": n(*ASSEMBLY),
        "device.assemble_s": t(*ASSEMBLY),
        "device.with_parameter_calls": n("device.with_parameter"),
        "device.with_parameter_s": t("device.with_parameter"),
        "device.build_space_calls": n("device.build_space"),
        "device.build_space_s": t("device.build_space"),
        "spectral.diag_calls": n("spectral.diagonalize"),
        "spectral.diag_s": t("spectral.diagonalize"),
        "spectral.crossings": crossings,
        "spectral.diag_per_crossing": crossing_diags / crossings if crossings else 0.0,
        "spectral.sweep_points": points,
        "spectral.sweep_point_s": t("spectral.sweep_spectrum") / points if points else 0.0,
        "perturbation.enumerate_s": t("perturbation.enumerate_paths"),
        "perturbation.paths_kept": kept,
        "perturbation.paths_rejected": rejected,
        "perturbation.shifts_calls": n("perturbation.second_order_shifts"),
        "perturbation.shifts_s": t("perturbation.second_order_shifts"),
        "dynamics.evolve_calls": n("dynamics.evolve"),
        "dynamics.steps": steps,
        "dynamics.rk45_runs": rk45,
        "dynamics.split_runs": split,
        "dynamics.step_s": evolve_self / steps if steps else 0.0,
        "dynamics.channels_calls": n("dynamics.build_collapse_channels"),
        "dynamics.channels_s": t("dynamics.build_collapse_channels"),
        "dynamics.observables_s": t("dynamics.standard_observables"),
        "dynamics.rho_bytes": rho_bytes,
        "scenarios.locate_crossing_s": t("scenarios.locate_crossing"),
        "scenarios.run_scenario_s": t("scenarios.run_scenario"),
    }
    for metric, (_, needs) in NAMED.items():
        if any(name in tracer.wrapped for name in needs):
            out[metric] = values[metric]
    return out
