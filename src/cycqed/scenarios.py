"""Bundled presets: the reference devices with their expected benchmarks.

Each preset pairs a device with a run plan (a spectrum sweep or an open
system evolution) and a list of expected metrics. Metrics carry a source
tag: ``published`` values come from the reference characterization of these
devices and catch physics disagreements, ``regression`` values are frozen
from this package's own converged runs and catch code regressions at much
tighter tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .config import ConfigError, from_obj, read_json
from .device import (
    DeviceSpec,
    Model,
    build_space,
    get_parameter,
    parse_state_label,
    with_parameter,
)
from .dynamics import (
    METHODS,
    entanglement_checkpoint,
    evolve,
    extract_period,
    standard_observables,
)
from .perturbation import effective_coupling, matched_control_frequency
from .spectral import CrossingReport, dressed_pair, find_resonance

SCENARIO_NAMES = (
    "fig2_spectrum",
    "three_atom_one_cavity",
    "three_atom_two_cavity",
    "four_atom_one_cavity",
)

METRIC_SOURCES = ("published", "regression")

# Half width of the crossing bracket around the matched control frequency.
CROSSING_HALFWIDTH = 0.01


@dataclass(frozen=True)
class MetricSpec:
    """One expected metric: a center with tolerance, a bound, or a count.

    Exactly one comparison kind is set. ``source`` records where the
    expectation comes from, so a failing check distinguishes disagreement
    with the published device characterization from a plain code
    regression. Files write only the fields that differ from their defaults.
    """

    OMIT_DEFAULTS = True

    name: str = field(metadata={"key": "metric"})
    source: str
    value: float | None = None
    rtol: float = 0.0
    atol: float = 0.0
    min_value: float | None = field(default=None, metadata={"key": "min"})
    max_value: float | None = field(default=None, metadata={"key": "max"})
    count: int | None = None

    def __post_init__(self):
        if self.source not in METRIC_SOURCES:
            raise ValueError(f"metric {self.name!r}: unknown source {self.source!r}")
        kinds = sum(
            (
                self.value is not None,
                self.count is not None,
                self.min_value is not None or self.max_value is not None,
            )
        )
        if kinds != 1:
            raise ValueError(
                f"metric {self.name!r} needs exactly one of value, count, or bounds"
            )
        if self.value is not None and self.rtol == 0.0 and self.atol == 0.0:
            raise ValueError(f"metric {self.name!r}: value check needs rtol or atol")

    def check(self, measured: float) -> bool:
        if self.count is not None:
            return measured == self.count
        if self.value is not None:
            return abs(measured - self.value) <= self.atol + self.rtol * abs(self.value)
        ok = True
        if self.min_value is not None:
            ok = ok and measured >= self.min_value
        if self.max_value is not None:
            ok = ok and measured <= self.max_value
        return ok

    def describe(self) -> str:
        if self.count is not None:
            return f"= {self.count}"
        if self.value is not None:
            if self.rtol:
                return f"{self.value:g} within {self.rtol:.3g} relative"
            return f"{self.value:g} within {self.atol:g}"
        parts = []
        if self.min_value is not None:
            parts.append(f">= {self.min_value:g}")
        if self.max_value is not None:
            parts.append(f"<= {self.max_value:g}")
        return " and ".join(parts)


@dataclass(frozen=True)
class EvolvePlan:
    """Open-system run between two exchange states.

    With ``retune`` set, the first atom's e-level frequency is moved to the
    exact dressed-state degeneracy before evolving. Device tables quote the
    nominal matching frequency; the dispersive shifts it ignores detune the
    crossing by a fraction of a megahertz, which caps the transfer well
    below its resonant value. Compensating via the control atom frequency
    reproduces the procedure the quoted benchmarks assume. Coupling metrics
    are still computed on the nominal device.
    """

    KIND = "evolve"

    initial: str
    final: str
    order: int
    t_final: float
    samples: int
    step: float | None = None
    method: str = "split"
    retune: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown integration method {self.method!r}; known: {', '.join(METHODS)}"
            )


@dataclass(frozen=True)
class SweepPlan:
    """Eigenvalue sweep of one parameter, tracking a sorted level pair.

    ``points`` is the grid for sweeping the range; the scenario check needs
    only the crossing and does not sweep.
    """

    KIND = "sweep"

    parameter: str
    start: float
    stop: float
    points: int
    levels: tuple[int, int]


@dataclass(frozen=True)
class Scenario:
    """A device plus its run plan and expected metrics."""

    name: str
    device: DeviceSpec
    plan: EvolvePlan | SweepPlan
    description: str = ""
    expected: tuple[MetricSpec, ...] = ()


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of one expected metric against the measured value."""

    name: str
    source: str
    expectation: str
    measured: float
    passed: bool


@dataclass(frozen=True)
class ScenarioReport:
    """Every metric check of one scenario run plus all measured values.

    ``error`` holds the reason a plan that ran could not be measured; such a
    report has no checks and fails.
    """

    name: str
    checks: tuple[MetricCheck, ...]
    measured: dict[str, float]
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"scenario {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        if self.error is not None:
            out.append(f"  error: {self.error}")
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            out.append(
                f"  [{mark}] {c.name} = {c.measured:.6g} "
                f"(expected {c.expectation}; {c.source})"
            )
        return out


# -- loading ------------------------------------------------------------------

def scenario_text(name: str) -> str:
    """Raw canonical text of a bundled scenario file."""
    if name not in SCENARIO_NAMES:
        raise ValueError(
            f"unknown scenario {name!r}; bundled: {', '.join(SCENARIO_NAMES)}"
        )
    return (
        resources.files("cycqed").joinpath("data", f"{name}.json").read_text()
    )


def load_scenario(name: str) -> Scenario:
    """Load one bundled scenario by name."""
    text = scenario_text(name)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:  # bundled files are validated by tests
        raise ConfigError(f"scenario {name}: line {exc.lineno}: {exc.msg}") from exc
    return _checked(from_obj(Scenario, obj, f"scenario {name}"), f"scenario {name}")


def load_scenario_file(path) -> Scenario:
    """Load a scenario from an external file path."""
    return _checked(from_obj(Scenario, read_json(path), str(path)), str(path))


def _checked(scenario: Scenario, where: str) -> Scenario:
    """The scenario, once its plan fits its device; ConfigError otherwise.

    An evolve plan's state labels must parse, and its initial state must
    excite an atom, whose population times the exchange. A sweep plan's
    parameter must be set on the device, its start must lie below its stop,
    and its levels must be two different indices below the dimension.
    """
    dev, plan = scenario.device, scenario.plan
    space = build_space(dev)
    try:
        if isinstance(plan, EvolvePlan):
            initial, _ = (parse_state_label(dev, space, x) for x in (plan.initial, plan.final))
            if "e" not in initial.levels:
                raise ValueError(f"initial state {plan.initial} has no atom in e to time")
        else:
            get_parameter(dev, plan.parameter)
            if not plan.start < plan.stop:
                raise ValueError(f"start {plan.start!r} must lie below stop {plan.stop!r}")
            if plan.levels[0] == plan.levels[1]:
                raise ValueError(f"levels must differ, got {plan.levels[0]} twice")
            for level in plan.levels:
                if not 0 <= level < space.total_dim:
                    raise ValueError(
                        f"level index {level} out of range for dimension {space.total_dim}"
                    )
    except ValueError as exc:
        raise ConfigError(f"{where}.plan: {exc}") from exc
    return scenario


# -- running ------------------------------------------------------------------

def locate_crossing(dev: DeviceSpec, initial: str, final: str) -> CrossingReport:
    """Find the exact avoided crossing between two dressed exchange states.

    Starts from the shift-corrected matching frequency of the first atom,
    identifies the dressed pair by eigenvector overlap with the two bare
    states there, then refines the gap minimum over a bracket of
    ``CROSSING_HALFWIDTH`` (config units) on either side of that frequency.
    Both steps use one assembled model, and its symmetry blocks when the
    device has a class of identical atoms.
    """
    control = dev.atoms[0].label
    parameter = f"atoms.{control}.omega_e"
    matched = matched_control_frequency(dev)
    model = Model(dev)
    states = [parse_state_label(dev, model.space, label).index for label in (initial, final)]
    pair = dressed_pair(model, parameter, matched, states)
    return find_resonance(
        model, parameter, (matched - CROSSING_HALFWIDTH, matched + CROSSING_HALFWIDTH), pair
    )


def _measure_evolve(dev: DeviceSpec, plan: EvolvePlan) -> dict[str, float]:
    nominal_space = build_space(dev)
    coupling = effective_coupling(
        dev,
        parse_state_label(dev, nominal_space, plan.initial),
        parse_state_label(dev, nominal_space, plan.final),
        plan.order,
    )
    extra: dict[str, float] = {}
    if plan.retune:
        crossing = locate_crossing(dev, plan.initial, plan.final)
        control = dev.atoms[0].label
        dev = with_parameter(dev, f"atoms.{control}.omega_e", crossing.location)
        extra["retuned_omega"] = crossing.location
        extra["crossing_gap"] = crossing.gap
    space = build_space(dev)
    initial = parse_state_label(dev, space, plan.initial)
    final = parse_state_label(dev, space, plan.final)
    obs = standard_observables(dev, space, initial, final)
    traj = evolve(
        dev,
        initial,
        plan.t_final,
        samples=plan.samples,
        obs=obs,
        method=plan.method,
        step=plan.step,
    )
    first_excited = next(
        a.label for a, lv in zip(dev.atoms, initial.levels) if lv == "e"
    )
    period = extract_period(traj, f"p_e_{first_excited}")
    measured = {
        "chi_over_2pi_mhz": dev.angular_to_rate(abs(coupling.lambda_eff)),
        "path_count": float(coupling.path_count),
        "period_pred_ns": coupling.period,
        "period_ns": period,
        "max_leakage": traj.max_leakage,
        "max_photon": traj.max_photon,
        "trace_drift": traj.trace_drift,
        **extra,
    }
    if traj.peak_transfer is not None:
        measured["peak_transfer"] = traj.peak_transfer
    (p_i, p_f), coherence = entanglement_checkpoint(traj, period / 4)
    measured["quarter_initial"] = p_i
    measured["quarter_final"] = p_f
    measured["quarter_coherence"] = coherence
    corr_names = [n for n in traj.values if n.startswith("corr_")]
    if corr_names:
        top = max(corr_names, key=lambda n: n.count("_"))
        first_target = next(
            a.label
            for a, lv_i, lv_f in zip(dev.atoms, initial.levels, final.levels)
            if lv_f == "e" and lv_i != "e"
        )
        quarter = traj.times <= period / 4
        measured["corr_collapse"] = float(
            np.abs(
                traj.values[top][quarter] - traj.values[f"p_e_{first_target}"][quarter]
            ).max()
        )
    return measured


def _measure_sweep(dev: DeviceSpec, plan: SweepPlan) -> dict[str, float]:
    report = find_resonance(
        dev, plan.parameter, (plan.start, plan.stop), plan.levels
    )
    return {"gap": report.gap, "location": report.location}


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Execute the plan and compare every expected metric.

    Raises KeyError when an expected metric names a quantity the plan does
    not produce. Numerical failures are not raised: a plan that cannot be
    measured (no crossing in the bracket, a trajectory too short or too
    coarse for a period, a failed integration) gives a failed report that
    carries the reason.
    """
    measure = _measure_evolve if isinstance(scenario.plan, EvolvePlan) else _measure_sweep
    try:
        measured = measure(scenario.device, scenario.plan)
    except (ValueError, RuntimeError) as exc:
        return ScenarioReport(scenario.name, (), {}, error=str(exc))
    checks = []
    for spec in scenario.expected:
        if spec.name not in measured:
            raise KeyError(
                f"scenario {scenario.name}: metric {spec.name!r} is not produced "
                f"by the plan; available: {', '.join(sorted(measured))}"
            )
        value = measured[spec.name]
        checks.append(
            MetricCheck(
                name=spec.name,
                source=spec.source,
                expectation=spec.describe(),
                measured=value,
                passed=spec.check(value),
            )
        )
    return ScenarioReport(scenario.name, tuple(checks), measured)
