"""The benchmark's three workloads, each a list of questions asked in order.

A question is one call a user of the package would make, with the check
that its answer is right. Every workload is a closed loop: one client asks
the next question only after the previous one has returned.

``crossings``
    Every static question on the shipped devices: the fig2 sweep and
    resonance, and the path-sum coupling and crossing location of the three
    dynamics devices. Assembly and diagonalization do the work; dynamics
    does none.
``open_dynamics``
    Two split-step windows of 100 steps at d = 486 and d = 432, plus the
    in-process ``cycqed check --only three_atom_one_cavity``. The dissipator
    and the unitary step do the work; spectra do almost none.
``small_ensemble``
    A seeded batch of small random devices, each evolved with
    ``method="auto"`` and swept over 21 points. Thousands of tiny calls, so
    per-call overhead and the rk45 engine dominate.

Correctness comes from the ``regression`` anchors of the shipped scenarios,
read through ``load_scenario``, from ``reference.json`` (window-end
observables recorded at the commit that introduced the benchmark), and from
the invariants of the package's property suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import cycqed
from cycqed import cli

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

EVOLVE_SCENARIOS = (
    "three_atom_one_cavity",
    "three_atom_two_cavity",
    "four_atom_one_cavity",
)

# open_dynamics: 10 samples of 10 steps each at the scenarios' 1.7 ns step.
WINDOW_DEVICES = ("four_atom_one_cavity", "three_atom_two_cavity")
WINDOW_STEP_NS = 1.7
WINDOW_SAMPLES = 11
WINDOW_NS = 100 * WINDOW_STEP_NS
WINDOW_ATOL = 1e-6
CHECK_SCENARIO = "three_atom_one_cavity"

# small_ensemble: every structure below appears equally often, so the work
# in a pass hardly depends on the seed; the seed draws the parameters.
ENSEMBLE_PAIRS = 2
DRAWS_PER_DEVICE = 22  # seven per atom, three atoms, and the cavity decay
ENSEMBLE_T_FINAL = 25.0
ENSEMBLE_SAMPLES = 26
ENSEMBLE_SWEEP_POINTS = 21

# Invariants of the property suite (criterion 09 in tests/test_acceptance.py).
TRACE_TOL = 1e-6
NEGATIVITY_TOL = 1e-8
HERMITICITY_TOL = 1e-12
PURITY_TOL = 1e-6


@dataclass
class Answer:
    """What one question reports besides its wall time."""

    failures: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)
    simulated_ns: float = 0.0


@dataclass(frozen=True)
class Question:
    """One call to the package plus its correctness check.

    ``kind`` groups questions for the per-kind timings in the report:
    sweep, crossing, coupling, window, scenario or case.
    """

    name: str
    kind: str
    ask: Callable[[], Answer]


# -- anchors ----------------------------------------------------------------------

def regression_anchor(scenario: cycqed.Scenario, metric: str) -> cycqed.MetricSpec:
    """The scenario's regression expectation for one metric."""
    for spec in scenario.expected:
        if spec.source == "regression" and spec.name == metric:
            return spec
    raise KeyError(f"scenario {scenario.name} has no regression anchor {metric!r}")


def _check(answer: Answer, scenario: cycqed.Scenario, metric: str, measured: float) -> None:
    spec = regression_anchor(scenario, metric)
    if not spec.check(measured):
        answer.failures.append(
            f"{scenario.name} {metric} = {measured!r}, expected {spec.describe()}"
        )


def load_scenarios() -> dict[str, cycqed.Scenario]:
    return {name: cycqed.load_scenario(name) for name in cycqed.SCENARIO_NAMES}


def _control_path(dev: cycqed.DeviceSpec) -> str:
    return f"atoms.{dev.atoms[0].label}.omega_e"


# -- crossings ------------------------------------------------------------------

def crossings_questions(scenarios: dict[str, cycqed.Scenario]) -> list[Question]:
    """Static questions on the shipped devices, checked against their anchors."""
    questions = []
    fig2 = scenarios["fig2_spectrum"]
    plan = fig2.plan
    grid = np.linspace(plan.start, plan.stop, plan.points)

    def sweep() -> Answer:
        answer = Answer()
        result = cycqed.sweep_spectrum(fig2.device, plan.parameter, grid, levels=plan.levels)
        gaps = np.diff(result.selected_energies(), axis=1)[:, 0]
        k = int(np.argmin(gaps))
        location = regression_anchor(fig2, "location")
        gap = regression_anchor(fig2, "gap")
        # the sampled minimum sits within one grid step of the refined crossing
        # and cannot undercut the refined gap
        if abs(grid[k] - location.value) > grid[1] - grid[0]:
            answer.failures.append(
                f"fig2 sweep minimum at {grid[k]!r}, anchor location {location.value!r}"
            )
        if gaps[k] < gap.value * (1.0 - gap.rtol):
            answer.failures.append(f"fig2 sweep gap {gaps[k]!r} below anchor {gap.value!r}")
        return answer

    def resonance() -> Answer:
        answer = Answer()
        report = cycqed.find_resonance(
            fig2.device, plan.parameter, (plan.start, plan.stop), plan.levels
        )
        _check(answer, fig2, "location", report.location)
        _check(answer, fig2, "gap", report.gap)
        return answer

    questions.append(Question("fig2_spectrum.sweep", "sweep", sweep))
    questions.append(Question("fig2_spectrum.find_resonance", "crossing", resonance))

    for name in EVOLVE_SCENARIOS:
        scenario = scenarios[name]
        questions.append(
            Question(f"{name}.effective_coupling", "coupling", _coupling_question(scenario))
        )
        questions.append(
            Question(f"{name}.locate_crossing", "crossing", _crossing_question(scenario))
        )
    return questions


def _coupling_question(scenario: cycqed.Scenario) -> Callable[[], Answer]:
    dev, plan = scenario.device, scenario.plan
    space = cycqed.build_space(dev)
    initial = cycqed.parse_state_label(dev, space, plan.initial)
    final = cycqed.parse_state_label(dev, space, plan.final)

    def ask() -> Answer:
        answer = Answer()
        coupling = cycqed.effective_coupling(dev, initial, final, plan.order)
        chi = dev.angular_to_rate(abs(coupling.lambda_eff))
        _check(answer, scenario, "chi_over_2pi_mhz", chi)
        return answer

    return ask


def _crossing_question(scenario: cycqed.Scenario) -> Callable[[], Answer]:
    def ask() -> Answer:
        answer = Answer()
        plan = scenario.plan
        report = cycqed.locate_crossing(scenario.device, plan.initial, plan.final)
        _check(answer, scenario, "retuned_omega", report.location)
        _check(answer, scenario, "crossing_gap", report.gap)
        return answer

    return ask


def setup_crossings(seed: int) -> list[Question]:
    del seed  # the shipped devices are the inputs
    return crossings_questions(load_scenarios())


# -- open_dynamics --------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """A retuned device with its initial state and transfer observables."""

    name: str
    device: cycqed.DeviceSpec
    initial: cycqed.BareState
    observables: cycqed.ObservableSet
    dimension: int


def build_window(scenario: cycqed.Scenario) -> Window:
    """The scenario's device at its ``retuned_omega`` anchor, ready to evolve."""
    plan = scenario.plan
    omega = regression_anchor(scenario, "retuned_omega").value
    dev = cycqed.with_parameter(scenario.device, _control_path(scenario.device), omega)
    space = cycqed.build_space(dev)
    initial = cycqed.parse_state_label(dev, space, plan.initial)
    final = cycqed.parse_state_label(dev, space, plan.final)
    obs = cycqed.standard_observables(dev, space, initial, final)
    return Window(scenario.name, dev, initial, obs, space.total_dim)


def run_window(window: Window) -> cycqed.TrajectoryResult:
    return cycqed.evolve(
        window.device,
        window.initial,
        WINDOW_NS,
        samples=WINDOW_SAMPLES,
        obs=window.observables,
        method="split",
        step=WINDOW_STEP_NS,
    )


def window_end_values(traj: cycqed.TrajectoryResult) -> dict[str, float]:
    return {name: float(col[-1]) for name, col in traj.values.items()}


def _window_question(window: Window, reference: dict[str, float]) -> Callable[[], Answer]:
    def ask() -> Answer:
        answer = Answer(simulated_ns=WINDOW_NS)
        traj = run_window(window)
        answer.failures.extend(f"{window.name}: warning: {w}" for w in traj.warnings)
        if traj.trace_drift > TRACE_TOL:
            answer.failures.append(f"{window.name}: trace drift {traj.trace_drift:.3e}")
        if traj.min_eigenvalue < -NEGATIVITY_TOL:
            answer.failures.append(f"{window.name}: min eigenvalue {traj.min_eigenvalue:.3e}")
        end = window_end_values(traj)
        if set(end) != set(reference):
            answer.failures.append(f"{window.name}: observables {sorted(end)} differ from reference")
        for name in set(end) & set(reference):
            if abs(end[name] - reference[name]) > WINDOW_ATOL:
                answer.failures.append(
                    f"{window.name}: {name} ends at {end[name]!r}, reference {reference[name]!r}"
                )
        return answer

    return ask


def _check_question() -> Answer:
    answer = Answer()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", "--only", CHECK_SCENARIO])
    if code != 0 or err.getvalue():
        answer.failures.append(
            f"check --only {CHECK_SCENARIO} exited {code}: {out.getvalue()}{err.getvalue()}"
        )
    return answer


def open_dynamics_questions(
    scenarios: dict[str, cycqed.Scenario], reference: dict[str, dict[str, float]]
) -> list[Question]:
    questions = []
    for name in WINDOW_DEVICES:
        window = build_window(scenarios[name])
        questions.append(
            Question(
                f"{name}.window.d{window.dimension}",
                "window",
                _window_question(window, reference[name]),
            )
        )
    questions.append(Question(f"check.{CHECK_SCENARIO}", "scenario", _check_question))
    return questions


def setup_open_dynamics(seed: int) -> list[Question]:
    del seed  # the shipped devices are the inputs
    reference = json.loads(REFERENCE_FILE.read_text())
    return open_dynamics_questions(load_scenarios(), reference)


# -- small_ensemble -------------------------------------------------------------

# Structures: levels per atom times dissipative or not. Each atom count gets
# the same share of cases, as in criterion 09, and within it every level
# pattern appears equally often. With n_max = 2 the dimension runs from 6 to
# 81, and auto picks rk45 (d <= 36) for five cases in six.
STRUCTURES = tuple(
    (levels, dissipative)
    for n_atoms in (1, 2, 3)
    for levels in np.ndindex(*(2,) * n_atoms)
    for _ in range(2 ** (3 - n_atoms))
    for dissipative in (False, True)
)


@dataclass(frozen=True)
class Case:
    """One random device with its initial state and standard observables."""

    device: cycqed.DeviceSpec
    initial: cycqed.BareState
    observables: cycqed.ObservableSet
    dissipative: bool
    dimension: int


def random_device(
    u: np.ndarray, levels: tuple[int, ...], dissipative: bool
) -> tuple[cycqed.DeviceSpec, str]:
    """Small dispersive device in omega0 units, after the criterion 09 generator.

    ``u`` holds the uniform draws in [0, 1) that set every parameter, in
    order; ``levels[k]`` is 0 for a two-level and 1 for a three-level atom.
    The cavity sits far above every transition so n_max = 2 is converged.
    Returns the device and the label of its initial state, no photon with
    atom 1 excited and the others in g, so that no case is stationary.
    """
    draws = iter(u)

    def uniform(low: float, high: float) -> float:
        return low + (high - low) * float(next(draws))

    atoms, edges, state = [], [], ["0"]
    for k, three_level in enumerate(levels):
        label = str(k + 1)
        omega_e = uniform(0.4, 0.8)
        omega_i = omega_e + uniform(0.5, 0.8) if three_level else None
        rates = {}
        if dissipative:
            rates["gamma_ge"] = uniform(1e-4, 2e-3)
            if three_level:
                rates["gamma_gi"] = uniform(1e-4, 2e-3)
                rates["gamma_ei"] = uniform(1e-4, 2e-3)
        atoms.append(cycqed.AtomSpec(label, omega_e, omega_i, **rates))
        couple = uniform(0.004, 0.018)
        if three_level:
            g_ei = uniform(0.004, 0.018)
            edges.append(cycqed.CouplingEdge(label, "c", g_ge=couple, g_gi=couple, g_ei=g_ei))
        else:
            edges.append(cycqed.CouplingEdge(label, "c", g_ge=couple))
        state.append("e" if k == 0 else "g")
    kappa = uniform(1e-4, 1e-3) if dissipative else 0.0
    dev = cycqed.DeviceSpec(
        cavities=(cycqed.CavitySpec("c", 1.8, kappa=kappa, n_max=2),),
        atoms=tuple(atoms),
        edges=tuple(edges),
        unit_omega0=True,
    )
    return dev, ",".join(state)


def ensemble(seed: int) -> list[Case]:
    """The seeded batch, in seeded order.

    Every structure appears in ENSEMBLE_PAIRS antithetic pairs: one device
    drawn from u and its partner from 1 - u. Pairing cancels most of the
    seed's effect on the total work, so runs with different seeds compare.
    """
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(ENSEMBLE_PAIRS):
        for levels, dissipative in STRUCTURES:
            u = rng.random(DRAWS_PER_DEVICE)
            plan += [(levels, dissipative, u), (levels, dissipative, 1.0 - u)]
    cases = []
    for index in rng.permutation(len(plan)):
        levels, dissipative, u = plan[index]
        dev, label = random_device(u, levels, dissipative)
        space = cycqed.build_space(dev)
        initial = cycqed.parse_state_label(dev, space, label)
        obs = cycqed.standard_observables(dev, space)
        cases.append(Case(dev, initial, obs, dissipative, space.total_dim))
    return cases


def _case_question(case: Case) -> Callable[[], Answer]:
    dev = case.device
    omega = dev.atoms[0].omega_e
    values = np.linspace(0.95 * omega, 1.05 * omega, ENSEMBLE_SWEEP_POINTS)

    def ask() -> Answer:
        answer = Answer()
        traj = cycqed.evolve(
            dev,
            case.initial,
            ENSEMBLE_T_FINAL,
            samples=ENSEMBLE_SAMPLES,
            obs=case.observables,
            method="auto",
        )
        answer.failures.extend(f"warning: {w}" for w in traj.warnings)
        if traj.trace_drift > TRACE_TOL:
            answer.failures.append(f"trace drift {traj.trace_drift:.3e}")
        if traj.min_eigenvalue < -NEGATIVITY_TOL:
            answer.failures.append(f"min eigenvalue {traj.min_eigenvalue:.3e}")
        if traj.hermiticity_residual > HERMITICITY_TOL:
            answer.failures.append(f"hermiticity residual {traj.hermiticity_residual:.3e}")
        if not case.dissipative:
            drift = float(np.max(np.abs(traj.purity - traj.purity[0])))
            if drift > PURITY_TOL:
                answer.failures.append(f"purity drift {drift:.3e}")
        start = time.perf_counter()
        sweep = cycqed.sweep_spectrum(dev, "atoms.1.omega_e", values)
        answer.parts["sweep"] = time.perf_counter() - start
        if not np.all(np.isfinite(sweep.energies)) or np.any(np.diff(sweep.energies, axis=1) < 0):
            answer.failures.append("sweep energies not finite and ascending")
        return answer

    return ask


def setup_small_ensemble(seed: int) -> list[Question]:
    return [
        Question(f"case{k:03d}.d{case.dimension}", "case", _case_question(case))
        for k, case in enumerate(ensemble(seed))
    ]


SETUPS = {
    "crossings": setup_crossings,
    "open_dynamics": setup_open_dynamics,
    "small_ensemble": setup_small_ensemble,
}

# Workloads whose inputs do not depend on the seed, by design.
SEED_INDEPENDENT = ("crossings", "open_dynamics")
