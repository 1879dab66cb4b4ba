"""Simulator for circuit QED devices built from cyclic three-level atoms.

A device is a set of cavities and two- or three-level atoms whose every
pairwise transition may couple to a cavity. The package constructs the
bare and interaction Hamiltonians, sweeps spectra to locate avoided
crossings, evaluates effective multi-atom couplings by high-order
perturbative path sums, and integrates dissipative Lindblad dynamics.
"""

from .hilbert import BareState, CompositeSpace
from .device import (
    AtomSpec,
    CavitySpec,
    CouplingEdge,
    DeviceSpec,
    build_space,
    get_parameter,
    parse_state_label,
    with_parameter,
)
from .config import ConfigError, load_device, save_device
from .spectral import CrossingReport, SpectrumResult, find_resonance, sweep_spectrum
from .perturbation import EffectiveCoupling, PerturbationError, closed_form_chi, effective_coupling
from .dynamics import (
    DensityMatrix,
    Observable,
    ObservableSet,
    TrajectoryResult,
    entanglement_checkpoint,
    evolve,
    extract_period,
    standard_observables,
)
from .scenarios import (
    SCENARIO_NAMES,
    MetricSpec,
    Scenario,
    ScenarioReport,
    load_scenario,
    load_scenario_file,
    locate_crossing,
    run_scenario,
)

__all__ = [
    "AtomSpec",
    "BareState",
    "CavitySpec",
    "CompositeSpace",
    "ConfigError",
    "CouplingEdge",
    "CrossingReport",
    "DensityMatrix",
    "DeviceSpec",
    "EffectiveCoupling",
    "MetricSpec",
    "Observable",
    "ObservableSet",
    "PerturbationError",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioReport",
    "SpectrumResult",
    "TrajectoryResult",
    "build_space",
    "closed_form_chi",
    "effective_coupling",
    "entanglement_checkpoint",
    "evolve",
    "extract_period",
    "find_resonance",
    "get_parameter",
    "load_device",
    "load_scenario",
    "load_scenario_file",
    "locate_crossing",
    "parse_state_label",
    "run_scenario",
    "save_device",
    "standard_observables",
    "sweep_spectrum",
    "with_parameter",
]

__version__ = "0.1.0"
