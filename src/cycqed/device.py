"""Device descriptions and Hamiltonian assembly.

A device is a declarative list of cavities, atoms, and coupling edges.
Frequencies are entered as ordinary frequencies (GHz for transition and
cavity frequencies, MHz for couplings and rates), matching how hardware
parameters are usually quoted; all internal math runs in angular frequency
(rad/ns) with time in ns. Devices with ``unit_omega0`` set are dimensionless:
every number is a multiple of a reference frequency omega0 and is used as-is.

The atomic ground level sits at zero energy by convention. Atoms are cyclic
three-level systems (every pairwise transition couples to a cavity), or
plain two-level systems when ``omega_i`` is omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .hilbert import (
    LEVEL_NAMES,
    BareState,
    CompositeSpace,
    SubsystemDef,
    build_space as _build_space,
)
from .symmetry import Sectors, build_sectors

TWO_PI = 2.0 * math.pi

# Transition names in the order used throughout reports and configs.
TRANSITIONS = ("ge", "gi", "ei")

# Dispersive-regime warning threshold on g / |detuning|.
DISPERSIVE_THRESHOLD = 0.2


def _require_finite(spec, where: str, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{where}: {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AtomSpec:
    """A two- or three-level atom.

    Parameters
    ----------
    label : str
    omega_e : float
        g-e transition frequency (GHz, or omega0 units).
    omega_i : float or None
        g-i transition frequency; None declares a two-level atom.
    gamma_ge, gamma_gi, gamma_ei : float
        Relaxation rates (MHz, or omega0 units).
    """

    label: str
    omega_e: float
    omega_i: float | None = None
    gamma_ge: float = 0.0
    gamma_gi: float = 0.0
    gamma_ei: float = 0.0

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("atom label must be nonempty")
        _require_finite(
            self, f"atom {self.label!r}", ("omega_e", "omega_i", "gamma_ge", "gamma_gi", "gamma_ei")
        )
        if self.omega_e <= 0:
            raise ValueError(f"atom {self.label!r}: omega_e must be positive")
        if self.omega_i is not None and self.omega_i <= self.omega_e:
            raise ValueError(f"atom {self.label!r}: omega_i must exceed omega_e")
        for name in ("gamma_ge", "gamma_gi", "gamma_ei"):
            if getattr(self, name) < 0:
                raise ValueError(f"atom {self.label!r}: {name} must be nonnegative")
        if self.omega_i is None and (self.gamma_gi or self.gamma_ei):
            raise ValueError(
                f"atom {self.label!r}: two-level atoms cannot have gi/ei rates"
            )

    @property
    def levels(self) -> int:
        return 2 if self.omega_i is None else 3


@dataclass(frozen=True)
class CavitySpec:
    """A single cavity mode with Fock truncation n_max (dimension n_max + 1)."""

    label: str
    omega_c: float
    kappa: float = 0.0
    n_max: int = 5

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("cavity label must be nonempty")
        _require_finite(self, f"cavity {self.label!r}", ("omega_c", "kappa"))
        if self.omega_c <= 0:
            raise ValueError(f"cavity {self.label!r}: omega_c must be positive")
        if self.kappa < 0:
            raise ValueError(f"cavity {self.label!r}: kappa must be nonnegative")
        if self.n_max < 2:
            raise ValueError(f"cavity {self.label!r}: n_max must be at least 2")


@dataclass(frozen=True)
class CouplingEdge:
    """Couplings between one atom and one cavity, one value per transition.

    A single value is stored per unordered level pair (the coupling matrix
    is symmetric). Two-level atoms use only g_ge.
    """

    atom: str
    cavity: str
    g_ge: float = 0.0
    g_gi: float = 0.0
    g_ei: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, f"edge {self.atom}-{self.cavity}", ("g_ge", "g_gi", "g_ei"))
        for name in ("g_ge", "g_gi", "g_ei"):
            if getattr(self, name) < 0:
                raise ValueError(f"edge {self.atom}-{self.cavity}: {name} must be >= 0")

    def g(self, transition: str) -> float:
        if transition not in TRANSITIONS:
            raise ValueError(f"unknown transition {transition!r}")
        return getattr(self, f"g_{transition}")


@dataclass(frozen=True)
class DeviceSpec:
    """Full device: cavities, atoms, coupling topology, and unit convention.

    Invariants enforced at construction: labels unique across the whole
    device, every edge references existing subsystems, at most one edge per
    (atom, cavity) pair, two-level atoms carry no gi/ei couplings, and the
    coupling graph is connected.
    """

    cavities: tuple[CavitySpec, ...] = ()
    atoms: tuple[AtomSpec, ...] = ()
    edges: tuple[CouplingEdge, ...] = ()
    unit_omega0: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "cavities", tuple(self.cavities))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.cavities and not self.atoms:
            raise ValueError("device needs at least one cavity or atom")
        labels = [c.label for c in self.cavities] + [a.label for a in self.atoms]
        if len(set(labels)) != len(labels):
            raise ValueError("cavity and atom labels must be unique device-wide")
        atom_by_label = {a.label: a for a in self.atoms}
        cavity_labels = {c.label for c in self.cavities}
        seen_pairs = set()
        for edge in self.edges:
            if edge.atom not in atom_by_label:
                raise ValueError(f"edge references unknown atom {edge.atom!r}")
            if edge.cavity not in cavity_labels:
                raise ValueError(f"edge references unknown cavity {edge.cavity!r}")
            pair = (edge.atom, edge.cavity)
            if pair in seen_pairs:
                raise ValueError(f"duplicate edge for pair {pair}")
            seen_pairs.add(pair)
            if atom_by_label[edge.atom].levels == 2 and (edge.g_gi or edge.g_ei):
                raise ValueError(
                    f"edge {pair}: two-level atom cannot couple gi/ei transitions"
                )
        self._check_connected()

    def _check_connected(self) -> None:
        nodes = {c.label for c in self.cavities} | {a.label for a in self.atoms}
        if len(nodes) <= 1:
            return
        neighbors: dict[str, set[str]] = {n: set() for n in nodes}
        for edge in self.edges:
            neighbors[edge.atom].add(edge.cavity)
            neighbors[edge.cavity].add(edge.atom)
        stack = [next(iter(nodes))]
        seen = set(stack)
        while stack:
            for other in neighbors[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if seen != nodes:
            missing = sorted(nodes - seen)
            raise ValueError(f"coupling graph is disconnected (unreachable: {missing})")

    # -- unit conversions ---------------------------------------------------

    def freq_to_angular(self, f: float) -> float:
        """GHz to rad/ns; identity for dimensionless (omega0-unit) devices."""
        return f if self.unit_omega0 else TWO_PI * f

    def rate_to_angular(self, r: float) -> float:
        """MHz to rad/ns; identity for dimensionless devices."""
        return r if self.unit_omega0 else TWO_PI * 1e-3 * r

    def angular_to_freq(self, w: float) -> float:
        """rad/ns back to GHz; identity for dimensionless devices."""
        return w if self.unit_omega0 else w / TWO_PI

    def angular_to_rate(self, w: float) -> float:
        """rad/ns back to MHz; identity for dimensionless devices."""
        return w if self.unit_omega0 else 1e3 * w / TWO_PI

    # -- lookups ------------------------------------------------------------

    def atom(self, label: str) -> AtomSpec:
        for a in self.atoms:
            if a.label == label:
                return a
        raise KeyError(f"no atom labeled {label!r}")

    def cavity(self, label: str) -> CavitySpec:
        for c in self.cavities:
            if c.label == label:
                return c
        raise KeyError(f"no cavity labeled {label!r}")

    def edges_of_atom(self, label: str) -> tuple[CouplingEdge, ...]:
        return tuple(e for e in self.edges if e.atom == label)

    def level_energies(self, atom: AtomSpec) -> tuple[float, ...]:
        """Bare energies of an atom's levels in ``LEVEL_NAMES`` order, in rad/ns; g is 0."""
        upper = (atom.omega_e,) if atom.omega_i is None else (atom.omega_e, atom.omega_i)
        return (0.0, *(self.freq_to_angular(f) for f in upper))


def build_space(dev: DeviceSpec) -> CompositeSpace:
    """Composite space of a device: cavities first, then atoms, declaration order."""
    defs = [
        SubsystemDef("cavity", c.n_max + 1, c.label) for c in dev.cavities
    ] + [
        SubsystemDef("atom", a.levels, a.label) for a in dev.atoms
    ]
    return _build_space(defs)


def _energy_term(dev: DeviceSpec, spec: AtomSpec | CavitySpec, occ: np.ndarray) -> np.ndarray:
    """One subsystem's bare energy on every basis state, in the device's units."""
    if isinstance(spec, CavitySpec):
        return dev.freq_to_angular(spec.omega_c) * occ
    return np.array(dev.level_energies(spec))[occ]


def _energy_terms(dev: DeviceSpec, space: CompositeSpace) -> tuple[np.ndarray, ...]:
    """The bare-energy term of every subsystem, in the tensor order."""
    return tuple(
        _energy_term(dev, (dev.cavity if sub.kind == "cavity" else dev.atom)(sub.label), occ)
        for sub, occ in zip(space.subsystems, space.occupation_arrays())
    )


def bare_energy_vector(dev: DeviceSpec, space: CompositeSpace) -> np.ndarray:
    """Bare energy of every basis state (rad/ns), ordered by basis index."""
    return sum(_energy_terms(dev, space))


def bare_state(
    dev: DeviceSpec,
    space: CompositeSpace,
    fock: tuple[int, ...],
    levels: tuple[str, ...],
) -> BareState:
    """Construct a labeled product state with its bare energy filled in."""
    if len(fock) != len(dev.cavities):
        raise ValueError("fock tuple length must match the cavity count")
    if len(levels) != len(dev.atoms):
        raise ValueError("levels tuple length must match the atom count")
    occs = []
    for n, cav in zip(fock, dev.cavities):
        if not 0 <= n <= cav.n_max:
            raise ValueError(f"photon number {n} outside cavity {cav.label!r} truncation")
        occs.append(int(n))
    energy = sum(dev.freq_to_angular(c.omega_c) * n for n, c in zip(fock, dev.cavities))
    for name, atom in zip(levels, dev.atoms):
        if name not in LEVEL_NAMES[: atom.levels]:
            raise ValueError(f"level {name!r} invalid for atom {atom.label!r}")
        occs.append(LEVEL_NAMES.index(name))
        energy += dev.level_energies(atom)[occs[-1]]
    return BareState.at(space, space.index_of(tuple(occs)), energy)


def parse_state_label(dev: DeviceSpec, space: CompositeSpace, text: str) -> BareState:
    """Parse a compact state label like '0,e,g,g' (cavities first)."""
    parts = [p.strip() for p in text.split(",")]
    n_cav = len(dev.cavities)
    if len(parts) != n_cav + len(dev.atoms):
        raise ValueError(
            f"state label {text!r} needs {n_cav} photon numbers and "
            f"{len(dev.atoms)} atom levels"
        )
    try:
        fock = tuple(int(p) for p in parts[:n_cav])
    except ValueError as exc:
        raise ValueError(f"bad photon number in state label {text!r}") from exc
    return bare_state(dev, space, fock, tuple(parts[n_cav:]))


def build_interaction_rwa(dev: DeviceSpec, space: CompositeSpace) -> np.ndarray:
    """Interaction Hamiltonian of photon-creation/atom-lowering pairs and their adjoints.

    Each edge contributes a+ (g_ge|g><e| + g_ei|e><i| + g_gi|g><i|) plus the
    adjoint, as a real symmetric float64 matrix assembled from index triples:
    every coupled transition j <-> k (j below k) puts g sqrt(n+1) on the
    states with the atom in k and room for one more photon, at the row one
    photon up and k - j levels down by the mixed-radix strides, and the
    transpose adds the adjoint. No two terms share an entry. With cyclic
    three-level atoms this does not conserve the total excitation number:
    the g-i term pairs one created photon with an atomic drop worth two
    excitation quanta.
    """
    strides = space.strides
    occ = space.occupation_arrays()
    h = np.zeros((space.total_dim, space.total_dim))
    for edge in dev.edges:
        cav, atom = space.position(edge.cavity), space.position(edge.atom)
        room = occ[cav] < space.subsystems[cav].dimension - 1
        factor = np.sqrt(occ[cav] + 1)
        for transition in TRANSITIONS[: 1 if space.subsystems[atom].dimension == 2 else 3]:
            g = dev.rate_to_angular(edge.g(transition))
            if g == 0.0:
                continue
            lower, upper = (LEVEL_NAMES.index(name) for name in transition)
            cols = np.flatnonzero((occ[atom] == upper) & room)
            rows = cols + strides[cav] - (upper - lower) * strides[atom]
            h[rows, cols] = h[cols, rows] = g * factor[cols]
    return h


@dataclass(frozen=True, eq=False)
class Model:
    """A device's space, energies, interaction and symmetry blocks, assembled once for many H(x).

    The space (with its occupation arrays) and each subsystem's bare-energy
    term are kept; the interaction, the ``sectors`` of the class of identical
    atoms (W = 1 without one) and the interaction's blocks ``reduced`` are
    built on first use. ``at(path, x)`` is ``diag(bare_energy_vector) +
    build_interaction_rwa`` of ``with_parameter(dev, path, x)`` bit for bit,
    and ``blocks(path, x)`` its projection on ``sectors_for(path)`` with the
    diagonal read at ``sectors.anchors``. An atom or cavity field re-validates
    only its spec and recomputes only its energy term, summed in
    ``bare_energy_vector``'s order; a coupling field rebuilds the interaction.
    A value that changes a subsystem's number of levels is refused with
    ``ValueError``: a new ``n_max``, or an ``omega_i`` set on a two-level atom
    or cleared on a three-level one. ``whole`` is the one block W = 1, built
    once per model.
    """

    dev: DeviceSpec
    space: CompositeSpace = field(init=False)
    terms: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _paths: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "space", build_space(self.dev))
        object.__setattr__(self, "terms", _energy_terms(self.dev, self.space))

    @cached_property
    def interaction(self) -> np.ndarray:
        return build_interaction_rwa(self.dev, self.space)

    @cached_property
    def whole(self) -> Sectors:
        return Sectors.whole(self.space.total_dim)

    @cached_property
    def sectors(self) -> Sectors:
        return build_sectors(self.dev, self.space) or self.whole

    @cached_property
    def reduced(self) -> tuple[np.ndarray, ...]:
        return tuple(self.sectors.project(self.interaction)) if self.sectors.labels else ()

    def _where(self, path: str):
        """``_resolve_path`` of ``path``, kept: a sweep asks it at every point."""
        if path not in self._paths:
            self._paths[path] = _resolve_path(self.dev, path)
        return self._paths[path]

    def _point(self, path: str | None, x: float | None):
        """E_bare with ``path`` set to ``x``, and the interaction if a coupling field rebuilt it."""
        terms, interaction = list(self.terms), None
        group, k, name = self._where(path) if path else (None, None, None)
        if group == "edges":
            interaction = build_interaction_rwa(with_parameter(self.dev, path, x), self.space)
        elif group:
            spec = replace(getattr(self.dev, group)[k], **{name: x})
            at = self.space.position(spec.label)
            if self.space.dims[at] != (spec.n_max + 1 if group == "cavities" else spec.levels):
                raise ValueError("sweep parameter changes the space dimension")
            terms[at] = _energy_term(self.dev, spec, self.space.occupation_arrays()[at])
        return sum(terms), interaction

    def at(self, path: str | None = None, x: float | None = None) -> np.ndarray:
        """The device Hamiltonian, with the field at ``path`` set to ``x`` when given."""
        energy, h = self._point(path, x)
        if h is None:
            h = self.interaction.copy()
        np.fill_diagonal(h, energy)
        return h

    def sectors_for(self, path: str) -> Sectors:
        """``sectors``, or the one block W = 1 when ``path`` is on a class atom or its edge."""
        group, k, _ = self._where(path)
        atom = {"atoms": "label", "edges": "atom"}.get(group)
        if atom and getattr(getattr(self.dev, group)[k], atom) in self.sectors.labels:
            return self.whole
        return self.sectors

    def blocks(self, path: str, x: float) -> list[np.ndarray]:
        """The blocks W_{λ,1}ᵀ H(x) W_{λ,1} of ``sectors_for(path)``, in its order.

        For the one block W = 1 this is ``[at(path, x)]``; otherwise no d × d
        copy is made, and only a coupling field rebuilds the interaction.
        """
        if not self.sectors_for(path).labels:
            return [self.at(path, x)]
        energy, fresh = self._point(path, x)
        blocks = [b.copy() for b in self.reduced] if fresh is None else self.sectors.project(fresh)
        for h, rows in zip(blocks, self.sectors.anchors):
            np.fill_diagonal(h, energy[rows])
        return blocks


@dataclass(frozen=True)
class DispersiveRatio:
    """g / |detuning| for one edge and transition; flagged when too large."""

    atom: str
    cavity: str
    transition: str
    ratio: float
    flagged: bool


def validate_dispersive(dev: DeviceSpec) -> list[DispersiveRatio]:
    """Report g/|detuning| for every edge and transition.

    The detuning of transition j-k against cavity s is
    ``| |omega_j - omega_k| - omega_s |``. Entries with ratio above
    ``DISPERSIVE_THRESHOLD`` are flagged; an exact resonance reports an
    infinite ratio.
    """
    report = []
    for edge in dev.edges:
        atom = dev.atom(edge.atom)
        omega_c = dev.freq_to_angular(dev.cavity(edge.cavity).omega_c)
        _, omega_e, *upper = dev.level_energies(atom)
        freqs = {"ge": omega_e}
        for omega_i in upper:
            freqs.update(gi=omega_i, ei=omega_i - omega_e)
        for transition, omega_t in freqs.items():
            g = dev.rate_to_angular(edge.g(transition))
            delta = abs(omega_t - omega_c)
            if g == 0.0:
                ratio = 0.0
            elif delta == 0.0:
                ratio = math.inf
            else:
                ratio = g / delta
            report.append(
                DispersiveRatio(
                    edge.atom, edge.cavity, transition, ratio, ratio > DISPERSIVE_THRESHOLD
                )
            )
    return report


# -- dotted parameter paths -------------------------------------------------

# group -> (spec class, fields that identify an item, noun in messages); every
# other field of the class is addressable.
_PATH_GROUPS = {
    "atoms": (AtomSpec, ("label",), "atom"),
    "cavities": (CavitySpec, ("label",), "cavity"),
    "edges": (CouplingEdge, ("atom", "cavity"), "edge"),
}


def _resolve_path(dev: DeviceSpec, path: str):
    """Split a dotted path into (group, object index, field name)."""
    parts = path.split(".")
    group = _PATH_GROUPS.get(parts[0])
    if group is None or len(parts) != len(group[1]) + 2:
        raise ValueError(
            f"parameter path {path!r} must look like atoms.<label>.<field>, "
            "cavities.<label>.<field>, or edges.<atom>.<cavity>.<field>"
        )
    cls, keys, noun = group
    ids, fieldname = tuple(parts[1:-1]), parts[-1]
    if fieldname in keys or fieldname not in {f.name for f in fields(cls)}:
        raise ValueError(f"unknown {noun} field {fieldname!r} in {path!r}")
    for k, item in enumerate(getattr(dev, parts[0])):
        if tuple(getattr(item, key) for key in keys) == ids:
            return (parts[0], k, fieldname)
    name = f"labeled {ids[0]!r}" if len(ids) == 1 else "-".join(ids)
    raise ValueError(f"no {noun} {name} in {path!r}")


def get_parameter(dev: DeviceSpec, path: str) -> float:
    """Read a scalar device field by dotted path (e.g. 'atoms.1.omega_e')."""
    group, k, fieldname = _resolve_path(dev, path)
    value = getattr(getattr(dev, group)[k], fieldname)
    if value is None:
        raise ValueError(f"field {path!r} is not set on this device")
    return value


def with_parameter(dev: DeviceSpec, path: str, value: float) -> DeviceSpec:
    """Return a copy of the device with one scalar field replaced."""
    group, k, fieldname = _resolve_path(dev, path)
    items = list(getattr(dev, group))
    if fieldname == "n_max":
        if not float(value).is_integer():
            raise ValueError(f"n_max must be an integer, got {value!r}")
        value = int(value)
    items[k] = replace(items[k], **{fieldname: value})
    return replace(dev, **{group: tuple(items)})
