"""Effective couplings between degenerate bare states by perturbative path sums.

A process of order 2n connects an initial bare state to a degenerate final
one through 2n - 1 virtual intermediates, each step being a single nonzero
interaction matrix element. Every path contributes the product of its
matrix elements divided by the product of energy defects (E_initial minus
the intermediate energy), and the effective coupling is the sum over paths.
Closed forms for the three device topologies of interest re-derive the same
numbers and serve as cross-checks.

Second-order level shifts (ac-Stark and Lamb type renormalizations of the
bare energies) come from the standard single-virtual-photon sums and feed
the frequency-matching workflow: the control atom is detuned from the bare
matching point by exactly the shift difference of the two states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import DISPERSIVE_THRESHOLD, DeviceSpec, Model, with_parameter
from .hilbert import BareState, CompositeSpace, LEVEL_NAMES

# Intermediates closer to the initial energy than floor_factor times the
# smallest coupling make the path sum diverge; they are rejected loudly.
FLOOR_FACTOR = 1e-3

# Initial and final states count as degenerate within this many times the
# largest coupling.
MATCH_FACTOR = 10.0

# Fixed-point steps of the shift-corrected frequency matching.
MATCH_ITERATIONS = 40


class PerturbationError(ValueError):
    """Degeneracy-floor violation or an ill-posed coupling query."""


@dataclass(frozen=True)
class TransitionPath:
    """One virtual path from the initial to the final state.

    Attributes
    ----------
    states : tuple of BareState
        Full sequence, initial first, final last.
    elements : tuple of float
        Interaction matrix elements along the steps (length = order).
    denominators : tuple of float
        E_initial - E_intermediate for every intermediate (length = order - 1).
    """

    states: tuple[BareState, ...]
    elements: tuple[float, ...]
    denominators: tuple[float, ...]

    @property
    def contribution(self) -> float:
        # a denominator product past the largest float is inf: the path contributes 0
        with np.errstate(over="ignore"):
            return float(np.prod(self.elements)) / float(np.prod(self.denominators))


@dataclass(frozen=True)
class RejectedPath:
    """Prefix of a path whose next intermediate sat below the degeneracy floor."""

    states: tuple[BareState, ...]
    offender: BareState
    denominator: float


@dataclass(frozen=True)
class PathSearchResult:
    """Accepted paths plus diagnostics for floor-rejected prefixes."""

    paths: tuple[TransitionPath, ...]
    rejected: tuple[RejectedPath, ...]


@dataclass(frozen=True)
class EffectiveCoupling:
    """Path-sum result for one degenerate pair.

    ``lambda_eff`` is the signed coupling in angular frequency units; the
    sign is physical (it sets the phase of the generated entangled state).
    """

    initial: BareState
    final: BareState
    order: int
    lambda_eff: float
    paths: tuple[TransitionPath, ...]

    @property
    def period(self) -> float:
        """Full population-exchange period pi / |lambda| (ns for GHz devices).

        Infinite when no path couples the pair (lambda = 0).
        """
        return math.pi / abs(self.lambda_eff) if self.lambda_eff else math.inf


def enumerate_paths(
    space: CompositeSpace,
    energies: np.ndarray,
    hi: np.ndarray,
    initial: BareState,
    final: BareState,
    order: int,
    match_tol: float | None = None,
) -> PathSearchResult:
    """Enumerate all virtual paths of a given order between degenerate states.

    Parameters
    ----------
    space : CompositeSpace
    energies : numpy.ndarray
        Bare energy of every basis state (the diagonal of H0).
    hi : numpy.ndarray
        Real interaction Hamiltonian on the same space.
    initial, final : BareState
        Two distinct states, degenerate within 10 times the largest
        coupling element.
    order : int
        Number of interaction steps (even for the exchange processes here).
    match_tol : float, optional
        Tolerance for the initial/final degeneracy check; defaults to 10
        times the largest interaction element. Callers that know the bare
        coupling constants should pass 10 times the largest of those
        instead, since Fock factors inflate the matrix elements.

    Returns
    -------
    PathSearchResult
        Paths sorted lexicographically by intermediate basis indices, plus
        rejected-path diagnostics. The initial and final states themselves
        are excluded as intermediates (they span the degenerate subspace).

    Notes
    -----
    Intermediates may hold at most order/2 photons (no process of this
    length can create more), which keeps the search polynomial. A
    breadth-first distance map to the final state prunes dead branches.
    An intermediate whose energy defect is below the degeneracy floor,
    1e-3 times the smallest nonzero interaction element, is rejected.
    """
    if order < 2:
        raise PerturbationError("order must be at least 2")
    if initial.index == final.index:
        raise PerturbationError(
            f"initial and final state are both {initial.label()}; a coupling needs two states"
        )
    nonzero = np.abs(hi) > 0
    magnitudes = np.abs(hi[nonzero])
    if magnitudes.size == 0:
        return PathSearchResult((), ())
    floor = FLOOR_FACTOR * float(magnitudes.min())
    if match_tol is None:
        match_tol = MATCH_FACTOR * float(np.max(np.abs(hi))) if nonzero.any() else 0.0
    e_ref = energies[initial.index]
    if abs(e_ref - energies[final.index]) > match_tol:
        raise PerturbationError(
            f"states {initial.label()} and {final.label()} are not degenerate "
            f"(defect {abs(e_ref - energies[final.index]):.3e} exceeds {match_tol:.3e})"
        )

    neighbors = [np.flatnonzero(nonzero[:, col]) for col in range(space.total_dim)]
    photons = sum(
        occ for sub, occ in zip(space.subsystems, space.occupation_arrays()) if sub.kind == "cavity"
    )
    cap = order // 2

    # BFS distance to the final state for dead-branch pruning
    dist = np.full(space.total_dim, space.total_dim + order, dtype=int)
    dist[final.index] = 0
    frontier = [final.index]
    while frontier:
        nxt = []
        for node in frontier:
            for other in neighbors[node]:
                if dist[other] > dist[node] + 1:
                    dist[other] = dist[node] + 1
                    nxt.append(int(other))
        frontier = nxt

    paths: list[tuple[tuple[int, ...], TransitionPath]] = []
    rejected: list[RejectedPath] = []
    endpoint = {initial.index, final.index}

    def state_of(idx: int) -> BareState:
        return BareState.at(space, idx, energies[idx])

    def walk(node: int, steps_left: int, seq: list[int]) -> None:
        if steps_left == 1:
            if nonzero[final.index, node]:
                chain = seq + [final.index]
                elements = tuple(hi[b, a] for a, b in zip(chain, chain[1:]))
                denoms = tuple(float(e_ref - energies[j]) for j in chain[1:-1])
                states = tuple(state_of(j) for j in chain)
                paths.append((tuple(chain[1:-1]), TransitionPath(states, elements, denoms)))
            return
        for other in neighbors[node]:
            other = int(other)
            if other in endpoint:
                continue
            if photons[other] > cap or dist[other] > steps_left - 1:
                continue
            defect = e_ref - energies[other]
            if abs(defect) < floor:
                rejected.append(
                    RejectedPath(
                        tuple(state_of(j) for j in seq),
                        state_of(other),
                        float(defect),
                    )
                )
                continue
            walk(other, steps_left - 1, seq + [other])

    walk(initial.index, order, [initial.index])
    paths.sort(key=lambda item: item[0])
    return PathSearchResult(tuple(p for _, p in paths), tuple(rejected))


def effective_coupling(
    dev: DeviceSpec,
    initial: BareState,
    final: BareState,
    order: int,
    strict: bool = True,
) -> EffectiveCoupling:
    """Sum the path contributions for one degenerate pair of a device.

    Parameters
    ----------
    dev : DeviceSpec
    initial, final : BareState
    order : int
        Interaction steps; 2 times the number of exchanged excitations.
    strict : bool
        Raise when any path prefix was rejected at the floor (the sum would
        silently miss divergent contributions otherwise).

    Returns
    -------
    EffectiveCoupling
    """
    model = Model(dev)
    g_max = max(
        dev.rate_to_angular(edge.g(t)) for edge in dev.edges for t in ("ge", "gi", "ei")
    )
    found = enumerate_paths(
        model.space, sum(model.terms), model.interaction, initial, final, order,
        match_tol=MATCH_FACTOR * g_max,
    )
    if strict and found.rejected:
        worst = min(found.rejected, key=lambda r: abs(r.denominator))
        raise PerturbationError(
            f"{len(found.rejected)} path(s) hit the degeneracy floor; "
            f"nearest offender {worst.offender.label()} with defect "
            f"{worst.denominator:.3e} (perturbation theory invalid here)"
        )
    lam = float(sum(p.contribution for p in found.paths))
    return EffectiveCoupling(initial, final, order, lam, found.paths)


# -- closed-form couplings ----------------------------------------------------

CHI_KINDS = ("chi3_one_cavity", "chi3_two_cavity", "chi4_one_cavity")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"topology mismatch: {message}")


def _identical_spectators(dev: DeviceSpec, spectators) -> None:
    first = spectators[0]
    edge0 = dev.edges_of_atom(first.label)[0]
    for atom in spectators[1:]:
        edge = dev.edges_of_atom(atom.label)[0]
        same = (
            atom.omega_e == first.omega_e
            and atom.omega_i == first.omega_i
            and edge.g_ge == edge0.g_ge
            and edge.g_gi == edge0.g_gi
            and edge.g_ei == edge0.g_ei
        )
        _require(same, "spectator atoms must be identical for the factorial prefactor")


def closed_form_chi(dev: DeviceSpec, which: str) -> float:
    """Evaluate the literal closed-form coupling for a matching topology.

    Parameters
    ----------
    dev : DeviceSpec
        Atom 0 is the control; the remaining atoms are the spectators that
        share the excitation.
    which : {'chi3_one_cavity', 'chi3_two_cavity', 'chi4_one_cavity'}

    Returns
    -------
    float
        Signed coupling in angular frequency units (rad/ns), to be compared
        against the order-4 or order-6 path sum.
    """
    if which not in CHI_KINDS:
        raise ValueError(f"unknown closed form {which!r}")
    ang_f = dev.freq_to_angular
    ang_g = dev.rate_to_angular

    if which == "chi3_one_cavity":
        _require(len(dev.cavities) == 1 and len(dev.atoms) == 3, "needs 1 cavity and 3 atoms")
        control, a2, a3 = dev.atoms
        _require(a2.levels == 3 and a3.levels == 3, "spectators must be three-level")
        _identical_spectators(dev, (a2, a3))
        cav = dev.cavities[0]
        e1 = dev.edges_of_atom(control.label)[0]
        e2 = dev.edges_of_atom(a2.label)[0]
        e3 = dev.edges_of_atom(a3.label)[0]
        numerator = 2.0 * ang_g(e1.g_ge) * ang_g(e2.g_gi) * ang_g(e2.g_ei) * ang_g(e3.g_ge)
        w_e1 = ang_f(control.omega_e)
        denom = (
            (w_e1 - ang_f(cav.omega_c))
            * (w_e1 - ang_f(a2.omega_i))
            * (w_e1 - ang_f(a2.omega_e) - ang_f(cav.omega_c))
        )
        return numerator / denom

    if which == "chi3_two_cavity":
        _require(len(dev.cavities) == 2 and len(dev.atoms) == 3, "needs 2 cavities and 3 atoms")
        control, bridge, far = dev.atoms
        _require(bridge.levels == 3, "the bridging atom must be three-level")
        control_edges = dev.edges_of_atom(control.label)
        far_edges = dev.edges_of_atom(far.label)
        bridge_edges = {e.cavity: e for e in dev.edges_of_atom(bridge.label)}
        _require(
            len(control_edges) == 1 and len(far_edges) == 1 and len(bridge_edges) == 2,
            "control and far atoms couple one cavity each, the bridge couples both",
        )
        left = control_edges[0].cavity
        right = far_edges[0].cavity
        _require(left != right, "control and far atoms must sit on different cavities")
        numerator = (
            ang_g(control_edges[0].g_ge)
            * ang_g(bridge_edges[left].g_gi)
            * ang_g(bridge_edges[right].g_ei)
            * ang_g(far_edges[0].g_ge)
        )
        w_e1 = ang_f(control.omega_e)
        denom = (
            (w_e1 - ang_f(dev.cavity(left).omega_c))
            * (w_e1 - ang_f(bridge.omega_i))
            * (w_e1 - ang_f(bridge.omega_e) - ang_f(dev.cavity(right).omega_c))
        )
        return numerator / denom

    _require(len(dev.cavities) == 1 and len(dev.atoms) == 4, "needs 1 cavity and 4 atoms")
    control, a2, a3, a4 = dev.atoms
    _require(all(a.levels == 3 for a in (a2, a3, a4)), "spectators must be three-level")
    _identical_spectators(dev, (a2, a3, a4))
    cav = dev.cavities[0]
    e1 = dev.edges_of_atom(control.label)[0]
    e2 = dev.edges_of_atom(a2.label)[0]
    e3 = dev.edges_of_atom(a3.label)[0]
    e4 = dev.edges_of_atom(a4.label)[0]
    numerator = (
        6.0
        * ang_g(e1.g_ge)
        * ang_g(e2.g_gi)
        * ang_g(e2.g_ei)
        * ang_g(e3.g_gi)
        * ang_g(e3.g_ei)
        * ang_g(e4.g_ge)
    )
    w_e1 = ang_f(control.omega_e)
    w_c = ang_f(cav.omega_c)
    w_e2 = ang_f(a2.omega_e)
    denom = (
        (w_e1 - w_c)
        * (w_e1 - ang_f(a2.omega_i))
        * (w_e1 - w_e2 - w_c)
        * (w_e1 - ang_f(a3.omega_i) - w_e2)
        * (w_e1 - ang_f(a3.omega_e) - w_e2 - w_c)
    )
    return numerator / denom


# -- second-order level shifts ------------------------------------------------

@dataclass(frozen=True)
class DispersiveShifts:
    """Second-order renormalization of the bare energies.

    ``eta[(atom, level)]`` is the photon-independent (Lamb type) shift;
    ``xi[(atom, cavity, level)]`` multiplies the photon number of that
    cavity (ac-Stark type). Both in angular frequency units. ``flags``
    lists near-degenerate denominators that make the expansion unreliable.
    """

    eta: dict[tuple[str, str], float]
    xi: dict[tuple[str, str, str], float]
    flags: tuple[str, ...]

    def state_energy(self, dev: DeviceSpec, state: BareState) -> float:
        """Bare energy plus shifts for a product state (angular units)."""
        energy = state.energy
        for atom, level in zip(dev.atoms, state.levels):
            energy += self.eta[(atom.label, level)]
            for cav, n in zip(dev.cavities, state.fock):
                energy += n * self.xi[(atom.label, cav.label, level)]
        return energy


def second_order_shifts(dev: DeviceSpec) -> DispersiveShifts:
    """Lamb and ac-Stark coefficients from single-virtual-photon sums.

    For an atom level j coupled to cavity s, photon emission into a lower
    level k contributes g^2/(w_j - w_k - w_s) once (Lamb part) plus once per
    photon (Stark part); photon absorption into a higher level k contributes
    g^2/(w_j + w_s - w_k) per photon only.
    """
    eta: dict[tuple[str, str], float] = {}
    xi: dict[tuple[str, str, str], float] = {}
    flags: list[str] = []
    for atom in dev.atoms:
        levels = dict(zip(LEVEL_NAMES, dev.level_energies(atom)))
        for level in levels:
            eta.setdefault((atom.label, level), 0.0)
        for edge in dev.edges_of_atom(atom.label):
            omega_s = dev.freq_to_angular(dev.cavity(edge.cavity).omega_c)
            for level, w_j in levels.items():
                stark = 0.0
                for other, w_k in levels.items():
                    if other == level:
                        continue
                    pair = "".join(sorted((level, other), key=LEVEL_NAMES.index))
                    g = dev.rate_to_angular(edge.g(pair))
                    if g == 0.0:
                        continue
                    if w_k < w_j:
                        defect = w_j - w_k - omega_s
                        channel = "emission"
                    else:
                        defect = w_j + omega_s - w_k
                        channel = "absorption"
                    if g > DISPERSIVE_THRESHOLD * abs(defect):
                        flags.append(
                            f"atom {atom.label} level {level} {channel} {pair} via "
                            f"cavity {edge.cavity}: defect {defect:.3e} is not dispersive"
                        )
                    if w_k < w_j:
                        eta[(atom.label, level)] += g * g / defect
                    stark += g * g / defect
                xi[(atom.label, edge.cavity, level)] = stark
        # levels of atoms without an edge to some cavity shift by zero
        for cav in dev.cavities:
            for level in levels:
                xi.setdefault((atom.label, cav.label, level), 0.0)
    return DispersiveShifts(eta, xi, tuple(flags))


def matched_control_frequency(dev: DeviceSpec) -> float:
    """Control-atom frequency that degenerates the two exchange states.

    Solves omega_e(control) + eta_e(control) = sum over spectators of
    (omega_e + eta_e) by fixed-point iteration (at most ``MATCH_ITERATIONS``
    steps), with atom 0 as the control.
    The result is in config units (GHz, or omega0 multiples) and lands
    within higher-order corrections of the exact crossing located by
    spectral refinement.
    """
    if len(dev.atoms) < 2:
        raise ValueError("needs a control atom plus at least one spectator")
    control = dev.atoms[0].label
    guess = dev.atoms[0].omega_e
    for _ in range(MATCH_ITERATIONS):
        trial = with_parameter(dev, f"atoms.{control}.omega_e", guess)
        shifts = second_order_shifts(trial)
        target = sum(
            trial.freq_to_angular(a.omega_e) + shifts.eta[(a.label, "e")]
            for a in trial.atoms[1:]
        )
        new_guess = dev.angular_to_freq(target - shifts.eta[(control, "e")])
        if abs(new_guess - guess) < 1e-14:
            guess = new_guess
            break
        guess = new_guess
    return guess
