"""Effective couplings between degenerate bare states by perturbative path sums.

A process of order 2n connects an initial bare state to a degenerate final
one through 2n - 1 virtual intermediates, each step being a single nonzero
interaction matrix element. Every path contributes the product of its
matrix elements divided by the product of energy defects (E_initial minus
the intermediate energy), and the effective coupling is the sum over paths.
That sum is the bare-denominator resolvent expansion <f|V(GV)^(2n-1)|i>
(Cohen-Tannoudji, Dupont-Roc and Grynberg, Atom-Photon Interactions, 1992,
ch. III), taken as one recursion over the steps that also counts the paths
exactly; ``enumerate_paths`` lists them one by one on demand. Closed forms
for the three device topologies of interest re-derive the same numbers and
serve as cross-checks.

Second-order level shifts (ac-Stark and Lamb type renormalizations of the
bare energies) come from the standard single-virtual-photon sums and feed
the frequency-matching workflow: the control atom is detuned from the bare
matching point by exactly the shift difference of the two states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .device import DISPERSIVE_THRESHOLD, DeviceSpec, Model, with_parameter
from .hilbert import BareState, LEVEL_NAMES

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
class EffectiveCoupling:
    """Path-sum result for one degenerate pair.

    ``lambda_eff`` is the signed coupling in angular frequency units; the
    sign is physical (it sets the phase of the generated entangled state).
    ``path_count`` is the exact number of paths in the sum.
    """

    initial: BareState
    final: BareState
    order: int
    lambda_eff: float
    path_count: int

    @property
    def period(self) -> float:
        """Full population-exchange period pi / |lambda| (ns for GHz devices).

        Infinite when no path couples the pair (lambda = 0).
        """
        return math.pi / abs(self.lambda_eff) if self.lambda_eff else math.inf


@dataclass(frozen=True)
class Listing:
    """``count`` items listed on demand: ``len`` gives the exact count below 2**63."""

    count: int
    items: Callable[[], Iterator]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator:
        return self.items()


class PathSum(NamedTuple):
    """A path sum, counted without listing its paths.

    ``paths`` lists the accepted paths as ``TransitionPath``s in lexicographic
    order of their intermediates. ``rejected`` gives (offender, defect) once
    per path prefix rejected at the degeneracy floor, the nearest offender
    first (the smallest |defect|, the lowest basis index among equals).
    perfbench's tracer counts kept and rejected paths by ``len`` of the two.
    """

    lambda_eff: float
    paths: Listing
    rejected: Listing


def enumerate_paths(dev: DeviceSpec, initial: BareState, final: BareState, order: int) -> PathSum:
    """Sum and count every virtual path of a given order between two degenerate states.

    Parameters
    ----------
    dev : DeviceSpec
    initial, final : BareState
        Two distinct states, degenerate within 10 times the largest bare
        coupling (Fock factors inflate the matrix elements).
    order : int
        Number of interaction steps (even for the exchange processes here).

    Notes
    -----
    lambda = <f|V(GV)^(order-1)|i>, with G = 1/(E_initial - E) on the allowed
    intermediates and 0 elsewhere. One product with V's nonzeros per step
    carries, for each state, the summed amplitude of the path prefixes that
    end there and their exact number (Python ints: the count outgrows float64
    near order 30), so the work is O(order nnz(V)) at any path count.
    Intermediates may hold at most order/2 photons (no process of this
    length can create more), and the initial and final states, which span
    the degenerate subspace, are never intermediates. A state whose energy
    defect is below the degeneracy floor, 1e-3 times the smallest nonzero
    interaction element, rejects each prefix that reaches it within the
    remaining steps of the final state. Listing the paths is a depth-first
    walk over the same masks, so its work grows with the path count.
    """
    if order < 2:
        raise PerturbationError("order must be at least 2")
    if initial.index == final.index:
        raise PerturbationError(
            f"initial and final state are both {initial.label()}; a coupling needs two states"
        )
    model = Model(dev)
    space, hi = model.space, model.interaction
    # row-major like np.nonzero(hi), and several times faster on a large dense V
    rows, cols = divmod(np.flatnonzero(hi != 0), space.total_dim)
    if not rows.size:
        return PathSum(0.0, Listing(0, lambda: iter(())), Listing(0, lambda: iter(())))
    elements = hi[rows, cols]
    energies = sum(model.terms)
    defects = energies[initial.index] - energies
    g_max = max(dev.rate_to_angular(e.g(t)) for e in dev.edges for t in ("ge", "gi", "ei"))
    match_tol = MATCH_FACTOR * g_max
    if abs(defects[final.index]) > match_tol:
        raise PerturbationError(
            f"states {initial.label()} and {final.label()} are not degenerate "
            f"(defect {abs(defects[final.index]):.3e} exceeds {match_tol:.3e})"
        )
    photons = sum(
        occ for sub, occ in zip(space.subsystems, space.occupation_arrays()) if sub.kind == "cavity"
    )
    allowed = photons <= order // 2
    allowed[[initial.index, final.index]] = False
    below = np.abs(defects) < FLOOR_FACTOR * float(np.abs(elements).min())
    # masks[j]: the allowed states at most order - 1 - j steps from the final one
    near = np.arange(space.total_dim) == final.index
    masks = []
    for _ in range(order - 1):
        near[rows[near[cols]]] = True
        masks.append(allowed & near)
    masks.reverse()
    keep = [m & ~below for m in masks]

    def hop(vector: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """V (or with no weights its 0/1 pattern) times vector, over the live nonzeros."""
        live = (vector != 0)[cols]
        out = np.zeros_like(vector)
        terms = vector[cols[live]]
        np.add.at(out, rows[live], terms if weights is None else weights[live] * terms)
        return out

    amplitude = np.zeros(space.total_dim)
    amplitude[initial.index] = 1.0
    count = np.zeros(space.total_dim, dtype=object)
    count[initial.index] = 1
    hits = np.zeros_like(count)
    # a defect product past the largest float sends its prefixes to inf or 0
    with np.errstate(over="ignore"):
        for mask, kept in zip(masks, keep):
            amplitude = np.divide(
                hop(amplitude, elements), defects, out=np.zeros_like(amplitude), where=kept
            )
            reached, floored = hop(count), mask & below
            hits[floored] += reached[floored]
            count = np.where(kept, reached, 0)
        lam = float(hop(amplitude, elements)[final.index])
    offenders = sorted(np.flatnonzero(hits), key=lambda k: (abs(defects[k]), k))

    def extend(chain: list[int]) -> Iterator[TransitionPath]:
        if len(chain) == order:
            if hi[final.index, chain[-1]]:
                full = chain + [final.index]
                yield TransitionPath(
                    tuple(BareState.at(space, k, energies[k]) for k in full),
                    tuple(hi[b, a] for a, b in zip(full, full[1:])),
                    tuple(float(defects[k]) for k in chain[1:]),
                )
            return
        for other in np.flatnonzero((hi[:, chain[-1]] != 0) & keep[len(chain) - 1]):
            yield from extend(chain + [int(other)])

    def rejections() -> Iterator[tuple[BareState, float]]:
        for k in offenders:
            for _ in range(hits[k]):
                yield BareState.at(space, k, energies[k]), float(defects[k])

    return PathSum(
        lam,
        Listing(int(hop(count)[final.index]), lambda: extend([initial.index])),
        Listing(int(sum(hits)), rejections),
    )


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
        The sum and the exact path count of ``enumerate_paths``.
    """
    found = enumerate_paths(dev, initial, final, order)
    if strict and found.rejected.count:
        offender, defect = next(iter(found.rejected))
        raise PerturbationError(
            f"{found.rejected.count} path(s) hit the degeneracy floor; "
            f"nearest offender {offender.label()} with defect "
            f"{defect:.3e} (perturbation theory invalid here)"
        )
    return EffectiveCoupling(initial, final, order, found.lambda_eff, found.paths.count)


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

    if which != "chi3_two_cavity":
        # a chain through the spectators on one cavity: every middle one
        # goes g -> i -> e, and the factorial counts their orderings
        n = 3 if which == "chi3_one_cavity" else 4
        _require(len(dev.cavities) == 1 and len(dev.atoms) == n, f"needs 1 cavity and {n} atoms")
        control, *spectators = dev.atoms
        _require(all(a.levels == 3 for a in spectators), "spectators must be three-level")
        _identical_spectators(dev, spectators)
        edges = [dev.edges_of_atom(a.label)[0] for a in dev.atoms]
        w_e1, w_c = ang_f(control.omega_e), ang_f(dev.cavities[0].omega_c)
        numerator = math.factorial(n - 1) * ang_g(edges[0].g_ge)
        denom = w_e1 - w_c
        excited = 0.0  # e energy of the middle spectators already passed
        for atom, edge in zip(spectators[:-1], edges[1:-1]):
            numerator = numerator * ang_g(edge.g_gi) * ang_g(edge.g_ei)
            w_e = ang_f(atom.omega_e)
            denom = denom * (w_e1 - ang_f(atom.omega_i) - excited) * (w_e1 - w_e - excited - w_c)
            excited += w_e
        return numerator * ang_g(edges[-1].g_ge) / denom

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
