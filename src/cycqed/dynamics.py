"""Dissipative master-equation dynamics and trajectory observables.

The generator is dρ/dt = −i[H,ρ] + Σ κ_s L[a_s] + Σ_q Σ_jk γ_jk L[|j⟩⟨k|]
with L[O]ρ = OρO† − {O†O,ρ}/2. Every collapse operator here has at most
one nonzero entry per row and per column, so O†O is diagonal and the whole
dissipator is one sparse superoperator on vec(ρ), built once per run with
O(d²) nonzeros; each evaluation is one sparse matrix-vector product.

The Hamiltonian is a real symmetric float64 matrix; only the density
matrix, the propagators and the dissipator are complex.

``split`` is the integration engine: Strang splitting between the exact
Hamiltonian flow (one real spectral decomposition up front, then two
matrix products per step) and a second-order Runge-Kutta kick of the prebuilt
dissipator (two sparse products per step). Strang splitting is itself
second order, and the kick's own error is O((γh)³) with γh ≈ 1e-4, so a
higher-order kick buys nothing. Exact for dissipation-free evolution at
any step size; the fixed step is validated by halving (``validate=True``).
``auto`` resolves to ``split``. Tests check the engine against ``expm`` of
the dense Liouvillian, which is exact.

When one class of two or three identical atoms leaves H, the dissipator and
the initial state unchanged under permutation, ρ(t) stays block diagonal in
the isotypic sectors of S_2 or S_3, ρ = ⊕_λ ρ_λ ⊗ 1_{d_λ}, and ``split``
evolves only the blocks ρ_λ: one zgemm pair per block and two sparse
products with the reduced dissipator per step. Every sample is lifted back
to the full space. The ``symmetry`` module builds the blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .device import DeviceSpec, build_bare_hamiltonian, build_interaction_rwa, build_space
from .hilbert import BareState, CompositeSpace
from .symmetry import build_sectors

TRACE_TOL = 1e-6
HERMITICITY_RTOL = 1e-9
POSITIVITY_FLOOR = -1e-8
TRUNCATION_WARN = 1e-4
PROBABILITY_SLACK = 1e-8
MAX_POSITIVITY_CHECKPOINTS = 10
# fixed-step defaults for the split engine (ns, or 1/omega0 units),
# chosen by halving studies on the benchmark devices; see the
# step-halving validation option
DEFAULT_SPLIT_STEP = 1.0
DEFAULT_SPLIT_STEP_DIMENSIONLESS = 0.5


@dataclass(frozen=True)
class DensityMatrix:
    """State of the open system on a composite space.

    Hermiticity within 1e-9 relative and unit trace within 1e-6 are
    enforced at construction.
    """

    space: CompositeSpace
    entries: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        if self.entries.shape != (d, d):
            raise ValueError(
                f"density matrix shape {self.entries.shape} does not match dimension {d}"
            )
        scale = max(float(np.abs(self.entries).max()), 1e-300)
        residual = float(np.abs(self.entries - self.entries.conj().T).max())
        if residual > HERMITICITY_RTOL * scale:
            raise ValueError(
                f"density matrix is not Hermitian (relative residual {residual / scale:.3e})"
            )
        drift = abs(self.trace() - 1.0)
        if drift > TRACE_TOL:
            raise ValueError(f"density matrix trace deviates from 1 by {drift:.3e}")

    @classmethod
    def pure(cls, space: CompositeSpace, index: int) -> "DensityMatrix":
        if not 0 <= index < space.total_dim:
            raise ValueError(f"basis index {index} out of range")
        rho = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        rho[index, index] = 1.0
        return cls(space, rho)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


@dataclass(frozen=True)
class Observable:
    """Named quantity sampled along a trajectory.

    Exactly one of ``weights`` (diagonal operator), ``element`` (magnitude
    of a single matrix element, for coherences), or ``matrix`` (dense
    Hermitian operator) is set. ``bounded`` marks probability-like
    observables whose values must stay in [0, 1].
    """

    name: str
    weights: np.ndarray | None = None
    element: tuple[int, int] | None = None
    matrix: np.ndarray | None = None
    bounded: bool = False

    def __post_init__(self):
        provided = sum(x is not None for x in (self.weights, self.element, self.matrix))
        if provided != 1:
            raise ValueError(f"observable {self.name!r} needs exactly one payload")

    def evaluate(self, rho: np.ndarray) -> float:
        if self.weights is not None:
            return float(np.real(self.weights @ np.diagonal(rho)))
        if self.element is not None:
            return float(abs(rho[self.element]))
        return float(np.einsum("ij,ji->", self.matrix, rho).real)


@dataclass(frozen=True)
class ObservableSet:
    """Ordered collection of uniquely named observables."""

    observables: tuple[Observable, ...]

    def __post_init__(self):
        names = [o.name for o in self.observables]
        if len(set(names)) != len(names):
            raise ValueError("observable names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.observables)

    def evaluate(self, rho: np.ndarray) -> np.ndarray:
        return np.array([o.evaluate(rho) for o in self.observables])


def standard_observables(
    dev: DeviceSpec,
    space: CompositeSpace,
    initial: BareState | None = None,
    final: BareState | None = None,
) -> ObservableSet:
    """Per-atom populations, photon numbers, and transfer diagnostics.

    Always includes p_e_<atom> for every atom, p_i_<atom> for qutrits,
    and n_<cavity> for every cavity. When ``final`` is given, adds the
    joint excitation correlators over the atoms excited in the final
    state (pairwise and upward, matching the transfer process order),
    and when ``initial`` is also given, the two bare-state populations
    p_initial / p_final plus the transfer coherence |⟨initial|ρ|final⟩|.
    """
    occ = space.occupation_arrays()
    obs: list[Observable] = []
    for atom in dev.atoms:
        levels = occ[space.position(atom.label)]
        obs.append(
            Observable(f"p_e_{atom.label}", weights=(levels == 1).astype(float), bounded=True)
        )
        if atom.levels == 3:
            obs.append(
                Observable(
                    f"p_i_{atom.label}", weights=(levels == 2).astype(float), bounded=True
                )
            )
    for cav in dev.cavities:
        obs.append(
            Observable(f"n_{cav.label}", weights=occ[space.position(cav.label)].astype(float))
        )
    if final is not None:
        excited = [
            atom.label
            for atom, level in zip(dev.atoms, final.levels)
            if level == "e" and (initial is None or initial.levels[dev.atoms.index(atom)] != "e")
        ]
        for upto in range(2, len(excited) + 1):
            group = excited[:upto]
            weights = np.ones(space.total_dim)
            for label in group:
                weights = weights * (occ[space.position(label)] == 1)
            obs.append(Observable("corr_" + "_".join(group), weights=weights, bounded=True))
    if initial is not None:
        w = np.zeros(space.total_dim)
        w[initial.index] = 1.0
        obs.append(Observable("p_initial", weights=w, bounded=True))
    if final is not None:
        w = np.zeros(space.total_dim)
        w[final.index] = 1.0
        obs.append(Observable("p_final", weights=w, bounded=True))
    if initial is not None and final is not None:
        obs.append(Observable("coherence", element=(initial.index, final.index), bounded=True))
    return ObservableSet(tuple(obs))


# -- collapse channels --------------------------------------------------------

@dataclass(frozen=True)
class CollapseChannel:
    """Collapse operator O = Σ_k amp[k] |dest[k]⟩⟨source[k]| in gather form."""

    name: str
    source: np.ndarray
    dest: np.ndarray
    amp: np.ndarray

    def as_matrix(self, dim: int) -> np.ndarray:
        op = np.zeros((dim, dim), dtype=complex)
        op[self.dest, self.source] = self.amp
        return op

    def rate_diagonal(self, dim: int) -> np.ndarray:
        w = np.zeros(dim)
        w[self.source] = np.abs(self.amp) ** 2
        return w


def build_collapse_channels(
    dev: DeviceSpec, space: CompositeSpace
) -> tuple[CollapseChannel, ...]:
    """Gather-form collapse operators for every nonzero decay rate."""
    strides = space.strides
    occ = space.occupation_arrays()
    channels: list[CollapseChannel] = []
    for cav in dev.cavities:
        if cav.kappa == 0.0:
            continue
        pos = space.position(cav.label)
        src = np.flatnonzero(occ[pos] >= 1)
        dest = src - strides[pos]
        amp = math.sqrt(dev.rate_to_angular(cav.kappa)) * np.sqrt(occ[pos][src])
        channels.append(CollapseChannel(f"kappa_{cav.label}", src, dest, amp.astype(complex)))
    drops = (("gamma_ge", 1, 0), ("gamma_gi", 2, 0), ("gamma_ei", 2, 1))
    for atom in dev.atoms:
        pos = space.position(atom.label)
        for rate_name, upper, lower in drops:
            rate = getattr(atom, rate_name)
            if rate == 0.0:
                continue
            src = np.flatnonzero(occ[pos] == upper)
            dest = src - (upper - lower) * strides[pos]
            amp = np.full(len(src), math.sqrt(dev.rate_to_angular(rate)), dtype=complex)
            channels.append(CollapseChannel(f"{rate_name}_{atom.label}", src, dest, amp))
    return tuple(channels)


def _dissipator(channels, dim: int) -> sparse.csr_matrix | None:
    """Σ_c L[O_c] as one CSR superoperator on row-major vec(ρ); None without channels.

    Channel c maps entry (source_a, source_b) to (dest_a, dest_b) with weight
    amp_a amp_b*; the anticommutator puts −(R_j + R_k)/2 on the diagonal,
    where R = Σ_c O_c†O_c is diagonal.
    """
    if not channels:
        return None
    rates = sum(ch.rate_diagonal(dim) for ch in channels)
    diagonal = np.arange(dim * dim)
    rows = [diagonal] + [(ch.dest[:, None] * dim + ch.dest).ravel() for ch in channels]
    cols = [diagonal] + [(ch.source[:, None] * dim + ch.source).ravel() for ch in channels]
    data = [-0.5 * (rates[:, None] + rates).ravel()]
    data += [np.outer(ch.amp, ch.amp.conj()).ravel() for ch in channels]
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim * dim, dim * dim),
    )


# -- trajectory container -----------------------------------------------------

@dataclass
class TrajectoryResult:
    """Sampled observables plus integration diagnostics.

    ``values`` maps observable names to arrays on the ``times`` grid.
    ``peak_transfer`` is the maximum of the highest-order excitation
    correlator (None when no correlator was sampled), ``max_leakage`` the
    largest third-level population, ``max_photon`` the largest mean photon
    number. ``min_eigenvalue`` comes from the positivity checkpoints,
    ``validation_residual`` from the optional step-halving rerun.
    ``sectors`` lists the sizes of the permutation-symmetry blocks the
    split engine evolved, and is () when it evolved the full ρ.
    """

    times: np.ndarray
    values: dict[str, np.ndarray]
    method: str
    steps: int
    purity: np.ndarray
    trace_drift: float
    hermiticity_residual: float
    min_eigenvalue: float
    checkpoint_times: tuple[float, ...]
    top_fock: dict[str, float]
    warnings: tuple[str, ...] = ()
    validation_residual: float | None = None
    final_state: DensityMatrix | None = None
    peak_transfer: float | None = None
    max_leakage: float | None = None
    max_photon: float | None = None
    states: tuple[DensityMatrix, ...] | None = None
    sectors: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("time grid must be strictly increasing")
        for name, col in self.values.items():
            if len(col) != len(self.times):
                raise ValueError(f"column {name!r} length mismatch")

    def column(self, name: str) -> np.ndarray:
        if name not in self.values:
            raise KeyError(
                f"no observable {name!r}; available: {', '.join(self.values)}"
            )
        return self.values[name]

    def metrics(self) -> dict[str, float]:
        out = {
            "trace_drift": self.trace_drift,
            "min_eigenvalue": self.min_eigenvalue,
        }
        for key in ("peak_transfer", "max_leakage", "max_photon", "validation_residual"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


# -- engines ------------------------------------------------------------------

# Heun's kick scales the fastest decay mode by 1 − x + x²/2 with x = h·R_max,
# which reaches 1 at x = 2 and grows past it.
KICK_STABILITY_BOUND = 2.0


def _substeps(interval: float, h_target: float) -> int:
    """Number of equal split steps, none longer than h_target, that cover an interval."""
    return max(1, math.ceil(interval / h_target - 1e-12))


def _propagator(energies: np.ndarray, basis: np.ndarray, t: float):
    """e^{−iHt} from H's real eigenbasis as two real products, with its adjoint."""
    u = np.empty(basis.shape, dtype=complex)
    u.real = (basis * np.cos(energies * t)) @ basis.T
    u.imag = (basis * -np.sin(energies * t)) @ basis.T
    return u, u.conj().T


class _SplitStepper:
    """Strang splitting: exact eigenbasis unitary around a second-order dissipator kick.

    The state is the stacked row-major vec of one or more diagonal blocks;
    the full path has a single block of size d. A step costs one zgemm pair
    per block and two products with the prebuilt sparse superoperator on the
    stacked vec; without one, a sample interval is one exact propagator per
    block.
    """

    def __init__(self, h_flat: np.ndarray, sizes, dissipator: sparse.csr_matrix | None):
        ends = itertools.accumulate(m * m for m in sizes)
        self.slices = [(slice(end - m * m, end), m) for end, m in zip(ends, sizes)]
        self.spectra = [np.linalg.eigh(h) for h in self.blocks(h_flat)]
        self.dissipator = dissipator
        self._cache: dict[float, list] = {}
        self.steps = 0

    def blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of the square blocks stacked in a row-major vec."""
        return [flat[part].reshape(m, m) for part, m in self.slices]

    def _propagators(self, t: float) -> list:
        """e^{−iH_λ t} and its adjoint for every block."""
        hit = self._cache.get(t)
        if hit is None:
            hit = [_propagator(energies, basis, t) for energies, basis in self.spectra]
            self._cache[t] = hit
        return hit

    def _rotate(self, flat: np.ndarray, t: float) -> np.ndarray:
        out = np.empty_like(flat)
        for (part, m), (u, u_adj) in zip(self.slices, self._propagators(t)):
            np.matmul(u @ flat[part].reshape(m, m), u_adj, out=out[part].reshape(m, m))
        return out

    def _kick(self, flat: np.ndarray, h: float) -> np.ndarray:
        # Heun's step; for the linear generator D it is 1 + hD + (hD)²/2,
        # evaluated as flat + hD(flat + (h/2)D flat)
        half = self.dissipator @ flat
        half *= 0.5 * h
        half += flat
        out = self.dissipator @ half
        out *= h
        out += flat
        return out

    def advance(self, flat: np.ndarray, interval: float, h_target: float) -> np.ndarray:
        if interval <= 0.0:
            return flat
        n = _substeps(interval, h_target)
        h = interval / n
        if self.dissipator is None:
            self.steps += 1
            return self._rotate(flat, interval)
        flat = self._rotate(flat, 0.5 * h)
        for k in range(n):
            flat = self._rotate(self._kick(flat, h), h if k < n - 1 else 0.5 * h)
            self.steps += 1
        return flat


# Integration methods evolve accepts; auto is split.
METHODS = ("auto", "split")


def _min_eigenvalue(blocks) -> float:
    return min(float(np.linalg.eigvalsh(b)[0]) for b in blocks)


class _Reducer:
    """Per-sample reductions of ρ: observable columns, purity, trace drift and top-Fock weight."""

    def __init__(self, dev: DeviceSpec, space: CompositeSpace, obs: ObservableSet, count: int):
        self.obs = obs
        self.columns = {name: np.empty(count) for name in obs.names}
        self.purity = np.empty(count)
        self.trace_worst = 0.0
        occ = space.occupation_arrays()
        self.top_masks = {
            cav.label: occ[space.position(cav.label)] == cav.n_max for cav in dev.cavities
        }
        self.top_fock = {label: 0.0 for label in self.top_masks}

    def __call__(self, k: int, rho: np.ndarray) -> None:
        for name, v in zip(self.obs.names, self.obs.evaluate(rho)):
            self.columns[name][k] = v
        self.purity[k] = float(np.linalg.norm(rho, "fro") ** 2)
        self.trace_worst = max(self.trace_worst, abs(float(np.trace(rho).real) - 1.0))
        diag = np.real(np.diagonal(rho))
        for label, mask in self.top_masks.items():
            self.top_fock[label] = max(self.top_fock[label], float(diag[mask].sum()))


def _integrate(dev, space, channels, h_matrix, rho0, times, step, on_sample, checkpoints=()):
    """Core loop shared by the main run and the validation rerun.

    Hands every sampled density matrix (a d × d array, Hermitian; to rounding
    when lifted from symmetry blocks) to ``on_sample(k, rho)`` as soon as it
    is taken, and keeps none. Returns the step count, the worst
    pre-symmetrization Hermiticity residual, the smallest eigenvalue over
    the ``checkpoints`` sample indices (inf without any) and the sizes of
    the symmetry blocks evolved (() on the full path).
    """
    dim = space.total_dim
    dissipator = _dissipator(channels, dim)
    herm_worst = 0.0
    min_eig = math.inf
    sectors = build_sectors(dev, space)
    if sectors is not None and not sectors.invariant(rho0):
        sectors = None
    if sectors is None:
        sizes, flat, h_flat = (dim,), rho0.ravel().copy(), h_matrix.ravel()
    else:
        reduce, lift = sectors.vec_maps
        sizes, flat, h_flat = sectors.sizes, reduce @ rho0.ravel(), reduce @ h_matrix.ravel()
        if dissipator is not None:
            dissipator = sectors.superoperator(dissipator)
    stepper = _SplitStepper(h_flat, sizes, dissipator)
    for k in range(len(times)):
        if k:
            flat = stepper.advance(flat, times[k] - times[k - 1], step)
            for block in stepper.blocks(flat):
                herm_worst = max(herm_worst, float(np.abs(block - block.conj().T).max()))
                block[...] = (block + block.conj().T) / 2
        if sectors is None:
            rho = flat.reshape(dim, dim)
        else:
            rho = (lift @ flat).reshape(dim, dim)
        on_sample(k, rho)
        if k in checkpoints:
            min_eig = min(min_eig, _min_eigenvalue(stepper.blocks(flat)))
    return stepper.steps, herm_worst, min_eig, () if sectors is None else sizes


def evolve(
    dev: DeviceSpec,
    initial: BareState | DensityMatrix,
    t_final: float,
    samples: int = 201,
    obs: ObservableSet | None = None,
    method: str = "auto",
    step: float | None = None,
    validate: bool = False,
    keep_states: bool = False,
) -> TrajectoryResult:
    """Integrate the master equation and sample observables uniformly.

    Parameters
    ----------
    dev : DeviceSpec
    initial : BareState or DensityMatrix
    t_final : float
        End time in ns (or 1/omega0 units), nonnegative and finite; 0 yields
        a single sample.
    samples : int
        Number of uniformly spaced sample points including both ends.
    obs : ObservableSet, optional
        Defaults to the per-atom / per-cavity standard set.
    method : {'auto', 'split'}
        Both name the split-step engine. It evolves only the
        permutation-symmetry blocks when the device has one class of two
        or three identical atoms and the initial state is invariant under
        permuting them (a bare state with equal levels in the class, or a
        density matrix within 1e-14 of its permuted copy); ``sectors`` on
        the result reports the block sizes.
    step : float, optional
        Target fixed step of the split engine; must be positive and finite.
        The step length h it yields must also keep h·R_max below 2, where
        R_max is the largest diagonal entry of Σ_c O_c†O_c: past that,
        the dissipator kick diverges, and the run is refused up front.
    validate : bool
        Rerun at half step and record the worst observable deviation as
        ``validation_residual``.
    keep_states : bool
        Retain every sampled DensityMatrix on the result. Otherwise each
        sample is reduced to its observables as it is taken, and only the
        final state is kept.

    Returns
    -------
    TrajectoryResult

    Warnings recorded on the result (truncation breach, positivity or
    trace violations) indicate the run needs a bigger truncation or a
    finer step; they never silently alter the requested evolution.
    """
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be nonnegative and finite, got {t_final!r}")
    if t_final > 0 and samples < 2:
        raise ValueError("need at least two samples for a finite time span")
    if step is None:
        step = DEFAULT_SPLIT_STEP_DIMENSIONLESS if dev.unit_omega0 else DEFAULT_SPLIT_STEP
    elif not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if method not in METHODS:
        raise ValueError(f"unknown integration method {method!r}")
    if t_final == 0.0:
        times = np.zeros(1)
    else:
        dt = t_final / (samples - 1)
        times = np.arange(samples) * dt
    space = build_space(dev)
    channels = build_collapse_channels(dev, space)
    if channels and len(times) > 1:
        rate = float(sum(ch.rate_diagonal(space.total_dim) for ch in channels).max())
        h = max(iv / _substeps(iv, step) for iv in np.diff(times))
        if h * rate >= KICK_STABILITY_BOUND:
            raise ValueError(
                f"split step {h:.6g} times the largest decay rate {rate:.6g} is "
                f"{h * rate:.3g}, at or past the dissipator kick's stability bound "
                f"{KICK_STABILITY_BOUND:g}; use a step below {KICK_STABILITY_BOUND / rate:.6g}"
            )
    h_matrix = build_bare_hamiltonian(dev, space) + build_interaction_rwa(dev, space)

    if isinstance(initial, DensityMatrix):
        if initial.space.total_dim != space.total_dim:
            raise ValueError("initial state lives on a different space")
        rho0 = initial.entries.astype(complex).copy()
    else:
        rho0 = DensityMatrix.pure(space, initial.index).entries

    if obs is None:
        obs = standard_observables(dev, space)

    # positivity at evenly spaced checkpoints
    n_check = min(len(times), MAX_POSITIVITY_CHECKPOINTS)
    check_idx = sorted(set(np.linspace(0, len(times) - 1, n_check).astype(int)))
    reduced = _Reducer(dev, space, obs, len(times))
    kept: list[np.ndarray] = []

    def on_sample(k, rho):
        reduced(k, rho)
        if keep_states or k == len(times) - 1:
            kept.append(rho)

    steps, herm_worst, min_eig, sectors = _integrate(
        dev, space, channels, h_matrix, rho0, times, step, on_sample, check_idx
    )
    columns, top_fock, trace_worst = reduced.columns, reduced.top_fock, reduced.trace_worst

    warnings: list[str] = []
    for label, pop in top_fock.items():
        if pop > TRUNCATION_WARN:
            warnings.append(
                f"truncation breach: top Fock layer of cavity {label!r} reached "
                f"{pop:.2e}; increase n_max"
            )
    if trace_worst > TRACE_TOL:
        warnings.append(f"trace drifted by {trace_worst:.3e}")

    if min_eig < POSITIVITY_FLOOR:
        warnings.append(f"positivity violated: min eigenvalue {min_eig:.3e}")

    for o in obs.observables:
        if o.bounded:
            col = columns[o.name]
            if col.min() < -PROBABILITY_SLACK or col.max() > 1.0 + PROBABILITY_SLACK:
                warnings.append(
                    f"observable {o.name} left [0,1] by "
                    f"{max(-col.min(), col.max() - 1.0):.3e}"
                )

    validation_residual = None
    if validate and t_final > 0.0:
        again = _Reducer(dev, space, obs, len(times))
        _integrate(dev, space, channels, h_matrix, rho0, times, step / 2, again)
        validation_residual = max(
            (float(np.abs(again.columns[n] - columns[n]).max()) for n in obs.names),
            default=0.0,
        )

    corr_names = [n for n in obs.names if n.startswith("corr_")]
    leak_names = [n for n in obs.names if n.startswith("p_i_")]
    photon_names = [n for n in obs.names if n.startswith("n_")]
    longest_corr = max(corr_names, key=lambda n: n.count("_"), default=None)
    try:
        final_state = DensityMatrix(space, kept[-1])
    except ValueError as exc:
        warnings.append(f"final state invalid: {exc}")
        final_state = None

    return TrajectoryResult(
        times=times,
        values=columns,
        method="split",
        steps=steps,
        purity=reduced.purity,
        trace_drift=trace_worst,
        hermiticity_residual=herm_worst,
        min_eigenvalue=min_eig,
        checkpoint_times=tuple(float(times[k]) for k in check_idx),
        top_fock=top_fock,
        warnings=tuple(warnings),
        validation_residual=validation_residual,
        final_state=final_state,
        peak_transfer=float(columns[longest_corr].max()) if longest_corr else None,
        max_leakage=(
            max(float(columns[n].max()) for n in leak_names) if leak_names else None
        ),
        max_photon=(
            max(float(columns[n].max()) for n in photon_names) if photon_names else None
        ),
        states=(
            tuple(DensityMatrix(space, r) for r in kept) if keep_states else None
        ),
        sectors=sectors,
    )


# -- derived quantities -------------------------------------------------------

MIN_OSCILLATION_DEPTH = 1e-3


def extract_period(traj: TrajectoryResult, observable: str) -> float:
    """Oscillation period as twice the refined half-period minimum time.

    The dominant discrete-spectrum frequency of the detrended signal
    (sharpened by parabolic interpolation of the peak bin) locates a
    search window around the expected half period. The deepest sample in
    that window, refined by a quadratic fit through its neighbors, gives
    the period as twice the minimum time. Anchoring the search to the
    spectral estimate keeps fast small-amplitude wiggles riding on the
    exchange envelope from being mistaken for the main minimum. Flat or
    non-oscillatory signals raise ValueError.
    """
    s = traj.column(observable)
    t = traj.times
    if len(t) < 5:
        raise ValueError("trajectory too short for period extraction")
    amplitude = float(s.max() - s.min())
    if amplitude < MIN_OSCILLATION_DEPTH:
        raise ValueError(f"no oscillation detected in {observable!r} (flat signal)")
    dt = t[1] - t[0]
    spectrum = np.abs(np.fft.rfft(s - s.mean()))
    k_peak = 1 + int(np.argmax(spectrum[1:]))
    k_frac = float(k_peak)
    if 1 <= k_peak < len(spectrum) - 1:
        left, center, right = spectrum[k_peak - 1 : k_peak + 2]
        denom = left - 2 * center + right
        if denom < 0:
            k_frac += 0.5 * (left - right) / denom
    period_est = len(s) * dt / k_frac
    lo = max(int(np.searchsorted(t, 0.3 * period_est)), 1)
    hi = min(int(np.searchsorted(t, 0.7 * period_est, side="right")), len(s) - 1)
    if hi <= lo:
        raise ValueError(
            f"no oscillation minimum reachable in {observable!r}; trajectory may "
            "span less than half a period"
        )
    k_min = lo + int(np.argmin(s[lo:hi]))
    interior = s[k_min] <= s[k_min - 1] and s[k_min] <= s[k_min + 1]
    if k_min in (lo, hi - 1) and not interior:
        raise ValueError(
            f"no interior minimum found in {observable!r}; the signal is not "
            "oscillatory over the sampled span"
        )
    if s[k_min] > s[0] - 0.25 * amplitude:
        raise ValueError(
            f"minimum of {observable!r} is too shallow for a reliable period"
        )
    curvature = s[k_min + 1] - 2 * s[k_min] + s[k_min - 1]
    shift = 0.5 * (s[k_min - 1] - s[k_min + 1]) / curvature if curvature > 0 else 0.0
    return float(2.0 * (t[k_min] + shift * dt))


def entanglement_checkpoint(
    traj: TrajectoryResult, t: float
) -> tuple[tuple[float, float], float]:
    """Populations of the two exchange states and their coherence near t.

    Reads the p_initial / p_final / coherence columns at the sample
    closest to t; the trajectory must have been run with observables
    that include them.
    """
    for needed in ("p_initial", "p_final", "coherence"):
        if needed not in traj.values:
            raise ValueError(
                f"trajectory lacks {needed!r}; rerun with transfer observables"
            )
    if not traj.times[0] <= t <= traj.times[-1]:
        raise ValueError(f"time {t} outside the sampled range")
    k = int(np.argmin(np.abs(traj.times - t)))
    return (
        (float(traj.values["p_initial"][k]), float(traj.values["p_final"][k])),
        float(traj.values["coherence"][k]),
    )
