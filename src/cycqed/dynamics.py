"""Dissipative master-equation dynamics and trajectory observables.

The generator is dρ/dt = −i[H,ρ] + Σ κ_s L[a_s] + Σ_q Σ_jk γ_jk L[|j⟩⟨k|]
with L[O]ρ = OρO† − {O†O,ρ}/2. Every collapse operator here has at most
one nonzero entry per row and per column, so O†O is diagonal and the whole
dissipator is one sparse superoperator on vec(ρ), built once per run with
O(d²) nonzeros (12.8 MB at d = 432) written straight into CSR from the
channels' index arrays; each evaluation is one sparse matrix-vector product.

The Hamiltonian is a real symmetric float64 matrix; only the density
matrix, the propagators and the dissipator are complex.

``split`` is the integration engine: Strang splitting between the exact
Hamiltonian flow (one real spectral decomposition up front, then two matrix
products per step) and a second-order Runge-Kutta kick of the prebuilt
dissipator (two sparse products per step). Every sample interval takes the
same steps, so a run builds its one or two propagators per block up front.
Strang splitting is itself second order, and the kick's own error is
O((γh)³) with γh ≈ 1e-4, so a higher-order kick buys nothing. Exact for
dissipation-free evolution at any step size; the fixed step is validated by
halving (``validate=True``). ``auto`` resolves to ``split``. Tests check the
engine against ``expm`` of the dense Liouvillian, which is exact.

When one class of two or three identical atoms leaves H, the dissipator and
the initial state unchanged under permutation, ρ(t) stays block diagonal in
the isotypic sectors of S_2 or S_3, ρ = ⊕_λ ρ_λ ⊗ 1_{d_λ}, and ``split``
evolves only the blocks ρ_λ: one zgemm pair per block and two sparse
products with the reduced dissipator per step, which is assembled from the
channels and the vec maps without forming the full one (5.0 MB against
15.2 MB at d = 486). Every sample is lifted back to the full space. The
``symmetry`` module builds the blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .device import DeviceSpec, Model
from .hilbert import BareState, CompositeSpace

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
# Most split steps one run may take: minutes of work on the smallest devices,
# hours on the shipped ones.
MAX_SPLIT_STEPS = 10**7


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
        # strips of about 8192 entries keep the check's temporaries under 0.5 MB
        scale, residual, step = 1e-300, 0.0, max(1, 8192 // d)
        for start in range(0, d, step):
            rows = self.entries[start:start + step]
            scale = max(scale, float(np.abs(rows).max()))
            mirror = self.entries[:, start:start + step].conj().T
            residual = max(residual, float(np.abs(rows - mirror).max()))
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
    for name, state in (("p_initial", initial), ("p_final", final)):
        if state is not None:
            w = np.zeros(space.total_dim)
            w[state.index] = 1.0
            obs.append(Observable(name, weights=w, bounded=True))
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
    where R = Σ_c O_c†O_c is diagonal. A row holds its diagonal entry (zero
    where nothing decays) and one entry per channel whose destinations hold
    both its indices, so the CSR arrays are counted and then written in
    place: sorted, duplicate-free, with 32-bit indices when they fit.
    """
    if not channels:
        return None
    size = dim * dim
    rates = sum(ch.rate_diagonal(dim) for ch in channels)
    # channel c's entry sits (source − dest)·(d + 1) right of the diagonal:
    # written in order of that shift, every row comes out sorted
    channels = sorted(channels, key=lambda ch: (ch.source - ch.dest).max(initial=0))
    rows = [np.add.outer(ch.dest * dim, ch.dest).ravel() for ch in channels]
    counts = np.bincount(np.concatenate(rows), minlength=size)
    counts += 1
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(size + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz, dtype=complex)
    # the next free slot of each row
    free = indptr[:-1].astype(np.intp)
    indices[free] = np.arange(size)
    data[free] = -0.5 * (rates[:, None] + rates).ravel()
    free += 1
    for ch, at_rows in zip(channels, rows):
        at = free[at_rows]
        indices[at] = np.add.outer(ch.source * dim, ch.source).ravel()
        data[at] = np.multiply.outer(ch.amp, ch.amp.conj()).ravel()
        free[at_rows] = at + 1
    out = sparse.csr_matrix((data, indices, indptr), shape=(size, size))
    out.sum_duplicates()
    return out


def _block_dissipator(channels, dim: int, sectors) -> sparse.csr_matrix | None:
    """The block form reduce · D · lift of ``_dissipator``, built without D; None without channels.

    With (reduce, lift) = ``sectors.vec_maps``, the anticommutator part is
    reduce times ``lift`` with its rows scaled by −(R_j + R_k)/2, and channel
    c adds the columns of ``reduce`` at its destination pairs times the rows
    of ``lift`` at its source pairs, scaled by amp ⊗ amp*. Entries that
    vanish exactly come out of the sparse products as cancellation residue
    near 1e-17 of the largest entry; they are dropped.
    """
    if not channels:
        return None
    reduce, lift = sectors.vec_maps
    rates = sum(ch.rate_diagonal(dim) for ch in channels)
    every = slice(None)
    out = reduce @ _moved_rows(lift, every, every, -0.5 * (rates[:, None] + rates).ravel())
    for ch in channels:
        pairs = [np.add.outer(i * dim, i).ravel() for i in (ch.source, ch.dest)]
        out = out + reduce @ _moved_rows(lift, *pairs, np.multiply.outer(ch.amp, ch.amp.conj()).ravel())
    out.data[np.abs(out.data) < 1e-12 * np.abs(out.data).max()] = 0.0
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _moved_rows(op: sparse.csr_matrix, source, dest, weights) -> sparse.csr_matrix:
    """The matrix whose row dest[k] is weights[k] times row source[k] of ``op``, for ascending ``dest``.

    Its other rows are empty. With ``op`` = lift and a collapse channel's
    pairs and weights, it is the channel's part of the dissipator times lift.
    """
    rows = op[source]
    lengths = np.diff(rows.indptr)
    data = np.repeat(weights, lengths)
    data *= rows.data
    indptr = np.zeros(op.shape[0] + 1, dtype=rows.indptr.dtype)
    indptr[1:][dest] = lengths
    np.cumsum(indptr, out=indptr)
    return sparse.csr_matrix((data, rows.indices, indptr), shape=op.shape)


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
    count = interval / h_target
    if not math.isfinite(count):
        raise ValueError(f"an interval of {interval:.6g} needs {count} steps of {h_target:.6g}")
    return max(1, math.ceil(count - 1e-12))


def _propagator(energies: np.ndarray, basis: np.ndarray, t: float):
    """e^{−iHt} from H's real eigenbasis as two real products, with its adjoint."""
    u = np.empty(basis.shape, dtype=complex)
    u.real = (basis * np.cos(energies * t)) @ basis.T
    u.imag = (basis * -np.sin(energies * t)) @ basis.T
    return u, u.conj().T


class _SplitStepper:
    """Strang splitting: exact eigenbasis unitary around a second-order dissipator kick.

    The state is the stacked row-major vec of one or more diagonal blocks;
    the full path has a single block of size d. Every sample interval dt
    takes the same n steps of length h = dt / n, so the propagators are
    built up front: per block e^{−iHh/2}, and e^{−iHh} when n > 1; without a
    dissipator e^{−iH dt} alone; for n = 0 (one sample) none, and no
    eigendecomposition. A step costs one zgemm pair per block and two
    products with the prebuilt sparse superoperator on the stacked vec.
    """

    def __init__(self, h_flat, sizes, dissipator: sparse.csr_matrix | None, dt: float, n: int):
        ends = itertools.accumulate(m * m for m in sizes)
        self.slices = [(slice(end - m * m, end), m) for end, m in zip(ends, sizes)]
        self.dissipator, self.n, self.h = dissipator, n, dt / max(n, 1)
        lengths = [dt] if dissipator is None else [0.5 * self.h, self.h][: min(n, 2)]
        spectra = [np.linalg.eigh(h) for h in self.blocks(h_flat)] if n else []
        self.rotations = [[_propagator(e, basis, t) for e, basis in spectra] for t in lengths]
        self.steps = 0

    def blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of the square blocks stacked in a row-major vec."""
        return [flat[part].reshape(m, m) for part, m in self.slices]

    def _rotate(self, flat: np.ndarray, rotation) -> np.ndarray:
        out = np.empty_like(flat)
        for (part, m), (u, u_adj) in zip(self.slices, rotation):
            np.matmul(u @ flat[part].reshape(m, m), u_adj, out=out[part].reshape(m, m))
        return out

    def _kick(self, flat: np.ndarray) -> np.ndarray:
        # Heun's step; for the linear generator D it is 1 + hD + (hD)²/2,
        # evaluated as flat + hD(flat + (h/2)D flat)
        half = self.dissipator @ flat
        half *= 0.5 * self.h
        half += flat
        out = self.dissipator @ half
        out *= self.h
        out += flat
        return out

    def advance(self, flat: np.ndarray) -> np.ndarray:
        """The state one sample interval later."""
        if self.dissipator is None:
            self.steps += 1
            return self._rotate(flat, self.rotations[0])
        half, full = self.rotations[0], self.rotations[-1]
        flat = self._rotate(flat, half)
        for k in range(self.n):
            flat = self._rotate(self._kick(flat), full if k < self.n - 1 else half)
            self.steps += 1
        return flat


# Integration methods evolve accepts; auto is split.
METHODS = ("auto", "split")


class _Reducer:
    """Per-sample reductions of ρ: observable columns, purity, trace and top-Fock weight.

    Every ``weights`` observable, every cavity's top-Fock mask and the trace
    are rows of one matrix, read with one product by diag(ρ).real per sample
    into ``table``; element and matrix observables evaluate on their own.
    """

    def __init__(self, dev: DeviceSpec, space: CompositeSpace, obs: ObservableSet, count: int):
        occ = space.occupation_arrays()
        diagonal = [o for o in obs.observables if o.weights is not None]
        self.others = [o for o in obs.observables if o.weights is None]
        tops = [occ[space.position(cav.label)] == cav.n_max for cav in dev.cavities]
        rows = [o.weights for o in diagonal] + tops + [np.ones(space.total_dim)]
        self.weights = np.array(rows, dtype=float)
        self.table = np.empty((len(rows), count))
        named = dict(zip((o.name for o in diagonal), self.table))
        self.columns = {name: named.get(name, np.empty(count)) for name in obs.names}
        self.tops = dict(zip((cav.label for cav in dev.cavities), self.table[len(diagonal) : -1]))
        self.purity = np.empty(count)

    def __call__(self, k: int, rho: np.ndarray) -> None:
        self.table[:, k] = self.weights @ rho.diagonal().real
        for o in self.others:
            self.columns[o.name][k] = o.evaluate(rho)
        self.purity[k] = np.vdot(rho, rho).real


def _apply_real(op: sparse.csr_matrix, vec: np.ndarray) -> np.ndarray:
    """``op @ vec`` for a real sparse map and a complex vec, without a complex copy of ``op``.

    The real and imaginary parts go through as the two columns of one real
    product, so every entry is the one the complex product gives.
    """
    return (op @ vec.view(np.float64).reshape(-1, 2)).view(complex).ravel()


def _integrate(model, channels, rho0, times, dt, n, on_sample, checkpoints=()):
    """Core loop shared by the main run and the validation rerun.

    Each sample interval ``dt`` takes ``n`` split steps (0 for one sample).
    Hands every sampled density matrix (a d × d array, Hermitian; to rounding
    when lifted from symmetry blocks) to ``on_sample(k, rho)`` as soon as it
    is taken, and keeps none. Returns the step count, the worst
    pre-symmetrization Hermiticity residual, the smallest eigenvalue over
    the ``checkpoints`` sample indices (inf without any) and the sizes of
    the symmetry blocks evolved (() on the full path).
    """
    dim = model.space.total_dim
    herm_worst = 0.0
    min_eig = math.inf
    sectors, h_flat = model.sectors, model.at().ravel()
    if not sectors.labels or not sectors.invariant(rho0):
        sectors, sizes, flat = None, (dim,), rho0.ravel().copy()
        dissipator = _dissipator(channels, dim)
    else:
        reduce, lift = sectors.vec_maps
        sizes, flat, h_flat = sectors.sizes, _apply_real(reduce, rho0.ravel()), reduce @ h_flat
        dissipator = _block_dissipator(channels, dim, sectors)
    stepper = _SplitStepper(h_flat, sizes, dissipator, dt, n)
    for k in range(len(times)):
        if k:
            flat = stepper.advance(flat)
            for block in stepper.blocks(flat):
                adjoint = block.conj().T
                herm_worst = max(herm_worst, float(np.abs(block - adjoint).max()))
                block += adjoint
                block *= 0.5
        if sectors is None:
            rho = flat.reshape(dim, dim)
        else:
            rho = _apply_real(lift, flat).reshape(dim, dim)
        on_sample(k, rho)
        if k in checkpoints:
            lowest = (float(np.linalg.eigvalsh(b)[0]) for b in stepper.blocks(flat))
            min_eig = min(min_eig, *lowest)
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
        Each sample interval dt takes n = ⌈dt / step⌉ steps of length
        h = dt / n, planned once. An n too large to be finite is refused,
        and so is a run of more than ``MAX_SPLIT_STEPS`` steps in all.
        h must also keep h·R_max below 2, where R_max is the largest
        diagonal entry of Σ_c O_c†O_c: past that, the dissipator kick
        diverges, and the run is refused up front.
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
    dt = t_final / (samples - 1) if t_final else 0.0
    times = np.arange(samples if t_final else 1) * dt
    n = _substeps(dt, step) if t_final else 0
    if n * (samples - 1) > MAX_SPLIT_STEPS:
        raise ValueError(
            f"{samples - 1} sample intervals of {float(n):.3g} steps of {dt / n:.6g} "
            f"exceed the {MAX_SPLIT_STEPS:.0e} split steps of one run; "
            "use a shorter t_final or a longer step"
        )
    model = Model(dev)
    space = model.space
    channels = build_collapse_channels(dev, space)
    if channels and n:
        rate = float(sum(ch.rate_diagonal(space.total_dim) for ch in channels).max())
        h = dt / n
        if h * rate >= KICK_STABILITY_BOUND:
            raise ValueError(
                f"split step {h:.6g} times the largest decay rate {rate:.6g} is "
                f"{h * rate:.3g}, at or past the dissipator kick's stability bound "
                f"{KICK_STABILITY_BOUND:g}; use a step below {KICK_STABILITY_BOUND / rate:.6g}"
            )
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
        model, channels, rho0, times, dt, n, on_sample, check_idx
    )
    columns, trace_worst = reduced.columns, float(np.abs(reduced.table[-1] - 1.0).max())
    top_fock = {label: float(row.max()) for label, row in reduced.tops.items()}

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
        # ⌈dt / (step / 2)⌉ steps, taken as ⌈2 dt / step⌉ so step / 2 cannot underflow
        _integrate(model, channels, rho0, times, dt, _substeps(2 * dt, step), again)
        validation_residual = max(
            (float(np.abs(again.columns[n] - columns[n]).max()) for n in obs.names),
            default=0.0,
        )

    def peak(prefix: str) -> float | None:
        named = (float(columns[n].max()) for n in obs.names if n.startswith(prefix))
        return max(named, default=None)

    corr_names = [n for n in obs.names if n.startswith("corr_")]
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
        max_leakage=peak("p_i_"),
        max_photon=peak("n_"),
        states=tuple(DensityMatrix(space, r) for r in kept) if keep_states else None,
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
