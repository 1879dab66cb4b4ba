"""Open-system dynamics: channels, the split integration engine, diagnostics.

Anchors are analytic where possible (vacuum Rabi period pi/g, exponential
decay laws, conservation of trace / purity / energy / total excitation) and
exact propagation covers everything else: the fixed-step split engine must
reproduce ``expm`` of the dense Liouvillian on devices small enough for it.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from conftest import make_four_atom_device, make_three_atom_device, make_two_cavity_device
from cycqed import device, dynamics
from cycqed.device import (
    AtomSpec,
    CavitySpec,
    CouplingEdge,
    DeviceSpec,
    Model,
    bare_energy_vector,
    bare_state,
    build_interaction_rwa,
    build_space,
)
from cycqed.dynamics import (
    DensityMatrix,
    Observable,
    ObservableSet,
    TrajectoryResult,
    _block_dissipator,
    _dissipator,
    build_collapse_channels,
    entanglement_checkpoint,
    evolve,
    extract_period,
    standard_observables,
)
from cycqed.hilbert import ladder, total_excitation_operator
from cycqed.scenarios import load_scenario


def jc_device(kappa: float = 0.0, gamma: float = 0.0, n_max: int = 3) -> DeviceSpec:
    """Resonant two-level atom in a cavity; vacuum Rabi period is 5 ns."""
    return DeviceSpec(
        cavities=(CavitySpec("c", 6.0, kappa=kappa, n_max=n_max),),
        atoms=(AtomSpec("q", 6.0, gamma_ge=gamma),),
        edges=(CouplingEdge("q", "c", g_ge=100.0),),
    )


def swap_device() -> DeviceSpec:
    """Two resonant two-level atoms exchanging an excitation virtually.

    Detuning 0.4 and coupling 0.05 give an exchange rate g^2/Delta =
    6.25e-3, so the swap period is close to 503 time units.
    """
    return DeviceSpec(
        cavities=(CavitySpec("c", 1.4, n_max=3),),
        atoms=(AtomSpec("a", 1.0), AtomSpec("b", 1.0)),
        edges=(
            CouplingEdge("a", "c", g_ge=0.05),
            CouplingEdge("b", "c", g_ge=0.05),
        ),
        unit_omega0=True,
    )


def decay_cavity_device(kappa: float = 0.04) -> DeviceSpec:
    """Uncoupled leaky cavity; the zero-strength edge only sets topology."""
    return DeviceSpec(
        cavities=(CavitySpec("c", 1.0, kappa=kappa, n_max=3),),
        atoms=(AtomSpec("q", 1.5),),
        edges=(CouplingEdge("q", "c", g_ge=0.0),),
        unit_omega0=True,
    )


def decay_qutrit_device() -> DeviceSpec:
    """Uncoupled lossy qutrit with all three relaxation channels."""
    return DeviceSpec(
        cavities=(CavitySpec("c", 1.0, n_max=2),),
        atoms=(AtomSpec("q", 1.0, 2.2, gamma_ge=0.02, gamma_gi=0.03, gamma_ei=0.05),),
        edges=(CouplingEdge("q", "c", g_ge=0.0),),
        unit_omega0=True,
    )


RATES = st.one_of(st.just(0.0), st.floats(1e-4, 1.0))


@st.composite
def open_devices(draw):
    """1-3 atoms of 2 or 3 levels on 1-2 cavities; every rate zero or positive."""
    cavities = tuple(
        CavitySpec(f"c{k}", 1.5 + 0.4 * k, kappa=draw(RATES), n_max=2)
        for k in range(draw(st.integers(1, 2)))
    )
    atoms, edges = [], []
    for k in range(draw(st.integers(1, 3))):
        label = str(k + 1)
        if draw(st.booleans()):
            gammas = {name: draw(RATES) for name in ("gamma_ge", "gamma_gi", "gamma_ei")}
            atoms.append(AtomSpec(label, 1.0, 1.7, **gammas))
            couplings = {"g_ge": 0.01, "g_gi": 0.01, "g_ei": 0.01}
        else:
            atoms.append(AtomSpec(label, 1.0, gamma_ge=draw(RATES)))
            couplings = {"g_ge": 0.01}
        # atom 1 reaches every cavity, so the coupling graph is connected
        for cav in cavities if k == 0 else cavities[:1]:
            edges.append(CouplingEdge(label, cav.label, **couplings))
    return DeviceSpec(
        cavities=cavities, atoms=tuple(atoms), edges=tuple(edges), unit_omega0=True
    )


def transfer_observables(dev: DeviceSpec, initial_label: tuple, final_label: tuple):
    space = build_space(dev)
    initial = bare_state(dev, space, *initial_label)
    final = bare_state(dev, space, *final_label)
    return space, initial, final, standard_observables(dev, space, initial, final)


def max_column_deviation(r1: TrajectoryResult, r2: TrajectoryResult) -> float:
    assert set(r1.values) == set(r2.values)
    return max(float(np.abs(r1.values[k] - r2.values[k]).max()) for k in r1.values)


class TestDensityMatrix:
    def test_pure_state(self):
        space = build_space(jc_device())
        rho = DensityMatrix.pure(space, 1)
        assert rho.trace() == pytest.approx(1.0)
        assert np.linalg.norm(rho.entries, "fro") ** 2 == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho.entries)[0] == pytest.approx(0.0, abs=1e-15)

    def test_pure_index_out_of_range(self):
        space = build_space(jc_device())
        with pytest.raises(ValueError, match="out of range"):
            DensityMatrix.pure(space, space.total_dim)

    def test_rejects_wrong_shape(self):
        space = build_space(jc_device())
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(space, np.eye(3, dtype=complex))

    def test_rejects_non_hermitian(self):
        space = build_space(jc_device())
        d = space.total_dim
        rho = np.eye(d, dtype=complex) / d
        rho[0, 1] = 1e-5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(space, rho)

    def test_rejects_bad_trace(self):
        space = build_space(jc_device())
        d = space.total_dim
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(space, 1.001 * np.eye(d, dtype=complex) / d)

    def test_expectation(self):
        dev = decay_cavity_device()
        space = build_space(dev)
        rho = DensityMatrix.pure(space, bare_state(dev, space, (2,), ("g",)).index)
        number = np.diag(space.occupation_arrays()[0].astype(float))
        assert np.trace(number @ rho.entries).real == pytest.approx(2.0)


class TestObservables:
    def test_exactly_one_payload(self):
        with pytest.raises(ValueError, match="exactly one"):
            Observable("bad", weights=np.ones(2), element=(0, 1))
        with pytest.raises(ValueError, match="exactly one"):
            Observable("empty")

    def test_unique_names_enforced(self):
        a = Observable("x", weights=np.ones(2))
        with pytest.raises(ValueError, match="unique"):
            ObservableSet((a, a))

    def test_weights_and_matrix_agree(self):
        rng = np.random.default_rng(7)
        d = 6
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        w = rng.normal(size=d)
        ow = Observable("w", weights=w)
        om = Observable("m", matrix=np.diag(w).astype(complex))
        assert ow.evaluate(rho) == pytest.approx(om.evaluate(rho), rel=1e-12)

    def test_element_payload_is_magnitude(self):
        rho = np.array([[0.5, 0.3j], [-0.3j, 0.5]], dtype=complex)
        assert Observable("c", element=(0, 1)).evaluate(rho) == pytest.approx(0.3)

    def test_standard_names_three_atoms(self):
        dev = make_three_atom_device(n_max=2)
        space, initial, final, obs = transfer_observables(
            dev, ((0,), ("e", "g", "g")), ((0,), ("g", "e", "e"))
        )
        assert obs.names == (
            "p_e_1", "p_i_1", "p_e_2", "p_i_2", "p_e_3", "p_i_3", "n_c",
            "corr_2_3", "p_initial", "p_final", "coherence",
        )

    def test_two_level_atoms_have_no_leakage_column(self):
        dev = swap_device()
        names = standard_observables(dev, build_space(dev)).names
        assert names == ("p_e_a", "p_e_b", "n_c")

    def test_correlator_ladder_four_atoms(self):
        dev = DeviceSpec(
            cavities=(CavitySpec("c", 6.0, n_max=2),),
            atoms=(
                AtomSpec("1", 8.9665, 21.0),
                AtomSpec("2", 3.0, 7.0),
                AtomSpec("3", 3.0, 7.0),
                AtomSpec("4", 3.0, 7.0),
            ),
            edges=tuple(
                CouplingEdge(a, "c", g_ge=150.0, g_gi=150.0, g_ei=200.0)
                for a in "1234"
            ),
        )
        space, initial, final, obs = transfer_observables(
            dev, ((0,), ("e", "g", "g", "g")), ((0,), ("g", "e", "e", "e"))
        )
        names = obs.names
        assert "corr_2_3" in names and "corr_2_3_4" in names
        assert "corr_2_3_4_5" not in names

    def test_bounded_flags(self):
        dev = jc_device()
        obs = standard_observables(dev, build_space(dev))
        by_name = {o.name: o for o in obs.observables}
        assert by_name["p_e_q"].bounded
        assert not by_name["n_c"].bounded

    def test_correlator_counts_joint_excitation(self):
        dev = make_three_atom_device(n_max=2)
        space, initial, final, obs = transfer_observables(
            dev, ((0,), ("e", "g", "g")), ((0,), ("g", "e", "e"))
        )
        corr = next(o for o in obs.observables if o.name == "corr_2_3")
        rho_final = DensityMatrix.pure(space, final.index)
        rho_initial = DensityMatrix.pure(space, initial.index)
        assert corr.evaluate(rho_final.entries) == pytest.approx(1.0)
        assert corr.evaluate(rho_initial.entries) == pytest.approx(0.0)


class TestCollapseChannels:
    def test_zero_rates_give_no_channels(self):
        dev = swap_device()
        assert build_collapse_channels(dev, build_space(dev)) == ()

    def test_channel_inventory(self):
        dev = make_three_atom_device(n_max=2)
        names = [ch.name for ch in build_collapse_channels(dev, build_space(dev))]
        assert names == [
            "kappa_c",
            "gamma_ge_1", "gamma_gi_1", "gamma_ei_1",
            "gamma_ge_2", "gamma_gi_2", "gamma_ei_2",
            "gamma_ge_3", "gamma_gi_3", "gamma_ei_3",
        ]

    def test_cavity_channel_matches_lowering_operator(self):
        dev = decay_cavity_device(kappa=0.04)
        space = build_space(dev)
        (ch,) = build_collapse_channels(dev, space)
        dense = ch.as_matrix(space.total_dim)
        lower = np.kron(ladder("annihilate", 4), np.eye(2))
        np.testing.assert_allclose(dense, math.sqrt(0.04) * lower, atol=1e-15)

    def test_rate_diagonal_matches_dense(self):
        dev = make_three_atom_device(n_max=2)
        space = build_space(dev)
        for ch in build_collapse_channels(dev, space):
            dense = ch.as_matrix(space.total_dim)
            expected = np.real(np.diagonal(dense.conj().T @ dense))
            np.testing.assert_allclose(ch.rate_diagonal(space.total_dim), expected, atol=1e-14)


class TestPrebuiltDissipator:
    @settings(deadline=None, max_examples=40)
    @given(open_devices(), st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, dev, seed):
        space = build_space(dev)
        d = space.total_dim
        channels = build_collapse_channels(dev, space)
        dissipator = _dissipator(channels, d)
        rates = [c.kappa for c in dev.cavities] + [
            getattr(a, name) for a in dev.atoms for name in ("gamma_ge", "gamma_gi", "gamma_ei")
        ]
        if not any(rates):
            assert channels == () and dissipator is None
            # closed runs keep one exact propagator per sample interval
            traj = evolve(dev, DensityMatrix.pure(space, 0), 10.0, samples=3,
                          method="split", step=1.0)
            assert traj.steps == 2
            return
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m + m.conj().T
        expected = np.zeros((d, d), dtype=complex)
        for ch in channels:
            op = ch.as_matrix(d)
            anti = op.conj().T @ op
            expected += op @ rho @ op.conj().T - 0.5 * (anti @ rho + rho @ anti)
        got = (dissipator @ rho.ravel()).reshape(d, d)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        assert dissipator.has_canonical_format
        assert dissipator.indices.dtype == dissipator.indptr.dtype == np.int32

    @pytest.mark.parametrize(
        "make", [make_four_atom_device, make_two_cavity_device, make_three_atom_device]
    )
    def test_direct_build_is_the_coo_assembly(self, make):
        """The in-place CSR build equals scipy's COO assembly of the same entries bit for bit."""
        dev = make()
        space = build_space(dev)
        d = space.total_dim
        channels = build_collapse_channels(dev, space)
        rates = sum(ch.rate_diagonal(d) for ch in channels)
        diagonal = np.arange(d * d)
        rows = [diagonal] + [(ch.dest[:, None] * d + ch.dest).ravel() for ch in channels]
        cols = [diagonal] + [(ch.source[:, None] * d + ch.source).ravel() for ch in channels]
        data = [-0.5 * (rates[:, None] + rates).ravel()]
        data += [np.outer(ch.amp, ch.amp.conj()).ravel() for ch in channels]
        reference = sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(d * d, d * d),
        )
        got = _dissipator(channels, d)
        assert got.has_canonical_format
        assert got.indices.dtype == got.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(reference, name))


def oracle_device(rng, n_maxes, levels, dissipative) -> DeviceSpec:
    """Dispersive device with seeded frequencies, couplings and (optional) rates."""
    def rate():
        return float(rng.uniform(1e-3, 1e-2)) if dissipative else 0.0

    cavities = tuple(
        CavitySpec(f"c{k}", 1.8 + 0.3 * k, kappa=rate(), n_max=n) for k, n in enumerate(n_maxes)
    )
    atoms, edges = [], []
    for k, n_levels in enumerate(levels):
        label = str(k + 1)
        omega_e = float(rng.uniform(0.4, 0.8))
        if n_levels == 3:
            omega_i = omega_e + float(rng.uniform(0.5, 0.8))
            atoms.append(AtomSpec(label, omega_e, omega_i, rate(), rate(), rate()))
            couplings = {name: float(rng.uniform(0.004, 0.018)) for name in ("g_ge", "g_gi", "g_ei")}
        else:
            atoms.append(AtomSpec(label, omega_e, gamma_ge=rate()))
            couplings = {"g_ge": float(rng.uniform(0.004, 0.018))}
        for cav in cavities if k == 0 else cavities[:1]:
            edges.append(CouplingEdge(label, cav.label, **couplings))
    return DeviceSpec(
        cavities=cavities, atoms=tuple(atoms), edges=tuple(edges), unit_omega0=True
    )


def exact_states(dev: DeviceSpec, rho0: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """Samples of expm(L t) ρ0 from the dense Liouvillian on row-major vec(ρ).

    L = −i(H⊗1 − 1⊗Hᵀ) + Σ_c (O⊗O* − ½ O†O⊗1 − ½ 1⊗(O†O)ᵀ), with each O
    taken from the dense ``as_matrix`` form, not from the engine's operator.
    """
    space = build_space(dev)
    d = space.total_dim
    h = np.diag(bare_energy_vector(dev, space)) + build_interaction_rwa(dev, space)
    eye = np.eye(d)
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for ch in build_collapse_channels(dev, space):
        op = ch.as_matrix(d)
        anti = op.conj().T @ op
        liouvillian += (
            np.kron(op, op.conj()) - 0.5 * np.kron(anti, eye) - 0.5 * np.kron(eye, anti.T)
        )
    propagator = expm(liouvillian * (times[1] - times[0]))
    states = [rho0.ravel()]
    for _ in times[1:]:
        states.append(propagator @ states[-1])
    return [v.reshape(d, d) for v in states]


def max_state_deviation(traj: TrajectoryResult, exact: list[np.ndarray]) -> float:
    """Largest entry error of a trajectory's kept states against exact ones."""
    return max(float(np.abs(s.entries - e).max()) for s, e in zip(traj.states, exact))


# (cavity truncations, atom level counts, dissipative); d from 9 to 18
ORACLE_STRUCTURES = [
    ((2,), (3,), True),
    ((2,), (2, 2), True),
    ((2,), (3, 2), True),
    ((2, 2), (2,), True),
    ((3,), (2, 2), False),
    ((2, 2), (2,), False),
    ((2,), (3,), False),
]
# measured worst deviations over these devices: split 1.0e-6 with
# dissipation and 1.1e-14 without
ORACLE_SPLIT_BOUND = 5e-6
ORACLE_CLOSED_SPLIT_BOUND = 1e-12


class TestExactOracle:
    """The split engine at its default step against the exact propagator."""

    @pytest.mark.parametrize("case", range(len(ORACLE_STRUCTURES)))
    def test_engines_within_bound_of_exact_propagation(self, case):
        rng = np.random.default_rng([20261019, case])
        dev = oracle_device(rng, *ORACLE_STRUCTURES[case])
        space = build_space(dev)
        d = space.total_dim
        assert d <= 30
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        rho0 = DensityMatrix(space, np.outer(psi, psi.conj()))
        times = np.linspace(0.0, 20.0, 11)
        exact = exact_states(dev, rho0.entries, times)
        dissipative = ORACLE_STRUCTURES[case][2]
        bound = ORACLE_SPLIT_BOUND if dissipative else ORACLE_CLOSED_SPLIT_BOUND
        traj = evolve(dev, rho0, times[-1], samples=len(times), keep_states=True)
        np.testing.assert_allclose(traj.times, times, rtol=0, atol=1e-12)
        error = max_state_deviation(traj, exact)
        assert error <= bound


    def test_symmetric_device_within_bound_on_its_blocks(self):
        rng = np.random.default_rng([20261019, len(ORACLE_STRUCTURES)])
        base = oracle_device(rng, (2,), (2, 2), True)
        dev = replace(
            base,
            atoms=base.atoms + (replace(base.atoms[1], label="3"),),
            edges=base.edges + (replace(base.edges[1], atom="3"),),
        )
        space = build_space(dev)
        d = space.total_dim
        assert d <= 30
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())
        perm = swap_permutation(space, "2", "3")
        rho0 = DensityMatrix(space, (pure + pure[np.ix_(perm, perm)]) / 2)
        times = np.linspace(0.0, 20.0, 11)
        exact = exact_states(dev, rho0.entries, times)
        traj = evolve(dev, rho0, times[-1], samples=len(times), method="split",
                      keep_states=True)
        assert traj.sectors == (18, 6)
        error = max_state_deviation(traj, exact)
        assert error <= ORACLE_SPLIT_BOUND


def swap_permutation(space, a: str, b: str) -> np.ndarray:
    """Basis permutation that exchanges the occupations of subsystems a and b."""
    occ = space.occupation_arrays()
    pa, pb = space.position(a), space.position(b)
    shift = (occ[pb] - occ[pa]) * space.strides[pa] + (occ[pa] - occ[pb]) * space.strides[pb]
    return np.arange(space.total_dim) + shift


# (levels of the identical atoms, their number, levels of the distinct atom);
# with one cavity at n_max = 2 the dimension is 24, 36, 48 or 54
SYMMETRIC_STRUCTURES = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
# rates this small keep the 0.5 split step stable (h times every decay rate
# below 0.3), so the block and full runs differ by rounding alone; unstable
# runs grow without bound and so do their absolute differences
SYMMETRIC_RATES = st.one_of(st.just(0.0), st.floats(1e-4, 0.05))


@st.composite
def symmetric_runs(draw):
    """A class of identical atoms beside one distinct atom, with an invariant bare state."""
    class_levels, size, distinct_levels = draw(st.sampled_from(SYMMETRIC_STRUCTURES))

    def atom(label, omega_e, levels):
        rates = ("gamma_ge", "gamma_gi", "gamma_ei")[: 1 if levels == 2 else 3]
        omega_i = omega_e + 0.7 if levels == 3 else None
        return AtomSpec(label, omega_e, omega_i, **{r: draw(SYMMETRIC_RATES) for r in rates})

    def edge(label, levels):
        names = ("g_ge", "g_gi", "g_ei")[: 1 if levels == 2 else 3]
        return CouplingEdge(label, "c", **{n: draw(st.floats(0.005, 0.05)) for n in names})

    twin, twin_edge = atom("2", 1.0, class_levels), edge("2", class_levels)
    labels = [str(k + 2) for k in range(size)]
    dev = DeviceSpec(
        cavities=(CavitySpec("c", 1.5, kappa=draw(SYMMETRIC_RATES), n_max=2),),
        atoms=(atom("1", 1.2, distinct_levels),)
        + tuple(replace(twin, label=label) for label in labels),
        edges=(edge("1", distinct_levels),)
        + tuple(replace(twin_edge, atom=label) for label in labels),
        unit_omega0=True,
    )
    names = ("g", "e", "i")
    fock = (draw(st.integers(0, 2)),)
    levels = (draw(st.sampled_from(names[:distinct_levels])),)
    levels += (draw(st.sampled_from(names[:class_levels])),) * size
    return dev, fock, levels


class TestSymmetrySectors:
    """The split engine on permutation-symmetry blocks against its full path."""

    @settings(deadline=None, max_examples=60)
    @given(symmetric_runs())
    def test_blocks_match_full_path(self, run):
        dev, fock, levels = run
        space = build_space(dev)
        initial = bare_state(dev, space, fock, levels)
        final = bare_state(dev, space, (0,), ("e",) * len(levels))
        obs = standard_observables(dev, space, initial, final)

        def run_split():
            return evolve(dev, initial, 20.0, samples=5, obs=obs, method="split", step=0.5,
                          keep_states=True)

        blocks = run_split()
        with pytest.MonkeyPatch.context() as mp:
            # no public knob selects the path; the detector is forced to decline
            mp.setattr(device, "build_sectors", lambda *args: None)
            full = run_split()
        assert blocks.sectors and max(blocks.sectors) < space.total_dim
        assert full.sectors == ()
        assert blocks.steps == full.steps
        assert max_column_deviation(blocks, full) <= 1e-11
        for a, b in zip(blocks.states, full.states):
            assert float(np.abs(a.entries - b.entries).max()) <= 1e-11
        assert blocks.min_eigenvalue == pytest.approx(full.min_eigenvalue, abs=1e-11)

    @pytest.mark.parametrize(
        "make, fock, levels, sectors",
        [
            (make_three_atom_device, (0,), ("e", "g", "g"), (54, 27)),
            (make_four_atom_device, (0,), ("e", "g", "g", "g"), (90, 72, 9)),
            (make_three_atom_device, (0,), ("g", "e", "g"), ()),
            (make_two_cavity_device, (0, 0), ("e", "g", "g"), ()),
        ],
    )
    def test_sectors_taken_only_for_invariant_bare_states(self, make, fock, levels, sectors):
        dev = make(n_max=2)
        traj = evolve(dev, bare_state(dev, build_space(dev), fock, levels), 2.0, samples=3)
        assert traj.method == "split"
        assert traj.sectors == sectors

    def test_atoms_differing_in_one_rate_take_full_path(self):
        dev = make_three_atom_device(n_max=2)
        dev = replace(dev, atoms=dev.atoms[:2] + (replace(dev.atoms[2], gamma_ge=0.02),))
        initial = bare_state(dev, build_space(dev), (0,), ("e", "g", "g"))
        assert evolve(dev, initial, 2.0, samples=3).sectors == ()

    @pytest.mark.parametrize(
        "mixed, sectors",
        [((("g", "e", "g"), ("g", "g", "e")), (54, 27)), ((("e", "g", "g"), ("g", "e", "g")), ())],
    )
    def test_density_matrix_needs_invariance(self, mixed, sectors):
        dev = make_three_atom_device(n_max=2)
        space = build_space(dev)
        rho = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        for levels in mixed:
            index = bare_state(dev, space, (0,), levels).index
            rho[index, index] = 0.5
        assert evolve(dev, DensityMatrix(space, rho), 2.0, samples=3).sectors == sectors


def block_reference(channels, dim: int, sectors) -> sparse.csr_matrix:
    """reduce · D · lift with the full dissipator D, residue below 1e-12 of the largest entry dropped."""
    reduce, lift = sectors.vec_maps
    out = (reduce @ _dissipator(channels, dim) @ lift).tocsr()
    out.data[np.abs(out.data) < 1e-12 * np.abs(out.data).max()] = 0.0
    out.eliminate_zeros()
    out.sort_indices()
    return out


class TestBlockDissipator:
    """The block dissipator, built from the channels and the vec maps, against reduce · D · lift."""

    @staticmethod
    def assert_matches_reference(dev):
        model = Model(dev)
        d = model.space.total_dim
        channels = build_collapse_channels(dev, model.space)
        got = _block_dissipator(channels, d, model.sectors)
        if not channels:
            assert got is None
            return
        reference = block_reference(channels, d, model.sectors)
        assert got.has_canonical_format and got.dtype == complex
        assert np.array_equal(got.indptr, reference.indptr)
        assert np.array_equal(got.indices, reference.indices)
        assert np.abs(got.data - reference.data).max() <= 1e-15 * np.abs(reference.data).max()

    @settings(deadline=None, max_examples=40)
    @given(symmetric_runs())
    def test_matches_reduce_full_lift(self, run):
        self.assert_matches_reference(run[0])

    @pytest.mark.parametrize("make", [make_three_atom_device, make_four_atom_device])
    def test_shipped_devices(self, make):
        self.assert_matches_reference(make())


class TestOperatorMemory:
    """The operators of the shipped four-atom window (d = 486) build without a d² × d² detour."""

    # tracemalloc peak of the build below: 38.1 MB with the direct builds
    # (numpy 2.4, scipy 1.17); the COO build of the full dissipator and its
    # reduction to the blocks took 73.7 MB. The bound leaves 20 % margin.
    PEAK_BOUND = 1.2 * 38.1e6

    def test_traced_peak_of_the_window_operators(self):
        dev = load_scenario("four_atom_one_cavity").device
        tracemalloc.start()
        try:
            model = Model(dev)
            h = model.at()
            channels = build_collapse_channels(dev, model.space)
            dissipator = _block_dissipator(channels, model.space.total_dim, model.sectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.shape == (486, 486) and model.sectors.sizes == (180, 144, 18)
        assert dissipator.nnz == 240_596
        assert peak < self.PEAK_BOUND


def lindblad_rhs(rho: DensityMatrix | np.ndarray, h: np.ndarray, dev: DeviceSpec) -> np.ndarray:
    """Right-hand side of the master equation from the engine's superoperator."""
    entries = rho.entries if isinstance(rho, DensityMatrix) else rho
    out = -1j * (h @ entries - entries @ h)
    dissipator = _dissipator(build_collapse_channels(dev, build_space(dev)), h.shape[0])
    if dissipator is not None:
        out += (dissipator @ entries.ravel()).reshape(out.shape)
    return out


class TestLindbladRHS:
    def test_trace_free(self):
        dev = make_three_atom_device(n_max=2)
        space = build_space(dev)
        rng = np.random.default_rng(3)
        d = space.total_dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        h = np.diag(bare_energy_vector(dev, space)) + build_interaction_rwa(dev, space)
        out = lindblad_rhs(rho, h, dev)
        assert abs(np.trace(out)) < 1e-12

    def test_matches_dense_superoperator(self):
        dev = make_three_atom_device(n_max=2)
        space = build_space(dev)
        d = space.total_dim
        rng = np.random.default_rng(11)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        h = np.diag(bare_energy_vector(dev, space)) + build_interaction_rwa(dev, space)
        expected = -1j * (h @ rho - rho @ h)
        for ch in build_collapse_channels(dev, space):
            op = ch.as_matrix(d)
            anti = op.conj().T @ op
            expected += op @ rho @ op.conj().T - 0.5 * (anti @ rho + rho @ anti)
        np.testing.assert_allclose(lindblad_rhs(rho, h, dev), expected, atol=1e-13)

    def test_stationary_states_have_zero_rhs(self):
        dev = jc_device()
        space = build_space(dev)
        h = np.diag(bare_energy_vector(dev, space)) + build_interaction_rwa(dev, space)
        ground = DensityMatrix.pure(space, bare_state(dev, space, (0,), ("g",)).index)
        np.testing.assert_allclose(lindblad_rhs(ground, h, dev), 0.0, atol=1e-15)
        mixed = np.eye(space.total_dim, dtype=complex) / space.total_dim
        np.testing.assert_allclose(lindblad_rhs(mixed, h, dev), 0.0, atol=1e-15)

    def test_photon_number_decay_rate(self):
        dev = decay_cavity_device(kappa=0.04)
        space = build_space(dev)
        h = np.diag(bare_energy_vector(dev, space))
        rho = DensityMatrix.pure(space, bare_state(dev, space, (2,), ("g",)).index)
        number = np.diag(space.occupation_arrays()[0].astype(complex))
        out = lindblad_rhs(rho, h, dev)
        assert np.trace(number @ out).real == pytest.approx(-0.04 * 2.0, rel=1e-12)

    def test_accepts_density_matrix_and_array(self):
        dev = decay_cavity_device()
        space = build_space(dev)
        h = np.diag(bare_energy_vector(dev, space))
        rho = DensityMatrix.pure(space, bare_state(dev, space, (1,), ("g",)).index)
        np.testing.assert_allclose(
            lindblad_rhs(rho, h, dev), lindblad_rhs(rho.entries, h, dev), atol=0
        )


class TestVacuumRabi:
    def test_adaptive_engine_matches_cosine(self):
        dev = jc_device()
        space = build_space(dev)
        excited = bare_state(dev, space, (0,), ("e",))
        traj = evolve(dev, excited, 12.0, samples=241)
        g = dev.rate_to_angular(100.0)
        expected = np.cos(g * traj.times) ** 2
        assert np.abs(traj.column("p_e_q") - expected).max() < 1e-6
        assert traj.method == "split"

    def test_split_engine_is_exact_without_dissipation(self):
        dev = jc_device()
        space = build_space(dev)
        excited = bare_state(dev, space, (0,), ("e",))
        traj = evolve(dev, excited, 12.0, samples=241, method="split", step=2.0)
        g = dev.rate_to_angular(100.0)
        expected = np.cos(g * traj.times) ** 2
        assert np.abs(traj.column("p_e_q") - expected).max() < 1e-10
        assert np.abs(traj.purity - 1.0).max() < 1e-10

    def test_period_extraction(self):
        dev = jc_device()
        space = build_space(dev)
        excited = bare_state(dev, space, (0,), ("e",))
        traj = evolve(dev, excited, 12.0, samples=241, method="split", step=1.0)
        assert extract_period(traj, "p_e_q") == pytest.approx(5.0, rel=1e-4)

    def test_truncation_independence(self):
        t1 = t2 = None
        for n_max, out in ((3, "a"), (5, "b")):
            dev = jc_device(n_max=n_max)
            space = build_space(dev)
            excited = bare_state(dev, space, (0,), ("e",))
            traj = evolve(dev, excited, 10.0, samples=101, method="split", step=0.5)
            if n_max == 3:
                t1 = traj.column("p_e_q")
            else:
                t2 = traj.column("p_e_q")
        assert np.abs(t1 - t2).max() < 1e-9

    def test_mixed_initial_state(self):
        dev = jc_device()
        space = build_space(dev)
        a = bare_state(dev, space, (0,), ("e",)).index
        b = bare_state(dev, space, (1,), ("g",)).index
        rho = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        rho[a, a] = rho[b, b] = 0.5
        traj = evolve(dev, DensityMatrix(space, rho), 10.0, samples=101, method="split")
        assert np.abs(traj.column("p_e_q") - 0.5).max() < 1e-9


class TestDecayLaws:
    def test_cavity_decay(self):
        dev = decay_cavity_device(kappa=0.04)
        space = build_space(dev)
        start = bare_state(dev, space, (2,), ("g",))
        traj = evolve(dev, start, 40.0, samples=81, method="split", step=0.02)
        expected = 2.0 * np.exp(-0.04 * traj.times)
        assert np.abs(traj.column("n_c") - expected).max() < 1e-6
        assert traj.trace_drift < 1e-9

    def test_qutrit_cascade(self):
        dev = decay_qutrit_device()
        space = build_space(dev)
        start = bare_state(dev, space, (0,), ("i",))
        traj = evolve(dev, start, 30.0, samples=61, method="split", step=0.02)
        gamma_i = 0.03 + 0.05
        p_i = np.exp(-gamma_i * traj.times)
        p_e = 0.05 / (gamma_i - 0.02) * (
            np.exp(-0.02 * traj.times) - np.exp(-gamma_i * traj.times)
        )
        assert np.abs(traj.column("p_i_q") - p_i).max() < 1e-6
        assert np.abs(traj.column("p_e_q") - p_e).max() < 1e-6

    def test_dissipative_engines_agree(self):
        dev = jc_device(kappa=1.0, gamma=0.5)
        space = build_space(dev)
        excited = bare_state(dev, space, (0,), ("e",))
        fixed = evolve(dev, excited, 15.0, samples=151, method="split", step=0.5,
                       keep_states=True)
        exact = exact_states(dev, DensityMatrix.pure(space, excited.index).entries, fixed.times)
        assert max_state_deviation(fixed, exact) < 5e-6

    def test_dissipative_trajectory_diagnostics(self):
        dev = jc_device(kappa=1.0, gamma=0.5)
        space = build_space(dev)
        excited = bare_state(dev, space, (0,), ("e",))
        traj = evolve(dev, excited, 15.0, samples=151, method="split", step=0.5)
        assert traj.warnings == ()
        assert traj.trace_drift < 1e-9
        assert traj.min_eigenvalue > -1e-8
        assert traj.hermiticity_residual < 1e-8
        assert traj.final_state is not None
        assert traj.final_state.trace() == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def swap_run():
    dev = swap_device()
    space, initial, final, obs = transfer_observables(
        dev, ((0,), ("e", "g")), ((0,), ("g", "e"))
    )
    traj = evolve(
        dev, initial, 600.0, samples=601, obs=obs, method="split", step=0.5
    )
    return dev, traj


class TestVirtualSwap:
    def test_period_close_to_perturbative_estimate(self, swap_run):
        _, traj = swap_run
        estimate = math.pi * 0.4 / 0.05**2
        assert extract_period(traj, "p_initial") == pytest.approx(estimate, rel=0.05)

    def test_transfer_completes(self, swap_run):
        _, traj = swap_run
        assert traj.column("p_final").max() > 0.9

    def test_checkpoint_at_start(self, swap_run):
        _, traj = swap_run
        (p_i, p_f), coh = entanglement_checkpoint(traj, 0.0)
        assert p_i == pytest.approx(1.0)
        assert p_f == pytest.approx(0.0, abs=1e-12)
        assert coh == pytest.approx(0.0, abs=1e-12)

    def test_checkpoint_at_quarter_period(self, swap_run):
        _, traj = swap_run
        period = extract_period(traj, "p_initial")
        (p_i, p_f), coh = entanglement_checkpoint(traj, period / 4)
        assert p_i == pytest.approx(0.5, abs=0.05)
        assert p_f == pytest.approx(0.5, abs=0.05)
        assert coh == pytest.approx(0.5, abs=0.05)

    def test_checkpoint_outside_range(self, swap_run):
        _, traj = swap_run
        with pytest.raises(ValueError, match="outside"):
            entanglement_checkpoint(traj, 1e4)

    def test_checkpoint_needs_transfer_columns(self):
        dev = jc_device()
        space = build_space(dev)
        traj = evolve(dev, bare_state(dev, space, (0,), ("e",)), 1.0, samples=11)
        with pytest.raises(ValueError, match="p_initial"):
            entanglement_checkpoint(traj, 0.5)

    def test_purity_and_energy_conserved(self, swap_run):
        dev, traj = swap_run
        assert np.abs(traj.purity - 1.0).max() < 1e-6

    def test_total_excitation_conserved_both_engines(self):
        dev = swap_device()
        space = build_space(dev)
        initial = bare_state(dev, space, (0,), ("e", "g"))
        n_t = total_excitation_operator(space).astype(complex)
        h = np.diag(bare_energy_vector(dev, space)) + build_interaction_rwa(dev, space)
        obs = ObservableSet(
            (Observable("n_t", matrix=n_t), Observable("energy", matrix=h))
        )
        traj = evolve(dev, initial, 120.0, samples=121, obs=obs, method="split", step=0.5)
        assert np.abs(traj.column("n_t") - 1.0).max() < 1e-8
        energy = traj.column("energy")
        assert np.abs(energy - energy[0]).max() < 1e-8

    def test_engines_agree(self):
        dev = swap_device()
        space, initial, final, obs = transfer_observables(
            dev, ((0,), ("e", "g")), ((0,), ("g", "e"))
        )
        fixed = evolve(dev, initial, 120.0, samples=61, obs=obs, method="split", step=0.5,
                       keep_states=True)
        exact = exact_states(dev, DensityMatrix.pure(space, initial.index).entries, fixed.times)
        assert max_state_deviation(fixed, exact) < 5e-6


class TestStepPlan:
    """Every sample interval takes the same n steps, so a run builds each propagator once."""

    @staticmethod
    def run(monkeypatch, dev, t_final, step):
        """evolve on 31 samples; the distinct propagator lengths built and eigh calls made."""
        built, solves = set(), []
        propagator, eigh = dynamics._propagator, np.linalg.eigh

        def spy_propagator(energies, basis, t):
            built.add(t)
            return propagator(energies, basis, t)

        def spy_eigh(h):
            solves.append(h.shape)
            return eigh(h)

        monkeypatch.setattr(dynamics, "_propagator", spy_propagator)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        initial = bare_state(dev, build_space(dev), (0,), ("e",))
        traj = evolve(dev, initial, t_final, samples=31, step=step)
        return traj, built, solves

    @pytest.mark.parametrize(
        "kappa, step, lengths, steps",
        [
            # t_final 100 on 31 samples: dt = 100 / 30 is inexact, so the
            # differences of the sample times vary in their last bits
            (0.01, 5.0, 1, 30),  # n = 1: e^{-iHh/2} only
            (0.01, 5.0 / 3.0, 2, 60),  # n = 2: e^{-iHh/2} and e^{-iHh}
            (0.0, 5.0, 1, 30),  # no dissipator: e^{-iH dt}
            (0.0, 5.0 / 3.0, 1, 30),
        ],
    )
    def test_inexact_grid_builds_one_plan(self, monkeypatch, kappa, step, lengths, steps):
        dev = jc_device(kappa=kappa, gamma=kappa)
        traj, built, solves = self.run(monkeypatch, dev, 100.0, step)
        assert len(set(np.diff(traj.times))) > 1
        assert len(built) == lengths
        assert traj.steps == steps
        assert len(solves) == 1

    def test_one_sample_builds_nothing(self, monkeypatch):
        traj, built, solves = self.run(monkeypatch, jc_device(kappa=0.01), 0.0, 5.0)
        assert len(traj.times) == 1 and traj.steps == 0
        assert built == set() and solves == []


class TestEvolvePlumbing:
    def test_zero_time_single_sample(self):
        dev = jc_device()
        space = build_space(dev)
        traj = evolve(dev, bare_state(dev, space, (0,), ("e",)), 0.0)
        assert len(traj.times) == 1
        assert traj.times[0] == 0.0
        assert traj.column("p_e_q")[0] == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        dev = jc_device()
        space = build_space(dev)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(dev, bare_state(dev, space, (0,), ("e",)), -1.0)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_non_finite_time_rejected_before_any_work(self, t_final, monkeypatch):
        dev = jc_device()
        initial = bare_state(dev, build_space(dev), (0,), ("e",))

        def no_work(*args):
            raise AssertionError("evolve did work before checking t_final")

        monkeypatch.setattr(dynamics, "Model", no_work)
        with pytest.raises(ValueError, match="t_final must be nonnegative and finite"):
            evolve(dev, initial, t_final)

    def test_unstable_split_step_rejected_before_any_work(self, monkeypatch):
        # R_max = 3 kappa on the top Fock level; samples every 1.0
        dev = decay_cavity_device(kappa=1.0)
        initial = bare_state(dev, build_space(dev), (3,), ("g",))

        def no_work(*args):
            raise AssertionError("evolve assembled H before checking the step")

        with monkeypatch.context() as patched:
            patched.setattr(device, "build_interaction_rwa", no_work)
            with pytest.raises(ValueError, match=r"stability bound 2; use a step below 0\.666"):
                evolve(dev, initial, 10.0, samples=11, method="split", step=1.0)
        # step 0.8 splits each interval in two: h = 0.5, h R_max = 1.5
        traj = evolve(dev, initial, 10.0, samples=11, method="split", step=0.8)
        n_c = traj.column("n_c")
        assert np.all(np.isfinite(n_c)) and n_c.max() <= 3.0 and n_c[-1] < n_c[0]

    def test_samples_are_not_kept(self):
        # 301 samples at d = 162 would hold 301 * 162**2 * 16 B = 126 MB
        dev = make_three_atom_device()
        space = build_space(dev)
        initial = bare_state(dev, space, (0,), ("e", "g", "g"))
        tracemalloc.start()
        try:
            traj = evolve(dev, initial, 30.0, samples=301)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states is None and traj.final_state is not None
        assert peak < 30e6

    def test_too_few_samples_rejected(self):
        dev = jc_device()
        space = build_space(dev)
        with pytest.raises(ValueError, match="two samples"):
            evolve(dev, bare_state(dev, space, (0,), ("e",)), 1.0, samples=1)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_bad_step_rejected_before_any_work(self, step, monkeypatch):
        dev = jc_device()
        initial = bare_state(dev, build_space(dev), (0,), ("e",))

        def no_work(*args):
            raise AssertionError("evolve did work before checking the step")

        monkeypatch.setattr(dynamics, "Model", no_work)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            evolve(dev, initial, 5.0, method="split", step=step)

    def test_step_count_past_every_float_rejected_before_any_work(self, monkeypatch):
        dev = jc_device()
        initial = bare_state(dev, build_space(dev), (0,), ("e",))

        def no_work(*args):
            raise AssertionError("evolve did work before planning the steps")

        monkeypatch.setattr(dynamics, "Model", no_work)
        with pytest.raises(ValueError, match="an interval of 1e\\+300 needs inf steps of 1e-300"):
            evolve(dev, initial, 1e300, samples=2, step=1e-300)

    def test_step_total_past_the_bound_rejected_before_any_work(self, monkeypatch):
        dev = jc_device()
        initial = bare_state(dev, build_space(dev), (0,), ("e",))

        def no_work(*args):
            raise AssertionError("evolve did work before counting the steps")

        monkeypatch.setattr(dynamics, "Model", no_work)
        # one step over the bound, and a finite step count that would never end
        for t_final, samples in ((dynamics.MAX_SPLIT_STEPS + 1.0, 2), (1e300, 201)):
            with pytest.raises(ValueError, match="exceed the 1e\\+07 split steps of one run"):
                evolve(dev, initial, t_final, samples=samples, step=1.0)

    def test_unknown_method_rejected(self):
        dev = jc_device()
        space = build_space(dev)
        with pytest.raises(ValueError, match="method"):
            evolve(dev, bare_state(dev, space, (0,), ("e",)), 1.0, method="euler")

    def test_initial_state_space_mismatch(self):
        small = jc_device(n_max=3)
        big = jc_device(n_max=5)
        rho = DensityMatrix.pure(build_space(small), 0)
        with pytest.raises(ValueError, match="different space"):
            evolve(big, rho, 1.0)

    def test_auto_routes_small_to_split(self):
        dev = jc_device()
        space = build_space(dev)
        traj = evolve(dev, bare_state(dev, space, (0,), ("e",)), 1.0, samples=11)
        assert traj.method == "split"

    def test_auto_routes_large_to_split(self):
        dev = make_three_atom_device(n_max=2)
        space = build_space(dev)
        traj = evolve(dev, bare_state(dev, space, (0,), ("e", "g", "g")), 1.0, samples=2)
        assert traj.method == "split"

    def test_keep_states(self):
        dev = jc_device()
        space = build_space(dev)
        traj = evolve(
            dev, bare_state(dev, space, (0,), ("e",)), 2.0, samples=5, keep_states=True
        )
        assert traj.states is not None and len(traj.states) == 5
        assert all(isinstance(s, DensityMatrix) for s in traj.states)

    @pytest.mark.parametrize(
        "make, initial, final, sectors",
        [
            (lambda: jc_device(kappa=0.4, gamma=0.2), ((1,), ("e",)), ((0,), ("e",)), ()),
            (
                lambda: make_three_atom_device(n_max=2),
                ((0,), ("e", "g", "g")),
                ((0,), ("g", "e", "e")),
                (54, 27),
            ),
        ],
    )
    def test_sample_reductions_match_kept_states(self, make, initial, final, sectors):
        dev = make()
        space, initial, final, obs = transfer_observables(dev, initial, final)
        traj = evolve(dev, initial, 20.0, samples=9, obs=obs, keep_states=True)
        assert traj.sectors == sectors
        states = [s.entries for s in traj.states]
        for k, rho in enumerate(states):
            sampled = np.array([traj.values[name][k] for name in obs.names])
            assert np.abs(sampled - obs.evaluate(rho)).max() <= 1e-15
            assert abs(traj.purity[k] - np.sum(rho.real**2 + rho.imag**2)) <= 1e-15
        drift = max(abs(np.trace(rho).real - 1.0) for rho in states)
        assert abs(traj.trace_drift - drift) <= 1e-15
        occ = space.occupation_arrays()
        for cav in dev.cavities:
            top = occ[space.position(cav.label)] == cav.n_max
            worst = max(float(np.diagonal(rho).real[top].sum()) for rho in states)
            assert abs(traj.top_fock[cav.label] - worst) <= 1e-15

    def test_validation_residual(self):
        dev = jc_device(kappa=1.0, gamma=0.5)
        space = build_space(dev)
        traj = evolve(
            dev,
            bare_state(dev, space, (0,), ("e",)),
            10.0,
            samples=51,
            method="split",
            step=1.0,
            validate=True,
        )
        assert traj.validation_residual is not None
        assert traj.validation_residual < 1e-5

    def test_truncation_breach_warning(self):
        dev = decay_cavity_device()
        space = build_space(dev)
        top = bare_state(dev, space, (3,), ("g",))
        traj = evolve(dev, top, 5.0, samples=11, method="split", step=0.02)
        assert any("truncation" in w and "n_max" in w for w in traj.warnings)
        assert traj.top_fock["c"] == pytest.approx(1.0)

    def test_metrics_contents(self):
        dev = make_three_atom_device(n_max=2)
        space, initial, final, obs = transfer_observables(
            dev, ((0,), ("e", "g", "g")), ((0,), ("g", "e", "e"))
        )
        traj = evolve(dev, initial, 2.0, samples=3, obs=obs, method="split")
        m = traj.metrics()
        for key in ("trace_drift", "min_eigenvalue", "peak_transfer", "max_leakage", "max_photon"):
            assert key in m
        assert traj.peak_transfer is not None
        assert traj.max_photon is not None

    def test_column_error_lists_names(self):
        dev = jc_device()
        space = build_space(dev)
        traj = evolve(dev, bare_state(dev, space, (0,), ("e",)), 1.0, samples=11)
        with pytest.raises(KeyError, match="p_e_q"):
            traj.column("nope")

    def test_result_grid_validation(self):
        times = np.array([0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            TrajectoryResult(
                times=times,
                values={},
                method="split",
                steps=0,
                purity=np.ones(3),
                trace_drift=0.0,
                hermiticity_residual=0.0,
                min_eigenvalue=0.0,
                checkpoint_times=(),
                top_fock={},
            )
        with pytest.raises(ValueError, match="length"):
            TrajectoryResult(
                times=np.array([0.0, 1.0]),
                values={"x": np.ones(3)},
                method="split",
                steps=0,
                purity=np.ones(2),
                trace_drift=0.0,
                hermiticity_residual=0.0,
                min_eigenvalue=0.0,
                checkpoint_times=(),
                top_fock={},
            )


def synthetic_trajectory(times: np.ndarray, **columns: np.ndarray) -> TrajectoryResult:
    return TrajectoryResult(
        times=times,
        values=dict(columns),
        method="split",
        steps=0,
        purity=np.ones_like(times),
        trace_drift=0.0,
        hermiticity_residual=0.0,
        min_eigenvalue=0.0,
        checkpoint_times=(),
        top_fock={},
    )


class TestExtractPeriod:
    def test_off_grid_minimum_is_refined(self):
        times = np.linspace(0.0, 20.0, 401)
        period = 6.37
        traj = synthetic_trajectory(times, s=np.cos(math.pi * times / period) ** 2)
        assert extract_period(traj, "s") == pytest.approx(period, rel=1e-3)

    def test_flat_signal_rejected(self):
        times = np.linspace(0.0, 20.0, 101)
        traj = synthetic_trajectory(times, s=0.5 + 1e-5 * np.cos(times))
        with pytest.raises(ValueError, match="flat"):
            extract_period(traj, "s")

    def test_less_than_half_period_rejected(self):
        times = np.linspace(0.0, 20.0, 101)
        traj = synthetic_trajectory(times, s=np.cos(math.pi * times / 50.0) ** 2)
        with pytest.raises(ValueError, match="minimum"):
            extract_period(traj, "s")

    def test_spurious_early_dip_is_ignored(self):
        times = np.linspace(0.0, 20.0, 801)
        s = np.cos(math.pi * times / 16.0) ** 2
        s = s - 0.8 * np.exp(-((times - 1.0) / 0.05) ** 2)
        traj = synthetic_trajectory(times, s=s)
        assert extract_period(traj, "s") == pytest.approx(16.0, rel=1e-3)

    def test_monotone_decay_rejected(self):
        times = np.linspace(0.0, 20.0, 201)
        traj = synthetic_trajectory(times, s=np.exp(-times / 5.0))
        with pytest.raises(ValueError, match="minimum"):
            extract_period(traj, "s")

    def test_too_short_trajectory_rejected(self):
        times = np.linspace(0.0, 1.0, 4)
        traj = synthetic_trajectory(times, s=np.cos(times))
        with pytest.raises(ValueError, match="short"):
            extract_period(traj, "s")
