"""Spectra on the permutation-symmetry blocks against the full matrix.

The dense reference is the same code with the sector builder forced to
decline, so every device is the one block W = 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.optimize
from scipy import sparse

from conftest import make_four_atom_device, make_three_atom_device, make_two_cavity_device
from cycqed import device, spectral
from cycqed.device import AtomSpec, CavitySpec, CouplingEdge, DeviceSpec, Model
from cycqed.scenarios import locate_crossing
from cycqed.spectral import _solve_pair, diagonalize, dressed_pair, find_resonance, sweep_spectrum
from cycqed.symmetry import Sectors, build_sectors, identical_atoms


def dense(call, *args):
    """``call(*args)`` with no symmetry blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(device, "build_sectors", lambda *_: None)
        return call(*args)


def dense_energies(dev, path, values):
    model = Model(dev)
    return np.array([np.linalg.eigvalsh(model.at(path, x)) for x in values])


def assert_energies_match(energies, reference):
    assert np.abs(energies - reference).max() <= 1e-12 * np.abs(reference).max()


@st.composite
def class_devices(draw, class_levels=st.sampled_from((2, 3))):
    """A control atom beside a class of 2 or 3 identical atoms, all in one cavity.

    Atom 1's e level sits at the sum of the class atoms' e levels, where
    0,e,g(,g) meets 0,g,e(,e); both are invariant bare states. With
    two-level class atoms no path couples the two, and they cross exactly.
    """
    size = draw(st.integers(2, 3))
    class_levels, control_levels = draw(class_levels), draw(st.sampled_from((2, 3)))
    omega_t = draw(st.floats(0.45, 0.6))
    match = size * omega_t

    def edge(label, levels):
        names = ("g_ge", "g_gi", "g_ei")[: 1 if levels == 2 else 3]
        return CouplingEdge(label, "c", **{n: draw(st.floats(0.01, 0.03)) for n in names})

    control = AtomSpec(
        "1", match, match + draw(st.floats(0.4, 0.6)) if control_levels == 3 else None
    )
    twin_i = match + draw(st.floats(0.1, 0.3)) if class_levels == 3 else None
    twin_edge = edge("2", class_levels)
    labels = [str(k + 2) for k in range(size)]
    cavity = CavitySpec(
        "c",
        match + draw(st.sampled_from((-1, 1))) * draw(st.floats(0.2, 0.3)),
        n_max=draw(st.integers(2, 3)),
    )
    return DeviceSpec(
        (cavity,),
        (control,) + tuple(AtomSpec(label, omega_t, twin_i) for label in labels),
        (edge("1", control_levels),)
        + tuple(CouplingEdge(label, "c", twin_edge.g_ge, twin_edge.g_gi, twin_edge.g_ei)
                for label in labels),
        unit_omega0=True,
    )


class TestBlocksAgainstDense:
    @settings(deadline=None, max_examples=30)
    @given(class_devices(), st.sampled_from(("atoms.1.omega_e", "cavities.c.omega_c")))
    def test_block_sweep_matches_dense_eigvalsh(self, dev, path):
        model = Model(dev)
        assert len(model.sectors_for(path).sizes) > 1
        x0 = device.get_parameter(dev, path)
        values = np.linspace(x0 - 0.02, x0 + 0.02, 5)
        result = sweep_spectrum(dev, path, values)
        assert_energies_match(result.energies, dense_energies(dev, path, values))

    @settings(deadline=None, max_examples=30)
    @given(class_devices(), st.sampled_from(("atoms.2.omega_e", "edges.2.c.g_ge")))
    def test_class_path_falls_back_to_one_block(self, dev, path):
        assert Model(dev).sectors_for(path).sizes == (Model(dev).space.total_dim,)
        x0 = device.get_parameter(dev, path)
        values = np.linspace(0.9 * x0, 1.1 * x0, 4)
        blocks = sweep_spectrum(dev, path, values)
        reference = dense(sweep_spectrum, dev, path, values)
        assert blocks.energies.tobytes() == reference.energies.tobytes()

    @settings(deadline=None, max_examples=15)
    @given(class_devices(class_levels=st.just(3)))
    def test_find_resonance_matches_dense_search(self, dev):
        assert_search_matches_dense(dev)

    @settings(deadline=None, max_examples=15)
    @given(class_devices(class_levels=st.just(3)))
    def test_sparse_probes_match_dense_search(self, dev):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "PAIR_SPARSE_DIM", 0)
            assert_search_matches_dense(dev)


def assert_search_matches_dense(dev):
    path = "atoms.1.omega_e"
    match = dev.atoms[0].omega_e
    size = len(dev.atoms) - 1
    model = Model(dev)
    states = [
        device.parse_state_label(dev, model.space, label).index
        for label in ("0,e" + ",g" * size, "0,g" + ",e" * size)
    ]
    pair = dense(dressed_pair, dense(Model, dev), path, match, states)
    assert dressed_pair(model, path, match, states) == pair
    bracket = (match - 0.02, match + 0.02)

    def outcome(call, *args):
        try:
            return call(*args)
        except ValueError as exc:
            return str(exc)

    blocks = outcome(find_resonance, dev, path, bracket, pair)
    reference = outcome(dense, find_resonance, dev, path, bracket, pair)
    if isinstance(reference, str):
        assert blocks == reference
        return
    assert blocks.location == pytest.approx(reference.location, rel=1e-9)
    # at an exact crossing the gap is the search's own error, near 1e-11
    if max(blocks.gap, reference.gap) > 1e-8:
        assert blocks.gap == pytest.approx(reference.gap, rel=1e-6)


def kron_maps(sectors) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """(reduce, lift) assembled with ``sparse.kron``, ``vstack`` and ``hstack``."""
    reduce = [sparse.kron(c[0].T, c[0].T) for c in sectors.copies]
    lift = [sum(sparse.kron(w, w) for w in c) for c in sectors.copies]
    return sparse.vstack(reduce, format="csr"), sparse.hstack(lift, format="csr")


def assert_maps_match_kron(sectors):
    for got, reference in zip(sectors.vec_maps, kron_maps(sectors)):
        reference.sort_indices()
        assert got.has_canonical_format and got.shape == reference.shape
        assert got.indices.dtype == got.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(reference, name))


class TestVecMaps:
    """The direct CSR build of (reduce, lift) is the Kronecker assembly bit for bit."""

    @settings(deadline=None, max_examples=30)
    @given(class_devices())
    def test_random_classes(self, dev):
        assert_maps_match_kron(Model(dev).sectors)

    @pytest.mark.parametrize("make", [make_three_atom_device, make_four_atom_device])
    def test_shipped_devices(self, make):
        assert_maps_match_kron(Model(make()).sectors)

    def test_whole_space(self):
        assert_maps_match_kron(Sectors.whole(5))


class TestShippedDevices:
    @pytest.mark.parametrize(
        "make, sizes, copies",
        [
            (make_three_atom_device, (108, 54), (1, 1)),
            (make_four_atom_device, (180, 144, 18), (1, 2, 1)),
        ],
    )
    def test_sectors_are_an_orthonormal_basis(self, make, sizes, copies):
        model = Model(make())
        sectors = model.sectors
        assert sectors.sizes == sizes and sectors.multiplicities == copies
        basis = sparse.hstack([w for c in sectors.copies for w in c]).toarray()
        assert basis.shape == (model.space.total_dim,) * 2
        assert np.abs(basis.T @ basis - np.eye(basis.shape[0])).max() <= 1e-14

    @pytest.mark.parametrize("make", [make_three_atom_device, make_four_atom_device])
    def test_block_energies_match_full_eigvalsh(self, make):
        dev = make()
        x = dev.atoms[0].omega_e
        values = [x - 0.01, x, x + 0.01]
        result = sweep_spectrum(dev, "atoms.1.omega_e", values)
        assert_energies_match(result.energies, dense_energies(dev, "atoms.1.omega_e", values))

    def test_blocks_of_the_interaction_carry_no_diagonal(self):
        model = Model(make_four_atom_device())
        for h, reduced in zip(model.blocks("atoms.1.omega_e", 8.9), model.reduced):
            assert np.all(np.diag(reduced) == 0.0)
            off = ~np.eye(h.shape[0], dtype=bool)
            assert np.array_equal(h[off], reduced[off])

    @pytest.mark.parametrize("make", [make_three_atom_device, make_four_atom_device])
    def test_locate_crossing_matches_dense(self, make):
        dev = make()
        initial, final = "0,e" + ",g" * (len(dev.atoms) - 1), "0,g" + ",e" * (len(dev.atoms) - 1)
        blocks = locate_crossing(dev, initial, final)
        reference = dense(locate_crossing, dev, initial, final)
        assert blocks.levels == reference.levels
        assert blocks.location == pytest.approx(reference.location, rel=1e-12)
        assert blocks.gap == pytest.approx(reference.gap, rel=1e-9)
        # both branches lie in the trivial sector; bare states that the
        # permutations exchange carry equal weights, so only the weights compare
        for ours, theirs in zip(blocks.content_at, reference.content_at):
            assert list(ours.values()) == pytest.approx(list(theirs.values()), abs=1e-9)

    def test_root_iterations_solve_only_the_pair_block(self, monkeypatch):
        # after the scan fixes the bracket, Brent's probes solve the pair in the
        # 180 block alone, and one merge of all three blocks confirms the root
        dev = make_four_atom_device()
        reference = dense(locate_crossing, dev, "0,e,g,g,g", "0,g,e,e,e")
        calls, phase, solve, root = [], ["scan"], diagonalize, scipy.optimize.brentq
        sparse_pair = spectral._sparse_pair

        def counted(h, want_vectors=True, levels=None):
            calls.append((phase[0], h.shape[-1], levels is not None))
            return solve(h, want_vectors, levels)

        def counted_sparse(h, *args):
            calls.append((phase[0], h.shape[-1], True))
            return sparse_pair(h, *args)

        def brentq(*args, **kwargs):
            phase[0] = "root"
            location = root(*args, **kwargs)
            phase[0] = "confirm"
            return location

        monkeypatch.setattr(spectral, "diagonalize", counted)
        monkeypatch.setattr(spectral, "_sparse_pair", counted_sparse)
        monkeypatch.setattr(scipy.optimize, "brentq", brentq)
        report = locate_crossing(dev, "0,e,g,g,g", "0,g,e,e,e")
        assert report.location == pytest.approx(reference.location, rel=1e-12)
        probes = [(size, partial) for at, size, partial in calls if at == "root"]
        assert len(probes) >= 5 and set(probes) == {(180, True)}
        confirm = [(size, partial) for at, size, partial in calls if at == "confirm"]
        assert sorted(confirm) == [(18, False), (144, False), (180, False)]

    def test_exact_crossing_between_sectors(self):
        # levels 26 and 27 swap sectors inside the bracket, with no repulsion; the
        # block partial solves there can return their energies in either order
        dev = make_three_atom_device(n_max=2)
        args = ("cavities.c.omega_c", (5.25, 5.27), (26, 27))
        blocks = find_resonance(dev, *args)
        reference = dense(find_resonance, dev, *args)
        assert blocks.location == pytest.approx(reference.location, rel=1e-9)
        assert 0.0 <= blocks.gap <= 1e-8 and reference.gap <= 1e-8

    def test_no_class_is_one_block(self):
        dev = make_two_cavity_device(n_max=2)
        assert identical_atoms(dev) == () and build_sectors(dev, Model(dev).space) is None
        assert Model(dev).sectors.sizes == (Model(dev).space.total_dim,)


class TestPartialSolves:
    def test_equal_levels_give_one_level(self):
        h = Model(make_three_atom_device(n_max=2)).at("atoms.1.omega_e", 7.9)
        full, _ = np.linalg.eigh(h)
        energies, vectors = diagonalize(h, levels=(5, 5))
        assert energies.shape == (1,) and vectors.shape == (h.shape[0], 1)
        assert energies[0] == pytest.approx(full[5], abs=1e-12)
        values, none = diagonalize(h, want_vectors=False, levels=(5, 5))
        assert values.shape == (1,) and none is None

    def test_find_resonance_rejects_equal_levels(self):
        with pytest.raises(ValueError, match="levels must differ"):
            find_resonance(make_three_atom_device(n_max=2), "atoms.1.omega_e", (7.9, 8.0), (6, 6))

    def test_mixed_sector_levels_are_degenerate_pairs(self):
        model = Model(make_four_atom_device(n_max=2))
        result = sweep_spectrum(model.dev, "atoms.1.omega_e", [8.9])
        mixed = np.linalg.eigvalsh(model.blocks("atoms.1.omega_e", 8.9)[1])
        energies = result.energies[0]
        for e in mixed:
            assert np.count_nonzero(energies == e) >= 2

    def test_degenerate_copies_lift_to_orthogonal_eigenvectors(self):
        model = Model(make_four_atom_device(n_max=2))
        h = model.at("atoms.1.omega_e", 8.9)
        energies = np.linalg.eigvalsh(h)
        level = int(np.argmin(np.diff(energies)))  # a pair from the two-dimensional sector
        found, vectors, *_ = _solve_pair(
            model.blocks("atoms.1.omega_e", 8.9), model.sectors, (level, level + 1)
        )
        assert found == pytest.approx(energies[level : level + 2], abs=1e-12)
        assert abs(vectors[0] @ vectors[1]) <= 1e-12
        for e, v in zip(found, vectors):
            assert np.abs(h @ v - e * v).max() <= 1e-10

    def test_whole_is_the_identity(self):
        sectors = Sectors.whole(4)
        assert sectors.sizes == (4,) and sectors.multiplicities == (1,)
        assert not sectors.labels and sectors.invariant(np.arange(16.0).reshape(4, 4))
