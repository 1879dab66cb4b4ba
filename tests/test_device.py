"""Device validation, Hamiltonian assembly, and dispersive diagnostics."""

import contextlib
import io
import math
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycqed import cli, device, hilbert, symmetry
from cycqed.config import save_device
from cycqed.device import (
    TRANSITIONS,
    AtomSpec,
    CavitySpec,
    CouplingEdge,
    DeviceSpec,
    Model,
    bare_energy_vector,
    bare_state,
    build_interaction_rwa,
    build_space,
    get_parameter,
    parse_state_label,
    validate_dispersive,
    with_parameter,
)
from cycqed.dynamics import evolve
from cycqed.hilbert import embed, ladder, total_excitation_operator, transition_projector
from cycqed.spectral import find_resonance, sweep_spectrum

from conftest import make_crossing_sweep_device, make_three_atom_device, make_two_cavity_device

TWO_PI = 2 * math.pi


class TestSpecValidation:
    def test_atom_frequency_ordering(self):
        with pytest.raises(ValueError, match="omega_i"):
            AtomSpec("a", 5.0, 4.0)
        with pytest.raises(ValueError, match="positive"):
            AtomSpec("a", -1.0)

    def test_two_level_atom_rates(self):
        with pytest.raises(ValueError, match="two-level"):
            AtomSpec("a", 5.0, None, gamma_ei=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: AtomSpec("a", v), "omega_e"),
            (lambda v: AtomSpec("a", 5.0, v), "omega_i"),
            (lambda v: AtomSpec("a", 5.0, 7.0, gamma_ge=v), "gamma_ge"),
            (lambda v: AtomSpec("a", 5.0, 7.0, gamma_gi=v), "gamma_gi"),
            (lambda v: AtomSpec("a", 5.0, 7.0, gamma_ei=v), "gamma_ei"),
            (lambda v: CavitySpec("c", v), "omega_c"),
            (lambda v: CavitySpec("c", 6.0, kappa=v), "kappa"),
            (lambda v: CouplingEdge("a", "c", g_ge=v), "g_ge"),
            (lambda v: CouplingEdge("a", "c", g_gi=v), "g_gi"),
            (lambda v: CouplingEdge("a", "c", g_ei=v), "g_ei"),
        ],
    )
    def test_non_finite_values_rejected(self, build, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(bad)

    def test_cavity_truncation_floor(self):
        with pytest.raises(ValueError, match="n_max"):
            CavitySpec("c", 6.0, n_max=1)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DeviceSpec(
                cavities=(CavitySpec("x", 6.0),),
                atoms=(AtomSpec("x", 5.0),),
                edges=(CouplingEdge("x", "x", g_ge=1.0),),
            )

    def test_unknown_edge_reference(self):
        with pytest.raises(ValueError, match="unknown atom"):
            DeviceSpec(
                cavities=(CavitySpec("c", 6.0),),
                atoms=(AtomSpec("1", 5.0),),
                edges=(CouplingEdge("2", "c", g_ge=1.0),),
            )

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            DeviceSpec(
                cavities=(CavitySpec("c", 6.0),),
                atoms=(AtomSpec("1", 5.0),),
                edges=(CouplingEdge("1", "c", g_ge=1.0), CouplingEdge("1", "c", g_ge=2.0)),
            )

    def test_two_level_atom_cannot_couple_third_level(self):
        with pytest.raises(ValueError, match="two-level"):
            DeviceSpec(
                cavities=(CavitySpec("c", 6.0),),
                atoms=(AtomSpec("1", 5.0),),
                edges=(CouplingEdge("1", "c", g_ge=1.0, g_ei=1.0),),
            )

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            DeviceSpec(
                cavities=(CavitySpec("c", 6.0),),
                atoms=(AtomSpec("1", 5.0), AtomSpec("2", 5.0)),
                edges=(CouplingEdge("1", "c", g_ge=1.0),),
            )

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            CouplingEdge("1", "c", g_ge=-1.0)


class TestBareHamiltonian:
    def test_table_energies(self):
        dev = make_three_atom_device()
        sp = build_space(dev)
        h0 = np.diag(bare_energy_vector(dev, sp))
        excited = bare_state(dev, sp, (0,), ("e", "g", "g"))
        assert h0[excited.index, excited.index].real == pytest.approx(TWO_PI * 7.966)
        vacuum = bare_state(dev, sp, (0,), ("g", "g", "g"))
        assert h0[vacuum.index, vacuum.index] == 0
        photon = bare_state(dev, sp, (1,), ("g", "g", "g"))
        assert h0[photon.index, photon.index].real == pytest.approx(TWO_PI * 6.00)

    def test_diagonal_matches_state_energy(self):
        dev = make_two_cavity_device(n_max=2)
        sp = build_space(dev)
        h0 = np.diag(bare_energy_vector(dev, sp))
        np.testing.assert_array_equal(h0, np.diag(np.diag(h0)))
        st = bare_state(dev, sp, (1, 2), ("e", "i", "g"))
        assert h0[st.index, st.index].real == pytest.approx(st.energy)


class TestInteractionHamiltonian:
    def test_rwa_matrix_elements(self):
        dev = make_three_atom_device()
        sp = build_space(dev)
        hi = build_interaction_rwa(dev, sp)
        excited = bare_state(dev, sp, (0,), ("e", "g", "g"))
        photon = bare_state(dev, sp, (1,), ("g", "g", "g"))
        # photon creation against atomic lowering, 150 MHz on atom 1
        assert hi[photon.index, excited.index].real == pytest.approx(TWO_PI * 0.150)
        third = bare_state(dev, sp, (0,), ("g", "i", "g"))
        assert hi[third.index, photon.index].real == pytest.approx(TWO_PI * 0.150)
        assert np.max(np.abs(hi - hi.conj().T)) == 0

    def test_zero_coupling_gives_zero_matrix(self):
        dev = make_three_atom_device()
        for path in ("1", "2", "3"):
            for g in ("g_ge", "g_gi", "g_ei"):
                dev = with_parameter(dev, f"edges.{path}.c.{g}", 0.0)
        sp = build_space(dev)
        assert np.count_nonzero(build_interaction_rwa(dev, sp)) == 0

    def test_excitation_conservation_two_level_limit(self):
        dev = DeviceSpec(
            cavities=(CavitySpec("c", 6.0, n_max=3),),
            atoms=(AtomSpec("1", 5.0), AtomSpec("2", 4.5)),
            edges=(CouplingEdge("1", "c", g_ge=100.0), CouplingEdge("2", "c", g_ge=80.0)),
        )
        sp = build_space(dev)
        h = np.diag(bare_energy_vector(dev, sp)) + build_interaction_rwa(dev, sp)
        nt = total_excitation_operator(sp)
        np.testing.assert_allclose(h @ nt - nt @ h, 0, atol=1e-12)

    def test_excitation_not_conserved_with_cyclic_atom(self):
        dev = make_three_atom_device()
        sp = build_space(dev)
        h = np.diag(bare_energy_vector(dev, sp)) + build_interaction_rwa(dev, sp)
        nt = total_excitation_operator(sp)
        assert np.max(np.abs(h @ nt - nt @ h)) > 1.0


def kron_interaction(dev, space):
    """Reference rotating-wave interaction from Kronecker-embedded dense factors.

    Each edge adds a+ (sum_jk g_jk |j><k|) plus its transpose.
    """
    d = space.total_dim
    total = np.zeros((d, d))
    for edge in dev.edges:
        dim = space.subsystem(edge.atom).dimension
        cav_dim = space.subsystem(edge.cavity).dimension
        lower = sum(
            dev.rate_to_angular(edge.g(t)) * transition_projector(t[0], t[1], dim)
            for t in TRANSITIONS[: 1 if dim == 2 else 3]
        )
        photon = ladder("create", cav_dim)
        term = embed(photon, edge.cavity, space) @ embed(lower, edge.atom, space)
        total += term + term.T
    return total


@st.composite
def random_devices(draw):
    """1-3 two- or three-level atoms on 1-2 cavities with n_max 2-4.

    The first atom couples to every cavity, so the graph is connected;
    each other atom couples to a nonempty subset. Couplings may be zero.
    """
    n_cav = draw(st.integers(1, 2))
    cavities = tuple(
        CavitySpec(f"c{k}", draw(st.floats(1.0, 10.0)), n_max=draw(st.integers(2, 4)))
        for k in range(n_cav)
    )
    coupling = st.one_of(st.just(0.0), st.floats(1e-3, 300.0))
    atoms, edges = [], []
    for k in range(draw(st.integers(1, 3))):
        omega_e = draw(st.floats(1.0, 10.0))
        three = draw(st.booleans())
        omega_i = omega_e + draw(st.floats(0.1, 5.0)) if three else None
        atoms.append(AtomSpec(f"a{k}", omega_e, omega_i))
        targets = cavities if k == 0 else draw(
            st.lists(st.sampled_from(cavities), min_size=1, max_size=n_cav, unique=True)
        )
        for cav in targets:
            g = {"g_ge": draw(coupling)}
            if three:
                g.update(g_gi=draw(coupling), g_ei=draw(coupling))
            edges.append(CouplingEdge(f"a{k}", cav.label, **g))
    return DeviceSpec(cavities, tuple(atoms), tuple(edges), unit_omega0=draw(st.booleans()))


class TestIndexFormAgainstKron:
    @settings(deadline=None, max_examples=60)
    @given(random_devices())
    def test_matches_kron_reference(self, dev):
        sp = build_space(dev)
        h = build_interaction_rwa(dev, sp)
        assert h.dtype == np.float64
        np.testing.assert_array_equal(h, h.T)
        ref = kron_interaction(dev, sp)
        scale = max(float(np.abs(ref).max()), 1e-300)
        assert float(np.abs(h - ref).max()) <= 1e-14 * scale
        h0 = np.diag(bare_energy_vector(dev, sp))
        assert h0.dtype == np.float64


@st.composite
def model_points(draw):
    """A random device, one frequency or coupling path of it, and a new value.

    The value keeps the device valid: omega_e only falls and omega_i only
    rises, so omega_i stays above omega_e.
    """
    dev = draw(random_devices())
    paths = [f"cavities.{c.label}.omega_c" for c in dev.cavities]
    for atom in dev.atoms:
        paths.append(f"atoms.{atom.label}.omega_e")
        if atom.levels == 3:
            paths.append(f"atoms.{atom.label}.omega_i")
    for edge in dev.edges:
        names = TRANSITIONS if dev.atom(edge.atom).levels == 3 else TRANSITIONS[:1]
        paths += [f"edges.{edge.atom}.{edge.cavity}.g_{t}" for t in names]
    path = draw(st.sampled_from(paths))
    factor = draw(st.floats(0.5, 1.0))
    value = get_parameter(dev, path)
    if path.endswith("omega_e"):
        x = value * factor
    elif path.endswith("omega_i"):
        x = value / factor
    elif path.endswith("omega_c"):
        x = 2 * value * factor
    else:
        x = 300.0 * (1.0 - factor)
    return dev, path, x


@st.composite
def class_points(draw):
    """A device with a class of 2 or 3 identical atoms, one of its fields, and a new value.

    An optional control atom differs from the class in omega_e. The field is
    a frequency, a coupling or a rate, on a class atom, the control atom or
    the cavity; the value keeps the device valid.
    """
    n_max = draw(st.integers(2, 3))
    cavity = CavitySpec("c", draw(st.floats(1.0, 10.0)), kappa=draw(st.floats(0.0, 1.0)), n_max=n_max)
    omega_e = draw(st.floats(1.0, 10.0))
    three = draw(st.booleans())
    omega_i = omega_e + draw(st.floats(0.1, 5.0)) if three else None
    rates = {"gamma_ge": draw(st.floats(0.0, 1.0))}
    couplings = {"g_ge": draw(st.floats(1e-3, 300.0))}
    if three:
        rates.update(gamma_gi=draw(st.floats(0.0, 1.0)), gamma_ei=draw(st.floats(0.0, 1.0)))
        couplings.update(g_gi=draw(st.floats(1e-3, 300.0)), g_ei=draw(st.floats(1e-3, 300.0)))
    labels = [f"t{k}" for k in range(draw(st.integers(2, 3)))]
    atoms = [AtomSpec(label, omega_e, omega_i, **rates) for label in labels]
    edges = [CouplingEdge(label, "c", **couplings) for label in labels]
    if draw(st.booleans()):
        atoms.insert(0, AtomSpec("q", omega_e * draw(st.floats(0.5, 0.99)), omega_i, **rates))
        edges.insert(0, CouplingEdge("q", "c", **couplings))
    dev = DeviceSpec((cavity,), tuple(atoms), tuple(edges), unit_omega0=draw(st.booleans()))
    atom = draw(st.sampled_from(dev.atoms)).label
    paths = ["cavities.c.omega_c", "cavities.c.kappa", f"atoms.{atom}.omega_e"]
    paths += [f"atoms.{atom}.{name}" for name in rates]
    paths += [f"edges.{atom}.c.{name}" for name in couplings]
    if three:
        paths.append(f"atoms.{atom}.omega_i")
    path = draw(st.sampled_from(paths))
    factor = draw(st.floats(0.5, 1.0))
    value = get_parameter(dev, path)
    if path.endswith("omega_e"):
        x = value * factor
    elif path.endswith("omega_i"):
        x = value / factor
    elif path.endswith("omega_c"):
        x = 2 * value * factor
    else:
        x = 300.0 * (1.0 - factor)
    return dev, path, x


class TestModel:
    @settings(deadline=None, max_examples=100)
    @given(model_points())
    def test_at_matches_fresh_assembly_bit_for_bit(self, point):
        dev, path, x = point
        h = Model(dev).at(path, x)
        moved = with_parameter(dev, path, x)
        space = build_space(moved)
        ref = np.diag(bare_energy_vector(moved, space)) + build_interaction_rwa(moved, space)
        assert h.dtype == ref.dtype and h.shape == ref.shape
        assert h.tobytes() == ref.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(class_points())
    def test_blocks_match_fresh_assembly_bit_for_bit(self, point):
        dev, path, x = point
        model = Model(dev)
        sectors = model.sectors_for(path)
        moved = with_parameter(dev, path, x)
        space = build_space(moved)
        interaction = build_interaction_rwa(moved, space)
        if sectors.labels:
            energy = bare_energy_vector(moved, space)
            ref = sectors.project(interaction)
            for h, rows in zip(ref, sectors.anchors):
                np.fill_diagonal(h, energy[rows])
        else:
            ref = [np.diag(bare_energy_vector(moved, space)) + interaction]
        blocks = model.blocks(path, x)
        assert len(blocks) == len(ref)
        for h, r in zip(blocks, ref):
            assert h.dtype == r.dtype and h.shape == r.shape
            assert h.tobytes() == r.tobytes()

    def test_n_max_change_rejected(self):
        model = Model(make_three_atom_device())
        assert model.at("cavities.c.n_max", 5).shape == (162, 162)
        with pytest.raises(ValueError, match="dimension"):
            model.at("cavities.c.n_max", 4)


class TestValidateDispersive:
    def test_three_atom_ratios(self):
        report = validate_dispersive(make_three_atom_device())
        by_key = {(r.atom, r.transition): r for r in report}
        # atom 1 g-e against the cavity: 0.150/1.966
        assert by_key[("1", "ge")].ratio == pytest.approx(0.15 / 1.966, rel=1e-12)
        assert not any(r.flagged for r in report)

    def test_zero_coupling_zero_ratio(self):
        dev = DeviceSpec(
            cavities=(CavitySpec("c", 6.0),),
            atoms=(AtomSpec("1", 5.0),),
            edges=(CouplingEdge("1", "c", g_ge=0.0),),
        )
        (entry,) = validate_dispersive(dev)
        assert entry.ratio == 0.0 and not entry.flagged

    def test_exact_resonance_flagged_infinite(self):
        dev = DeviceSpec(
            cavities=(CavitySpec("c", 6.0),),
            atoms=(AtomSpec("1", 6.0),),
            edges=(CouplingEdge("1", "c", g_ge=10.0),),
        )
        (entry,) = validate_dispersive(dev)
        assert math.isinf(entry.ratio) and entry.flagged


class TestParameterPaths:
    def test_get_and_set(self):
        dev = make_three_atom_device()
        assert get_parameter(dev, "atoms.1.omega_e") == 7.966
        assert get_parameter(dev, "edges.2.c.g_ei") == 210.0
        nudged = with_parameter(dev, "atoms.1.omega_e", 8.0)
        assert get_parameter(nudged, "atoms.1.omega_e") == 8.0
        assert get_parameter(dev, "atoms.1.omega_e") == 7.966
        assert get_parameter(with_parameter(dev, "cavities.c.n_max", 7), "cavities.c.n_max") == 7
        assert get_parameter(with_parameter(dev, "cavities.c.n_max", 3.0), "cavities.c.n_max") == 3

    @pytest.mark.parametrize("value", [2.7, 3.5, math.nan])
    def test_non_integer_n_max_rejected(self, value):
        with pytest.raises(ValueError, match="n_max"):
            with_parameter(make_three_atom_device(), "cavities.c.n_max", value)

    def test_bad_paths(self):
        dev = make_three_atom_device()
        for path in ("atoms.9.omega_e", "atoms.1.bogus", "edges.1.x.g_ge", "omega_e", "a.b.c.d.e"):
            with pytest.raises(ValueError):
                get_parameter(dev, path)


class TestStateLabels:
    def test_parse_round_trip(self):
        dev = make_two_cavity_device()
        sp = build_space(dev)
        st = parse_state_label(dev, sp, "0,0,e,g,g")
        assert st.fock == (0, 0) and st.levels == ("e", "g", "g")
        assert sp.basis_label(st.index) == "0,0,e,g,g"

    def test_parse_errors(self):
        dev = make_three_atom_device()
        sp = build_space(dev)
        for text in ("0,e,g", "x,e,g,g", "0,e,g,q", "9,e,g,g"):
            with pytest.raises(ValueError):
                parse_state_label(dev, sp, text)

    def test_two_level_atom_rejects_third_level(self):
        dev = make_two_cavity_device()
        sp = build_space(dev)
        with pytest.raises(ValueError):
            parse_state_label(dev, sp, "0,0,i,g,g")


def count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` at every name a cycqed module binds it to; returns the list of its calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cycqed" or name.startswith("cycqed."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestModelReuse:
    """One assembled model per sweep and per evolve: nothing is rebuilt per point."""

    @pytest.mark.parametrize("make", [make_three_atom_device, make_two_cavity_device])
    def test_frequency_sweep_rebuilds_no_device(self, make, monkeypatch):
        dev = make(n_max=2)
        moved = count_calls(monkeypatch, device.with_parameter)
        energies = count_calls(monkeypatch, device.bare_energy_vector)
        values = np.linspace(7.9, 8.0, 21)
        result = sweep_spectrum(dev, "atoms.1.omega_e", values)
        assert result.energies.shape[0] == 21
        assert len(moved) <= 2 and len(energies) <= 2

    def test_evolve_builds_space_and_sectors_once(self, monkeypatch):
        dev = make_three_atom_device(n_max=2)
        initial = bare_state(dev, build_space(dev), (0,), ("e", "g", "g"))
        spaces = count_calls(monkeypatch, hilbert.build_space)
        sectors = count_calls(monkeypatch, symmetry.build_sectors)
        traj = evolve(dev, initial, 4.0, samples=5, validate=True)
        assert traj.sectors == (54, 27)
        assert len(spaces) == 1 and len(sectors) == 1

    def test_class_atom_sweep_builds_one_whole_block(self, monkeypatch):
        dims = []
        whole = symmetry.Sectors.whole

        def counted(dim):
            dims.append(dim)
            return whole(dim)

        monkeypatch.setattr(symmetry.Sectors, "whole", staticmethod(counted))
        dev = make_three_atom_device(n_max=2)
        result = sweep_spectrum(dev, "atoms.2.omega_e", np.linspace(3.9, 4.1, 21))
        assert result.energies.shape == (21, 81)
        assert dims == [81]


def two_level_device() -> DeviceSpec:
    return DeviceSpec(
        cavities=(CavitySpec("c", 6.0, n_max=3),),
        atoms=(AtomSpec("1", 5.0),),
        edges=(CouplingEdge("1", "c", g_ge=50.0),),
    )


@st.composite
def level_changes(draw):
    """A random device, and a path and value that change one subsystem's number of levels.

    The value is valid for the spec on its own: an omega_i above omega_e on a
    two-level atom, or another n_max of at least 2.
    """
    dev = draw(random_devices())
    changes = [
        (f"atoms.{atom.label}.omega_i", atom.omega_e + draw(st.floats(0.1, 5.0)))
        for atom in dev.atoms
        if atom.levels == 2
    ]
    for cav in dev.cavities:
        n_max = draw(st.integers(2, 5).filter(lambda n, now=cav.n_max: n != now))
        changes.append((f"cavities.{cav.label}.n_max", n_max))
    return (dev, *draw(st.sampled_from(changes)))


class TestLevelChangeRefused:
    """A value that changes a subsystem's number of levels is refused, as a new n_max is."""

    @settings(max_examples=50, deadline=None)
    @given(level_changes())
    def test_every_level_change_is_refused(self, case):
        dev, path, x = case
        model = Model(dev)
        for call in (
            lambda: model.at(path, x),
            lambda: model.blocks(path, x),
            lambda: sweep_spectrum(dev, path, [x]),
            lambda: find_resonance(dev, path, (x, x + 1), (0, 1)),
        ):
            with pytest.raises(ValueError, match="changes the space dimension"):
                call()
        with tempfile.TemporaryDirectory() as root:
            save_device(dev, f"{root}/device.json")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(
                    ["spectrum", "--device", f"{root}/device.json", "--sweep", path,
                     f"--range={x}:{x + 1}:2", "--outdir", root]
                )
        lines = err.getvalue().splitlines()
        assert code == 2 and out.getvalue() == ""
        # dispersive-regime warnings may come first; the refusal is the one error line
        assert [line for line in lines if not line.startswith("warning: ")] == lines[-1:]
        assert lines[-1].startswith("error: ")

    def test_omega_i_on_a_two_level_atom(self):
        dev = two_level_device()
        model = Model(dev)
        with pytest.raises(ValueError, match="changes the space dimension"):
            model.at("atoms.1.omega_i", 9.0)
        with pytest.raises(ValueError, match="changes the space dimension"):
            model.blocks("atoms.1.omega_i", 9.0)
        with pytest.raises(ValueError, match="changes the space dimension"):
            sweep_spectrum(dev, "atoms.1.omega_i", [8.0, 9.0])
        with pytest.raises(ValueError, match="changes the space dimension"):
            find_resonance(dev, "atoms.1.omega_i", (8.0, 9.0), (1, 2))

    @pytest.mark.parametrize(
        "path, x", [("atoms.1.omega_i", None), ("cavities.c.n_max", 3), ("cavities.c.n_max", 2.5)]
    )
    def test_other_level_changes(self, path, x):
        # qutrits without gi or ei rates, so a cleared omega_i is a valid atom
        model = Model(make_crossing_sweep_device(n_max=2))
        with pytest.raises(ValueError, match="changes the space dimension"):
            model.at(path, x)

    def test_unchanged_n_max_is_the_device(self):
        model = Model(make_three_atom_device(n_max=2))
        assert model.at("cavities.c.n_max", 2).tobytes() == model.at().tobytes()
