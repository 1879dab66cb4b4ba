"""Diagonalization, sweeps, and avoided-crossing detection.

The dimensionless three-qutrit device has an avoided crossing between
sorted levels 6 and 7 near omega_e1 = 1.05. Oracle values below were frozen
from a converged run of this module and sit inside the published tolerances
(gap 1.8e-4 within 15%, flat branch at 1.05 within 0.5%, far slopes 0 and 1
within 2%). The low end of the sweep range hosts a second hybridization
(with the 0,g,g,i state at bare energy 1.0), so the slope-1 branch is fit
on the high side only.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cycqed.device import (
    AtomSpec,
    CavitySpec,
    CouplingEdge,
    DeviceSpec,
    Model,
    bare_energy_vector,
    build_interaction_rwa,
    build_space,
    parse_state_label,
    with_parameter,
)
from cycqed import spectral
from cycqed.perturbation import matched_control_frequency
from cycqed.scenarios import CROSSING_HALFWIDTH, load_scenario
from cycqed.spectral import (
    COARSE_POINTS,
    CrossingReport,
    diagonalize,
    dressed_pair,
    find_resonance,
    sweep_spectrum,
)

from conftest import make_crossing_sweep_device

# Frozen from a converged run (regression anchors, not published values).
CROSSING_LOCATION = 1.045092
CROSSING_GAP = 1.6113e-4
RISING_SLOPE_HIGH = 0.99639
FLAT_BRANCH_VALUE = 1.046494


def zero_coupling(dev: DeviceSpec) -> DeviceSpec:
    for edge in dev.edges:
        for g in ("g_ge", "g_gi", "g_ei"):
            dev = with_parameter(dev, f"edges.{edge.atom}.{edge.cavity}.{g}", 0.0)
    return dev


class TestDiagonalize:
    def test_diagonal_hamiltonian(self):
        dev = make_crossing_sweep_device()
        space = build_space(dev)
        h0 = np.diag(bare_energy_vector(dev, space))
        evals, vecs = diagonalize(h0)
        np.testing.assert_allclose(np.sort(np.diag(h0)), evals, atol=1e-12)
        assert vecs.shape == (space.total_dim, space.total_dim)

    def test_two_by_two_splitting(self):
        dev = DeviceSpec(
            cavities=(CavitySpec("c", 1.0, n_max=2),),
            atoms=(AtomSpec("a", 1.0),),
            edges=(CouplingEdge("a", "c", g_ge=0.5),),
            unit_omega0=True,
        )
        space = build_space(dev)
        mat = np.zeros((space.total_dim, space.total_dim))
        i1 = space.index_of((0, 1))
        i2 = space.index_of((1, 0))
        g = 0.5
        mat[i1, i2] = mat[i2, i1] = g
        evals, _ = diagonalize(mat)
        nonzero = evals[np.abs(evals) > 1e-12]
        np.testing.assert_allclose(np.sort(nonzero), [-g, g], atol=1e-12)

    def test_rejects_non_hermitian(self):
        dev = make_crossing_sweep_device()
        space = build_space(dev)
        mat = np.zeros((space.total_dim, space.total_dim))
        mat[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize(mat)
        with pytest.raises(TypeError, match="real"):
            diagonalize(np.eye(space.total_dim, dtype=complex))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            diagonalize(np.zeros((4, 3)))

    def test_hermiticity_residual(self):
        evals, _ = diagonalize(np.eye(4))
        np.testing.assert_array_equal(evals, np.ones(4))
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize(bad)

    def test_phase_fixing(self):
        dev = make_crossing_sweep_device()
        space = build_space(dev)
        h0 = np.diag(bare_energy_vector(dev, space))
        _, vecs = diagonalize(h0)
        assert vecs.dtype == np.float64
        for k in range(vecs.shape[1]):
            lead = vecs[np.argmax(np.abs(vecs[:, k])), k]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0


class TestSweep:
    def test_levels_track_sorted_order(self):
        dev = make_crossing_sweep_device()
        values = np.linspace(1.00, 1.10, 21)
        res = sweep_spectrum(dev, "atoms.1.omega_e", values, levels=(6, 7))
        sel = res.selected_energies()
        assert np.all(np.diff(res.energies, axis=1) >= -1e-12)
        assert np.all(sel[:, 1] >= sel[:, 0])

    def test_zero_coupling_exact_crossing(self):
        dev = zero_coupling(make_crossing_sweep_device())
        values = np.linspace(1.00, 1.10, 41)
        res = sweep_spectrum(dev, "atoms.1.omega_e", values, levels=(6, 7))
        gaps = res.selected_energies()[:, 1] - res.selected_energies()[:, 0]
        assert gaps.min() == pytest.approx(0.0, abs=1e-12)
        # bare degeneracy sits exactly at omega_e2 + omega_e3
        assert values[np.argmin(gaps)] == pytest.approx(1.05, abs=1e-9)

    def test_empty_values_rejected(self):
        dev = make_crossing_sweep_device()
        with pytest.raises(ValueError, match="at least one"):
            sweep_spectrum(dev, "atoms.1.omega_e", [], levels=(6, 7))

    def test_bad_parameter_path(self):
        dev = make_crossing_sweep_device()
        with pytest.raises(ValueError):
            sweep_spectrum(dev, "atoms.1.nope", [1.0], levels=())

    def test_level_out_of_range(self):
        dev = make_crossing_sweep_device()
        with pytest.raises(ValueError, match="out of range"):
            sweep_spectrum(dev, "atoms.1.omega_e", [1.0], levels=(500,))


class TestFindResonance:
    def test_crossing_location_and_gap(self):
        rep = find_resonance(
            make_crossing_sweep_device(), "atoms.1.omega_e", (1.00, 1.10), (6, 7)
        )
        assert rep.location == pytest.approx(CROSSING_LOCATION, abs=5e-5)
        assert rep.gap == pytest.approx(CROSSING_GAP, rel=3e-3)
        # dispersive shifts move the crossing a few parts in a thousand
        assert abs(rep.location - 1.05) < 6e-3

    def test_hybridization_weights(self):
        rep = find_resonance(
            make_crossing_sweep_device(), "atoms.1.omega_e", (1.00, 1.10), (6, 7)
        )
        for content in rep.content_at:
            assert content["0,e,g,g"] == pytest.approx(0.5, abs=0.05)
            assert content["0,g,e,e"] == pytest.approx(0.5, abs=0.05)
        # far above the crossing the branches are nearly pure bare states
        lower, upper = rep.content_above
        assert lower["0,g,e,e"] > 0.9
        assert upper["0,e,g,g"] > 0.9

    def test_zero_coupling_gap_vanishes_at_matching(self):
        rep = find_resonance(
            zero_coupling(make_crossing_sweep_device()), "atoms.1.omega_e", (1.00, 1.10), (6, 7)
        )
        assert rep.gap == pytest.approx(0.0, abs=1e-10)
        assert rep.location == pytest.approx(1.05, abs=1e-4)

    def test_no_interior_minimum(self):
        with pytest.raises(ValueError, match="interior"):
            find_resonance(
                make_crossing_sweep_device(), "atoms.1.omega_e", (1.06, 1.10), (6, 7)
            )

    @pytest.mark.parametrize("levels", [(6, 999), (6, 162), (-1, 7)])
    def test_level_out_of_range_rejected_before_scan(self, levels, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("diagonalized before checking the levels")

        monkeypatch.setattr("cycqed.spectral.diagonalize", no_scan)
        with pytest.raises(ValueError, match="out of range for dimension 162"):
            find_resonance(make_crossing_sweep_device(), "atoms.1.omega_e", (1.02, 1.07), levels)


def golden_reference(dev, parameter, bracket, levels):
    """(location, gap) by a golden-section search on full spectra.

    The same coarse scan as find_resonance, then scipy's golden section to
    relative tolerance 1e-6 on the gap from eigvalsh of a freshly assembled
    H; None when the scan has no interior minimum.
    """
    from scipy.optimize import golden

    l1, l2 = levels

    def gap_at(x):
        point = with_parameter(dev, parameter, x)
        space = build_space(point)
        h = np.diag(bare_energy_vector(point, space)) + build_interaction_rwa(point, space)
        evals = np.linalg.eigvalsh(h)
        return float(evals[l2] - evals[l1])

    grid = np.linspace(*bracket, COARSE_POINTS)
    k = int(np.argmin([gap_at(x) for x in grid]))
    if k in (0, COARSE_POINTS - 1):
        return None
    location = float(golden(gap_at, brack=(grid[k - 1], grid[k], grid[k + 1]), tol=1e-6))
    return location, gap_at(location)


@st.composite
def crossing_devices(draw):
    """A 2- or 3-qutrit device, its exchange pair, and a bracket around the crossing.

    Atom 1's e level is swept through the sum of the other atoms' e levels,
    where 0,e,g(,g) meets 0,g,e(,e). The i levels and the cavity sit at
    least 0.1 away from that energy, so no third level enters the window.
    """
    n_atoms = draw(st.integers(2, 3))
    targets = [draw(st.floats(0.45, 0.6)) for _ in range(n_atoms - 1)]
    match = sum(targets)
    atoms = [AtomSpec("1", match, match + draw(st.floats(0.4, 0.6)))]
    for k, omega_e in enumerate(targets):
        atoms.append(AtomSpec(str(k + 2), omega_e, match + draw(st.floats(0.1, 0.3))))
    edges = [
        CouplingEdge(
            a.label, "c", g_ge=draw(st.floats(0.01, 0.03)), g_gi=draw(st.floats(0.01, 0.03)),
            g_ei=draw(st.floats(0.01, 0.03)),
        )
        for a in atoms
    ]
    cavity = CavitySpec("c", match + draw(st.sampled_from((-1, 1))) * draw(st.floats(0.2, 0.3)),
                        n_max=3)
    dev = DeviceSpec((cavity,), tuple(atoms), tuple(edges), unit_omega0=True)
    space = build_space(dev)
    initial = parse_state_label(dev, space, "0,e" + ",g" * (n_atoms - 1)).index
    final = parse_state_label(dev, space, "0,g" + ",e" * (n_atoms - 1)).index
    h = np.diag(bare_energy_vector(dev, space)) + build_interaction_rwa(dev, space)
    _, vecs = np.linalg.eigh(h)
    weight = vecs[initial] ** 2 + vecs[final] ** 2
    levels = tuple(sorted(int(k) for k in np.argsort(weight)[-2:]))
    return dev, levels, (match - 0.02, match + 0.02)


def assert_matches_golden(case):
    dev, levels, bracket = case
    ref = golden_reference(dev, "atoms.1.omega_e", bracket, levels)
    if ref is None:
        reject()
    rep = find_resonance(dev, "atoms.1.omega_e", bracket, levels)
    assert rep.location == pytest.approx(ref[0], rel=1e-6)
    assert rep.gap <= ref[1] * (1 + 1e-9)


class TestRootSearchAgainstGolden:
    @settings(deadline=None, max_examples=25)
    @given(crossing_devices())
    def test_location_and_gap_match_golden_section(self, case):
        assert_matches_golden(case)

    @settings(deadline=None, max_examples=25)
    @given(crossing_devices())
    def test_sparse_probes_match_golden_section(self, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "PAIR_SPARSE_DIM", 0)
            assert_matches_golden(case)

    def test_third_level_crossing_inside_the_scan_bracket(self):
        # level 4 crosses level 3 just above the gap minimum of levels 2 and 3, so the
        # slope difference has the same sign at both neighbours of the coarse minimum
        dev = DeviceSpec(
            (CavitySpec("c", 0.23828125, n_max=3),),
            (AtomSpec("1", 0.46875, 0.96875), AtomSpec("2", 0.46875, 0.71875)),
            (
                CouplingEdge("1", "c", g_ge=0.015625, g_gi=0.015625, g_ei=0.015625),
                CouplingEdge("2", "c", g_ge=0.01171875, g_gi=0.015625, g_ei=0.015625),
            ),
            unit_omega0=True,
        )
        bracket = (0.44875, 0.48875)
        ref = golden_reference(dev, "atoms.1.omega_e", bracket, (2, 3))
        rep = find_resonance(dev, "atoms.1.omega_e", bracket, (2, 3))
        assert rep.location == pytest.approx(ref[0], rel=1e-6)
        assert rep.gap <= ref[1] * (1 + 1e-9)

    def test_solve_count_after_the_scan(self, monkeypatch):
        # a golden-section search on full spectra needs about 40 solves here
        calls = []
        solve = diagonalize

        def counted(*args, **kwargs):
            calls.append(kwargs.get("levels"))
            return solve(*args, **kwargs)

        monkeypatch.setattr("cycqed.spectral.diagonalize", counted)
        rep = find_resonance(
            make_crossing_sweep_device(), "atoms.1.omega_e", (1.02, 1.07), (6, 7)
        )
        assert rep.location == pytest.approx(CROSSING_LOCATION, abs=5e-5)
        assert len(calls) <= COARSE_POINTS + 12
        assert set(calls) == {(6, 7)}


class TestSparsePairs:
    """Shift-invert pair solves against the dense partial solve they replace."""

    @pytest.fixture(scope="class")
    def two_cavity(self):
        """The shipped d = 432 device, its pair, bracket, sectors and the search's slope blocks."""
        scenario = load_scenario("three_atom_two_cavity")
        dev, plan = scenario.device, scenario.plan
        model = Model(dev)
        path = f"atoms.{dev.atoms[0].label}.omega_e"
        matched = matched_control_frequency(dev)
        states = [parse_state_label(dev, model.space, s).index for s in (plan.initial, plan.final)]
        pair = dressed_pair(model, path, matched, states)
        lo, hi = matched - CROSSING_HALFWIDTH, matched + CROSSING_HALFWIDTH
        ends = model.blocks(path, lo), model.blocks(path, hi)
        ops = [(b - a) / (hi - lo) for a, b in zip(*ends)]
        return model, path, pair, (lo, hi), ops, [spectral._pattern(ends[0][0], ends[1][0])]

    def test_pair_matches_dense_across_the_bracket(self, two_cavity):
        model, path, pair, (lo, hi), ops, patterns = two_cavity
        sectors = model.sectors_for(path)
        assert sectors.sizes == (432,) and spectral.PAIR_SPARSE_DIM <= 432
        step = (hi - lo) / (spectral.COARSE_POINTS - 1)
        for x in np.linspace(lo + step, hi, 7):
            # the shift is the pair midpoint one scan step back, as in the search
            previous = diagonalize(model.blocks(path, x - step)[0], False, levels=pair)[0]
            sigma = 0.5 * (previous[0] + previous[1])
            blocks = model.blocks(path, x)
            assert spectral._sparse_pair(blocks[0], patterns[0], pair[0], sigma) is not None
            found, vectors, slopes, _ = spectral._solve_pair(
                blocks, sectors, pair, slope_ops=ops, patterns=patterns, sigma=sigma
            )
            energies, reference, reference_slopes, _ = spectral._solve_pair(
                blocks, sectors, pair, slope_ops=ops
            )
            assert np.abs(found - energies).max() <= 1e-12 * np.abs(energies).max()
            for v, w in zip(vectors, reference):
                assert abs(v @ w) >= 1 - 1e-10
            assert slopes == pytest.approx(reference_slopes, abs=1e-9)

    def test_failed_certificate_returns_the_dense_pair(self, two_cavity):
        model, path, pair, (lo, hi), ops, patterns = two_cavity
        sectors = model.sectors_for(path)
        blocks = model.blocks(path, 0.5 * (lo + hi))
        full = np.linalg.eigvalsh(blocks[0])
        dense_pair = spectral._solve_pair(blocks, sectors, pair, slope_ops=ops)
        for sigma in (
            full[pair[0]],  # on an eigenvalue
            0.5 * (full[pair[0] + 5] + full[pair[0] + 6]),  # the pair outside the window
        ):
            assert spectral._sparse_pair(blocks[0], patterns[0], pair[0], sigma) is None
            found = spectral._solve_pair(
                blocks, sectors, pair, slope_ops=ops, patterns=patterns, sigma=sigma
            )
            for got, want in zip(found[:3], dense_pair[:3]):
                assert np.array_equal(np.asarray(got), np.asarray(want))

    def test_failed_root_confirmation_reruns_the_dense_search(self, monkeypatch):
        dev = make_crossing_sweep_device()
        args = (dev, "atoms.1.omega_e", (1.02, 1.07), (6, 7))
        reference = find_resonance(*args)  # d = 162 stays below the crossover: dense
        monkeypatch.setattr(spectral, "PAIR_SPARSE_DIM", 0)
        roots, solve, root = [], spectral._solve_pair, scipy.optimize.brentq

        def brentq(*a, **kw):
            roots.append("start")
            location = root(*a, **kw)
            roots.append("end")
            return location

        def disagreeing(*a, **kw):
            found = solve(*a, **kw)
            if roots[-1:] == ["end"]:  # the confirmation at the root
                roots.append("confirmed")
                return (found[0] + 1.0, *found[1:])
            return found

        monkeypatch.setattr(scipy.optimize, "brentq", brentq)
        monkeypatch.setattr(spectral, "_solve_pair", disagreeing)
        rep = find_resonance(*args)
        assert roots == ["start", "end", "confirmed", "start", "end"]
        assert (rep.location, rep.gap) == (reference.location, reference.gap)
        assert rep.content_at == reference.content_at


class TestBranchShape:
    def test_far_detuned_slopes_and_flat_value(self):
        dev = make_crossing_sweep_device()
        values = np.linspace(1.00, 1.10, 201)
        sel = sweep_spectrum(dev, "atoms.1.omega_e", values, levels=(6, 7)).selected_energies()
        high = slice(-15, None)
        rising = np.polyfit(values[high], sel[high, 1], 1)[0]
        flat_high = np.polyfit(values[high], sel[high, 0], 1)[0]
        flat_low = np.polyfit(values[:15], sel[:15, 1], 1)[0]
        assert rising == pytest.approx(RISING_SLOPE_HIGH, abs=2e-4)
        assert abs(rising - 1.0) < 0.02
        assert abs(flat_high) < 0.005 and abs(flat_low) < 0.005
        # flat branch sits at omega_e2 + omega_e3 up to dispersive shifts
        assert sel[-1, 0] == pytest.approx(FLAT_BRANCH_VALUE, abs=1e-4)
        assert abs(sel[-1, 0] - 1.05) / 1.05 < 0.005


class TestCrossingReportInvariants:
    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            CrossingReport("p", (0, 1), 1.0, -1.0, ({}, {}), ({}, {}), ({}, {}))

    def test_overweight_content_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            CrossingReport("p", (0, 1), 1.0, 0.0, ({"x": 1.2}, {}), ({}, {}), ({}, {}))
