"""Path sums, closed-form couplings, and second-order shifts.

Numeric anchors were computed once from the frozen benchmark devices in
conftest and cross-checked against independent hand evaluation of the
closed forms; they guard against regressions in the enumeration engine.
"""

import numpy as np
import pytest

from cycqed.device import (
    AtomSpec,
    CavitySpec,
    CouplingEdge,
    DeviceSpec,
    bare_energy_vector,
    bare_state,
    build_interaction_rwa,
    build_space,
    with_parameter,
)
from cycqed.perturbation import (
    PerturbationError,
    closed_form_chi,
    effective_coupling,
    enumerate_paths,
    matched_control_frequency,
    second_order_shifts,
)
from cycqed.spectral import diagonalize, find_resonance

from conftest import (
    make_crossing_sweep_device,
    make_four_atom_device,
    make_three_atom_device,
    make_two_cavity_device,
)

# Frozen anchors, |coupling|/2pi in MHz and exchange periods in ns
CHI3_ONE_CAVITY_MHZ = -0.7606812102603228
CHI3_TWO_CAVITY_MHZ = -0.5738047263411481
CHI4_ONE_CAVITY_MHZ = -0.2379687521536060
PERIOD3_NS = 657.3055746
PERIOD2C_NS = 871.3765800
PERIOD4_NS = 2101.1161990
MATCHED3 = 7.966055767147621
MATCHED2C = 7.9446388082856565
MATCHED4 = 8.966578326464209


def exchange_states(dev):
    """Initial |0...,e,g,...⟩ and final |0...,g,e,...⟩ for a device."""
    space = build_space(dev)
    zeros = (0,) * len(dev.cavities)
    n = len(dev.atoms)
    initial = bare_state(dev, space, zeros, ("e",) + ("g",) * (n - 1))
    final = bare_state(dev, space, zeros, ("g",) + ("e",) * (n - 1))
    return initial, final


def full_hamiltonian(dev, space):
    return np.diag(bare_energy_vector(dev, space)) + build_interaction_rwa(dev, space)


class TestPathEnumeration:
    def test_three_atom_paths(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=4)
        assert len(ec.paths) == 2
        first = [s.label() for s in ec.paths[0].states]
        second = [s.label() for s in ec.paths[1].states]
        assert first == ["0,e,g,g", "1,g,g,g", "0,g,g,i", "1,g,g,e", "0,g,e,e"]
        assert second == ["0,e,g,g", "1,g,g,g", "0,g,i,g", "1,g,e,g", "0,g,e,e"]

    def test_three_atom_denominators(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=4)
        for path in ec.paths:
            denoms = [dev.angular_to_freq(d) for d in path.denominators]
            np.testing.assert_allclose(denoms, [1.966, 0.466, -2.034], rtol=1e-12)
            elements = [dev.angular_to_rate(e.real) for e in path.elements]
            np.testing.assert_allclose(elements, [150.0, 150.0, 210.0, 150.0], rtol=1e-12)

    def test_identical_spectators_give_equal_contributions(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=4)
        contribs = [p.contribution for p in ec.paths]
        assert contribs[0] == pytest.approx(contribs[1], rel=1e-12)

    def test_spectator_factorial_path_count(self):
        dev3 = make_three_atom_device()
        dev4 = make_four_atom_device()
        for dev, expected in ((dev3, 2), (dev4, 6)):
            i, f = exchange_states(dev)
            order = 2 * (len(dev.atoms) - 1)
            ec = effective_coupling(dev, i, f, order=order)
            assert len(ec.paths) == expected

    def test_two_cavity_single_path(self):
        dev = make_two_cavity_device()
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=4)
        assert len(ec.paths) == 1
        labels = [s.label() for s in ec.paths[0].states]
        assert labels == ["0,0,e,g,g", "1,0,g,g,g", "0,0,g,i,g", "0,1,g,e,g", "0,0,g,e,e"]

    def test_truncation_independent(self):
        base = make_three_atom_device()
        i, f = exchange_states(base)
        lam5 = effective_coupling(base, i, f, order=4).lambda_eff
        small = make_three_atom_device(n_max=3)
        i3, f3 = exchange_states(small)
        lam3 = effective_coupling(small, i3, f3, order=4).lambda_eff
        assert lam3.real == pytest.approx(lam5.real, rel=1e-14)

    def test_non_degenerate_pair_rejected(self):
        dev = make_three_atom_device()
        space = build_space(dev)
        i = bare_state(dev, space, (0,), ("e", "g", "g"))
        f = bare_state(dev, space, (0,), ("g", "e", "g"))
        with pytest.raises(PerturbationError, match="not degenerate"):
            effective_coupling(dev, i, f, order=4)

    def test_floor_violation_diagnostics(self):
        # park the third atom's upper level right on the initial energy so
        # the branch through it hits a vanishing denominator
        dev = with_parameter(make_crossing_sweep_device(), "atoms.3.omega_i", 1.05)
        i, f = exchange_states(dev)
        with pytest.raises(PerturbationError, match="degeneracy floor"):
            effective_coupling(dev, i, f, order=4)
        ec = effective_coupling(dev, i, f, order=4, strict=False)
        assert len(ec.paths) == 1
        space = build_space(dev)
        energies = bare_energy_vector(dev, space)
        hi = build_interaction_rwa(dev, space)
        found = enumerate_paths(space, energies, hi, i, f, order=4)
        assert found.rejected
        assert all(r.offender.label() == "0,g,g,i" for r in found.rejected)
        assert all(abs(r.denominator) < 1e-6 for r in found.rejected)

    def test_identical_endpoints_rejected(self):
        dev = make_three_atom_device()
        i, _ = exchange_states(dev)
        space = build_space(dev)
        energies = bare_energy_vector(dev, space)
        hi = build_interaction_rwa(dev, space)
        with pytest.raises(PerturbationError, match="both 0,e,g,g"):
            enumerate_paths(space, energies, hi, i, i, order=4)
        with pytest.raises(PerturbationError, match="both 0,e,g,g"):
            effective_coupling(dev, i, i, order=4)

    def test_order_below_two_rejected(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        with pytest.raises(PerturbationError, match="order"):
            effective_coupling(dev, i, f, order=1)


class TestEffectiveCoupling:
    def test_three_atom_value(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=4)
        assert ec.lambda_eff.imag == 0.0
        assert dev.angular_to_rate(ec.lambda_eff.real) == pytest.approx(
            CHI3_ONE_CAVITY_MHZ, rel=1e-12
        )
        assert ec.period == pytest.approx(PERIOD3_NS, rel=1e-9)

    def test_two_cavity_value(self):
        dev = make_two_cavity_device()
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=4)
        assert dev.angular_to_rate(ec.lambda_eff.real) == pytest.approx(
            CHI3_TWO_CAVITY_MHZ, rel=1e-12
        )
        assert ec.period == pytest.approx(PERIOD2C_NS, rel=1e-9)

    def test_four_atom_value(self):
        dev = make_four_atom_device()
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=6)
        assert dev.angular_to_rate(ec.lambda_eff.real) == pytest.approx(
            CHI4_ONE_CAVITY_MHZ, rel=1e-12
        )
        assert ec.period == pytest.approx(PERIOD4_NS, rel=1e-9)

    def test_spectator_declaration_order_irrelevant(self):
        base = make_crossing_sweep_device()
        i, f = exchange_states(base)
        lam = effective_coupling(base, i, f, order=4).lambda_eff
        swapped = DeviceSpec(
            cavities=base.cavities,
            atoms=(base.atoms[0], base.atoms[2], base.atoms[1]),
            edges=(base.edges[0], base.edges[2], base.edges[1]),
            unit_omega0=True,
        )
        i2, f2 = exchange_states(swapped)
        lam2 = effective_coupling(swapped, i2, f2, order=4).lambda_eff
        assert lam2.real == pytest.approx(lam.real, rel=1e-12)


class TestClosedForm:
    def test_matches_path_sum_three_atom(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        lam = effective_coupling(dev, i, f, order=4).lambda_eff.real
        assert closed_form_chi(dev, "chi3_one_cavity") == pytest.approx(lam, rel=1e-10)

    def test_matches_path_sum_two_cavity(self):
        dev = make_two_cavity_device()
        i, f = exchange_states(dev)
        lam = effective_coupling(dev, i, f, order=4).lambda_eff.real
        assert closed_form_chi(dev, "chi3_two_cavity") == pytest.approx(lam, rel=1e-10)

    def test_matches_path_sum_four_atom(self):
        dev = make_four_atom_device()
        i, f = exchange_states(dev)
        lam = effective_coupling(dev, i, f, order=6).lambda_eff.real
        assert closed_form_chi(dev, "chi4_one_cavity") == pytest.approx(lam, rel=1e-10)

    def test_tabulated_values(self):
        assert make_three_atom_device().angular_to_rate(
            closed_form_chi(make_three_atom_device(), "chi3_one_cavity")
        ) == pytest.approx(CHI3_ONE_CAVITY_MHZ, rel=1e-12)
        assert make_two_cavity_device().angular_to_rate(
            closed_form_chi(make_two_cavity_device(), "chi3_two_cavity")
        ) == pytest.approx(CHI3_TWO_CAVITY_MHZ, rel=1e-12)
        assert make_four_atom_device().angular_to_rate(
            closed_form_chi(make_four_atom_device(), "chi4_one_cavity")
        ) == pytest.approx(CHI4_ONE_CAVITY_MHZ, rel=1e-12)

    def test_zero_coupling_kills_both(self):
        dev = make_three_atom_device()
        for path in ("edges.2.c.g_gi", "edges.3.c.g_gi"):
            dev = with_parameter(dev, path, 0.0)
        assert closed_form_chi(dev, "chi3_one_cavity") == 0.0
        i, f = exchange_states(dev)
        ec = effective_coupling(dev, i, f, order=4)
        assert ec.lambda_eff == 0.0
        assert len(ec.paths) == 0

    def test_topology_mismatch(self):
        with pytest.raises(ValueError, match="topology"):
            closed_form_chi(make_four_atom_device(), "chi3_one_cavity")
        with pytest.raises(ValueError, match="topology"):
            closed_form_chi(make_three_atom_device(), "chi4_one_cavity")
        with pytest.raises(ValueError, match="topology"):
            closed_form_chi(make_three_atom_device(), "chi3_two_cavity")
        with pytest.raises(ValueError, match="identical"):
            closed_form_chi(make_crossing_sweep_device(), "chi3_one_cavity")
        with pytest.raises(ValueError, match="unknown closed form"):
            closed_form_chi(make_three_atom_device(), "chi5")

    def test_gap_agrees_with_exact_spectrum(self):
        # twice the path-sum coupling should reproduce the exact avoided
        # crossing gap up to higher-order corrections
        dev = make_crossing_sweep_device()
        report = find_resonance(dev, "atoms.1.omega_e", (1.0, 1.10), (6, 7))
        at = with_parameter(dev, "atoms.1.omega_e", report.location)
        i, f = exchange_states(at)
        lam = effective_coupling(at, i, f, order=4).lambda_eff
        assert 2 * abs(lam) == pytest.approx(report.gap, rel=0.30)
        assert 2 * abs(lam) == pytest.approx(report.gap, rel=0.02)


def jc_device(g_mhz_free: float = 0.01) -> DeviceSpec:
    return DeviceSpec(
        cavities=(CavitySpec("c", 1.0, 0.0, 4),),
        atoms=(AtomSpec("q", 1.3, None),),
        edges=(CouplingEdge("q", "c", g_ge=g_mhz_free),),
        unit_omega0=True,
    )


class TestSecondOrderShifts:
    def test_ground_level_never_shifts_without_photons(self):
        for dev in (make_three_atom_device(), make_two_cavity_device()):
            shifts = second_order_shifts(dev)
            for atom in dev.atoms:
                assert shifts.eta[(atom.label, "g")] == 0.0

    def test_two_level_exact_comparison(self):
        dev = jc_device()
        shifts = second_order_shifts(dev)
        space = build_space(dev)
        evals, evecs = diagonalize(full_hamiltonian(dev, space), want_vectors=True)
        fourth_order = 0.01**4 / 0.3**3
        for fock, levels, slack in (
            ((0,), ("e",), 2.0),
            ((1,), ("g",), 2.0),
            ((1,), ("e",), 5.0),
        ):
            st = bare_state(dev, space, fock, levels)
            k = int(np.argmax(np.abs(evecs[st.index, :]) ** 2))
            predicted = shifts.state_energy(dev, st)
            assert abs(predicted - evals[k]) < slack * fourth_order

    def test_uncoupled_vacuum_is_exact(self):
        dev = jc_device()
        shifts = second_order_shifts(dev)
        space = build_space(dev)
        st = bare_state(dev, space, (0,), ("g",))
        assert shifts.state_energy(dev, st) == 0.0
        evals = diagonalize(full_hamiltonian(dev, space))[0]
        assert abs(evals[0]) < 1e-14

    def test_stark_coefficient_scales_with_photon_number(self):
        dev = jc_device()
        shifts = second_order_shifts(dev)
        space = build_space(dev)
        e0 = shifts.state_energy(dev, bare_state(dev, space, (0,), ("e",)))
        e1 = shifts.state_energy(dev, bare_state(dev, space, (1,), ("e",)))
        e2 = shifts.state_energy(dev, bare_state(dev, space, (2,), ("e",)))
        xi = shifts.xi[("q", "c", "e")]
        assert e1 - e0 == pytest.approx(1.0 + xi, rel=1e-12)
        assert e2 - e1 == pytest.approx(1.0 + xi, rel=1e-12)

    def test_qutrit_device_against_exact_levels(self):
        dev = with_parameter(make_crossing_sweep_device(), "atoms.1.omega_e", 1.08)
        shifts = second_order_shifts(dev)
        space = build_space(dev)
        evals, evecs = diagonalize(full_hamiltonian(dev, space), want_vectors=True)
        cases = (
            ((0,), ("e", "g", "g"), 5e-5),
            ((0,), ("g", "e", "e"), 2e-4),
            ((1,), ("g", "g", "g"), 2e-4),
        )
        for fock, levels, tol in cases:
            st = bare_state(dev, space, fock, levels)
            k = int(np.argmax(np.abs(evecs[st.index, :]) ** 2))
            assert abs(evecs[st.index, k]) ** 2 > 0.9
            assert abs(shifts.state_energy(dev, st) - evals[k]) < tol

    def test_missing_edge_contributes_zero(self):
        dev = make_two_cavity_device()
        shifts = second_order_shifts(dev)
        # atom 1 couples only the left cavity
        assert shifts.xi[("1", "R", "e")] == 0.0
        assert shifts.xi[("1", "R", "g")] == 0.0
        # two-level atoms carry no i-level entries
        assert ("1", "i") not in shifts.eta

    def test_near_degenerate_denominator_flagged(self):
        dev = with_parameter(make_crossing_sweep_device(), "cavities.c.omega_c", 0.51)
        shifts = second_order_shifts(dev)
        assert shifts.flags
        assert any("not dispersive" in f for f in shifts.flags)
        assert not second_order_shifts(make_crossing_sweep_device()).flags


class TestMatchedFrequency:
    def test_benchmark_devices(self):
        assert matched_control_frequency(make_three_atom_device()) == pytest.approx(
            MATCHED3, rel=1e-9
        )
        assert matched_control_frequency(make_two_cavity_device()) == pytest.approx(
            MATCHED2C, rel=1e-9
        )
        assert matched_control_frequency(make_four_atom_device()) == pytest.approx(
            MATCHED4, rel=1e-9
        )

    def test_matches_pinned_operating_points(self):
        # the benchmark devices pin the control frequencies at the rounded
        # compensated values; the computed match must sit within rounding
        assert abs(matched_control_frequency(make_three_atom_device()) - 7.966) < 1e-3
        assert abs(matched_control_frequency(make_two_cavity_device()) - 7.945) < 1e-3
        assert abs(matched_control_frequency(make_four_atom_device()) - 8.9665) < 1e-3

    def test_predicts_exact_crossing(self):
        # the compensated frequency should land within a tenth of the
        # residual detuning from the exact avoided-crossing center
        dev = make_crossing_sweep_device()
        report = find_resonance(dev, "atoms.1.omega_e", (1.0, 1.10), (6, 7))
        matched = matched_control_frequency(dev)
        residual = abs(1.05 - report.location)
        assert abs(matched - report.location) < 0.1 * residual

    def test_needs_spectator(self):
        with pytest.raises(ValueError, match="spectator"):
            matched_control_frequency(jc_device())
