"""Path sums, closed-form couplings, and second-order shifts.

Numeric anchors were computed once from the frozen benchmark devices in
conftest and cross-checked against independent hand evaluation of the
closed forms; they guard against regressions in the path sum. The
exhaustive depth-first walk the sum replaced lives here as its reference.
"""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    with_parameter,
)
from cycqed.hilbert import BareState
from cycqed.perturbation import (
    FLOOR_FACTOR,
    MATCH_FACTOR,
    PerturbationError,
    TransitionPath,
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
        assert effective_coupling(dev, i, f, order=4).path_count == 2
        paths = list(enumerate_paths(dev, i, f, order=4).paths)
        assert len(paths) == 2
        first = [s.label() for s in paths[0].states]
        second = [s.label() for s in paths[1].states]
        assert first == ["0,e,g,g", "1,g,g,g", "0,g,g,i", "1,g,g,e", "0,g,e,e"]
        assert second == ["0,e,g,g", "1,g,g,g", "0,g,i,g", "1,g,e,g", "0,g,e,e"]

    def test_three_atom_denominators(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        for path in enumerate_paths(dev, i, f, order=4).paths:
            denoms = [dev.angular_to_freq(d) for d in path.denominators]
            np.testing.assert_allclose(denoms, [1.966, 0.466, -2.034], rtol=1e-12)
            elements = [dev.angular_to_rate(e.real) for e in path.elements]
            np.testing.assert_allclose(elements, [150.0, 150.0, 210.0, 150.0], rtol=1e-12)

    def test_identical_spectators_give_equal_contributions(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        contribs = [p.contribution for p in enumerate_paths(dev, i, f, order=4).paths]
        assert len(contribs) == 2
        assert contribs[0] == pytest.approx(contribs[1], rel=1e-12)
        lam = effective_coupling(dev, i, f, order=4).lambda_eff
        assert lam == pytest.approx(sum(contribs), rel=1e-15)

    def test_spectator_factorial_path_count(self):
        dev3 = make_three_atom_device()
        dev4 = make_four_atom_device()
        for dev, expected in ((dev3, 2), (dev4, 6)):
            i, f = exchange_states(dev)
            order = 2 * (len(dev.atoms) - 1)
            ec = effective_coupling(dev, i, f, order=order)
            assert ec.path_count == expected
            assert len(list(enumerate_paths(dev, i, f, order).paths)) == expected

    def test_two_cavity_single_path(self):
        dev = make_two_cavity_device()
        i, f = exchange_states(dev)
        assert effective_coupling(dev, i, f, order=4).path_count == 1
        (path,) = enumerate_paths(dev, i, f, order=4).paths
        labels = [s.label() for s in path.states]
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
        # one prefix 0,e,g,g -> 1,g,g,g reaches the parked state 0,g,g,i two
        # steps before the end, exactly as far as it lies from the final state
        with pytest.raises(PerturbationError) as err:
            effective_coupling(dev, i, f, order=4)
        message = str(err.value)
        assert message.startswith("1 path(s) hit the degeneracy floor; nearest offender 0,g,g,i")
        defect = float(message.split("with defect ")[1].split()[0])
        assert abs(defect) < 1e-6
        ec = effective_coupling(dev, i, f, order=4, strict=False)
        assert ec.path_count == 1
        (path,) = enumerate_paths(dev, i, f, order=4).paths
        assert "0,g,g,i" not in [s.label() for s in path.states]
        assert ec.lambda_eff == pytest.approx(path.contribution, rel=1e-15)

    def test_identical_endpoints_rejected(self):
        dev = make_three_atom_device()
        i, _ = exchange_states(dev)
        with pytest.raises(PerturbationError, match="both 0,e,g,g"):
            enumerate_paths(dev, i, i, order=4)
        with pytest.raises(PerturbationError, match="both 0,e,g,g"):
            effective_coupling(dev, i, i, order=4)

    def test_order_below_two_rejected(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        with pytest.raises(PerturbationError, match="order"):
            effective_coupling(dev, i, f, order=1)


def walk_paths(dev, initial, final, order):
    """Reference: the exhaustive depth-first walk the path sum replaced.

    Returns the accepted paths as (states, elements, denominators) in walk
    order, and the floor-rejected prefixes as (offender index, defect).
    A breadth-first distance map to the final state prunes dead branches.
    """
    model = Model(dev)
    space, energies, hi = model.space, sum(model.terms), model.interaction
    nonzero = hi != 0
    if not nonzero.any():
        return [], []
    floor = FLOOR_FACTOR * float(np.abs(hi[nonzero]).min())
    e_ref = energies[initial.index]
    neighbors = [np.flatnonzero(nonzero[:, col]) for col in range(space.total_dim)]
    photons = sum(
        occ for sub, occ in zip(space.subsystems, space.occupation_arrays()) if sub.kind == "cavity"
    )
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
    paths, rejected = [], []

    def walk(node, steps_left, seq):
        if steps_left == 1:
            if nonzero[final.index, node]:
                chain = seq + [final.index]
                elements = tuple(hi[b, a] for a, b in zip(chain, chain[1:]))
                denoms = tuple(float(e_ref - energies[j]) for j in chain[1:-1])
                states = tuple(BareState.at(space, j, energies[j]) for j in chain)
                paths.append((states, elements, denoms))
            return
        for other in map(int, neighbors[node]):
            if other in (initial.index, final.index):
                continue
            if photons[other] > order // 2 or dist[other] > steps_left - 1:
                continue
            defect = e_ref - energies[other]
            if abs(defect) < floor:
                rejected.append((other, float(defect)))
                continue
            walk(other, steps_left - 1, seq + [other])

    walk(initial.index, order, [initial.index])
    return paths, rejected


# frequencies on a coarse lattice make exact degeneracies, and so floor
# hits, common; a small jitter lifts them on some devices
LATTICE = st.sampled_from([0.5 * k for k in range(2, 13)])


@st.composite
def frequency(draw):
    return draw(LATTICE) + draw(st.sampled_from([0.0, 0.0, draw(st.floats(1e-4, 0.05))]))


@st.composite
def path_sum_queries(draw):
    """A device of 1-3 atoms on 1-2 cavities, a degenerate pair of it and an order 2-8."""
    cavities = tuple(
        CavitySpec(f"c{k}", draw(frequency()), n_max=draw(st.integers(2, 3)))
        for k in range(draw(st.integers(1, 2)))
    )
    coupling = st.sampled_from([True] * 5 + [False]).flatmap(
        lambda on: st.floats(1e-3, 300.0) if on else st.just(0.0)
    )
    atoms, edges = [], []
    for k in range(draw(st.integers(1, 3))):
        omega_e = draw(frequency())
        three = draw(st.booleans())
        atoms.append(AtomSpec(f"a{k}", omega_e, omega_e + draw(frequency()) if three else None))
        # the first atom couples every cavity, so the device is connected
        for cav in cavities if k == 0 else cavities[: draw(st.integers(1, len(cavities)))]:
            g = {"g_ge": draw(coupling)}
            if three:
                g.update(g_gi=draw(coupling), g_ei=draw(coupling))
            edges.append(CouplingEdge(f"a{k}", cav.label, **g))
    dev = DeviceSpec(cavities, tuple(atoms), tuple(edges), unit_omega0=draw(st.booleans()))
    model = Model(dev)
    energies = sum(model.terms)
    d = model.space.total_dim
    g_max = max(dev.rate_to_angular(e.g(t)) for e in dev.edges for t in ("ge", "gi", "ei"))
    photons = sum(
        occ for sub, occ in zip(model.space.subsystems, model.space.occupation_arrays())
        if sub.kind == "cavity"
    )
    # an initial state with at most one photon leaves room for intermediates
    i = int(draw(st.sampled_from(np.flatnonzero(photons <= 1))))
    order = draw(st.sampled_from([2, 4, 6, 8]))
    degenerate = np.abs(energies - energies[i]) <= MATCH_FACTOR * g_max
    degenerate[i] = False
    # prefer a partner that some walk of the order's length reaches
    reached = np.arange(d) == i
    for _ in range(order):
        reached = (model.interaction != 0) @ reached
    partners = np.flatnonzero(degenerate & reached)
    if not partners.size or draw(st.integers(0, 9)) == 0:
        partners = np.flatnonzero(degenerate)
    assume(partners.size)
    f = int(draw(st.sampled_from(partners)))
    initial, final = (BareState.at(model.space, k, energies[k]) for k in (i, f))
    return dev, initial, final, order


class TestRecursionAgainstWalk:
    @settings(deadline=None, max_examples=150)
    @given(path_sum_queries())
    def test_sum_counts_rejections_and_listing_match_the_walk(self, query):
        dev, i, f, order = query
        found = enumerate_paths(dev, i, f, order)
        # the walk's work grows with the count; keep each example small
        assume(found.paths.count <= 3000)
        paths, rejected = walk_paths(dev, i, f, order)
        assert type(found.paths.count) is int and found.paths.count == len(paths)
        contributions = [TransitionPath((), el, den).contribution for _, el, den in paths]
        lam_walk = float(sum(contributions))
        assert abs(found.lambda_eff - lam_walk) <= 1e-12 * sum(abs(c) for c in contributions)
        assert [(p.states, p.elements, p.denominators) for p in found.paths] == paths
        assert found.rejected.count == len(rejected)
        nearest_first = sorted(rejected, key=lambda r: (abs(r[1]), r[0]))
        assert [(s.index, d) for s, d in found.rejected] == nearest_first
        ec = effective_coupling(dev, i, f, order, strict=False)
        assert (ec.lambda_eff, ec.path_count) == (found.lambda_eff, found.paths.count)
        if not rejected:
            assert effective_coupling(dev, i, f, order).lambda_eff == ec.lambda_eff
            return
        with pytest.raises(PerturbationError) as err:
            effective_coupling(dev, i, f, order)
        nearest = min(abs(defect) for _, defect in rejected)
        worst = min(k for k, defect in rejected if abs(defect) == nearest)
        defect = next(d for k, d in rejected if k == worst)
        label = BareState.at(Model(dev).space, worst, 0.0).label()
        assert str(err.value) == (
            f"{len(rejected)} path(s) hit the degeneracy floor; nearest offender {label} "
            f"with defect {defect:.3e} (perturbation theory invalid here)"
        )

    def test_photon_cap_is_half_the_order(self):
        # from 1,e,g the first atom's emission would put two photons in the
        # cavity, one more than an order-2 process may hold
        atom = dict(omega_e=1.0, omega_i=None)
        dev = DeviceSpec(
            cavities=(CavitySpec("c", 1.5, n_max=3),),
            atoms=(AtomSpec("1", **atom), AtomSpec("2", **atom)),
            edges=(CouplingEdge("1", "c", g_ge=0.01), CouplingEdge("2", "c", g_ge=0.01)),
            unit_omega0=True,
        )
        space = build_space(dev)
        i = bare_state(dev, space, (1,), ("e", "g"))
        f = bare_state(dev, space, (1,), ("g", "e"))
        assert effective_coupling(dev, i, f, order=2).path_count == 1
        (path,) = enumerate_paths(dev, i, f, order=2).paths
        assert [s.label() for s in path.states] == ["1,e,g", "0,e,e", "1,g,e"]

    def test_order_forty_is_quick_and_exact(self):
        dev = make_three_atom_device()
        i, f = exchange_states(dev)
        t0 = time.perf_counter()
        ec = effective_coupling(dev, i, f, order=40)
        assert time.perf_counter() - t0 < 1.0
        # past 2**53 a float count would have lost its last digits
        assert type(ec.path_count) is int and ec.path_count > 2**53
        assert np.isfinite(ec.lambda_eff)


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
        assert ec.path_count == 0
        assert list(enumerate_paths(dev, i, f, order=4).paths) == []

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
