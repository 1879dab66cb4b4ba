"""Composite-space construction and elementary operator algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycqed.hilbert import (
    SubsystemDef,
    build_space,
    embed,
    ladder,
    total_excitation_operator,
    transition_projector,
)


def space_cavity_atoms(cav_dims, atom_dims):
    defs = [SubsystemDef("cavity", d, f"c{k}") for k, d in enumerate(cav_dims)]
    defs += [SubsystemDef("atom", d, f"a{k}") for k, d in enumerate(atom_dims)]
    return build_space(defs)


class TestBuildSpace:
    def test_total_dims(self):
        assert space_cavity_atoms([2], [2]).total_dim == 4
        assert space_cavity_atoms([6], [3, 3, 3]).total_dim == 162
        assert space_cavity_atoms([6, 6], [2, 3, 2]).total_dim == 432

    def test_duplicate_label_rejected(self):
        defs = [SubsystemDef("cavity", 3, "x"), SubsystemDef("atom", 2, "x")]
        with pytest.raises(ValueError, match="duplicate"):
            build_space(defs)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            SubsystemDef("cavity", 1, "c")
        with pytest.raises(ValueError):
            SubsystemDef("atom", 4, "a")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_space([])

    def test_mixed_radix_most_significant_first(self):
        sp = space_cavity_atoms([3], [2, 3])
        # index = n*6 + l1*3 + l2
        assert sp.index_of((2, 1, 0)) == 15
        assert sp.occupations_of(15) == (2, 1, 0)
        for idx in range(sp.total_dim):
            assert sp.index_of(sp.occupations_of(idx)) == idx

    def test_basis_labels(self):
        sp = space_cavity_atoms([2], [3, 2])
        assert sp.basis_label(0) == "0,g,g"
        assert sp.basis_label(sp.index_of((1, 2, 1))) == "1,i,e"

    def test_occupation_arrays_match_occupations_of(self):
        sp = space_cavity_atoms([3, 2], [3])
        arrays = sp.occupation_arrays()
        for idx in range(sp.total_dim):
            occ = sp.occupations_of(idx)
            assert tuple(int(a[idx]) for a in arrays) == occ


class TestLadder:
    def test_annihilate_dim2(self):
        np.testing.assert_array_equal(ladder("annihilate", 2), [[0, 1], [0, 0]])

    def test_number_operator(self):
        a = ladder("annihilate", 4)
        np.testing.assert_allclose(ladder("create", 4) @ a, np.diag([0, 1, 2, 3]))

    def test_create_is_adjoint(self):
        a = ladder("annihilate", 5)
        np.testing.assert_array_equal(ladder("create", 5), a.conj().T)

    def test_truncation_artifact_confined_to_corner(self):
        dim = 6
        a = ladder("annihilate", dim)
        comm = a @ ladder("create", dim) - ladder("create", dim) @ a
        defect = comm - np.eye(dim)
        assert abs(defect[dim - 1, dim - 1]) == pytest.approx(dim, rel=1e-12)
        defect[dim - 1, dim - 1] = 0
        np.testing.assert_allclose(defect, 0, atol=1e-12)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            ladder("annihilate", 1)
        with pytest.raises(ValueError):
            ladder("lower", 3)


class TestTransitionProjector:
    def test_ground_projector(self):
        np.testing.assert_array_equal(transition_projector("g", "g", 3), np.diag([1, 0, 0]))

    def test_flip_plus_adjoint_symmetric(self):
        op = transition_projector("g", "e", 3)
        flip = op + op.conj().T
        np.testing.assert_array_equal(flip, flip.T)
        assert flip[0, 1] == flip[1, 0] == 1

    def test_projector_composition(self):
        ei = transition_projector("e", "i", 3)
        ie = transition_projector("i", "e", 3)
        np.testing.assert_array_equal(ei @ ie, np.diag([0, 1, 0]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            transition_projector("i", "g", 2)
        with pytest.raises(ValueError):
            transition_projector(3, 0, 3)


class TestEmbed:
    def test_identity(self):
        sp = space_cavity_atoms([3], [2])
        out = embed(np.eye(3), "c0", sp)
        np.testing.assert_array_equal(out, np.eye(6))

    def test_ladder_blocks(self):
        sp = space_cavity_atoms([3], [2])
        a = embed(ladder("annihilate", 3), "c0", sp)
        # a|n,l> = sqrt(n)|n-1,l>, atom untouched
        for n in (1, 2):
            for l in (0, 1):
                col = sp.index_of((n, l))
                row = sp.index_of((n - 1, l))
                assert a[row, col] == pytest.approx(np.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_adjoint_symmetry(self):
        sp = space_cavity_atoms([2], [3, 3])
        ge = embed(transition_projector("g", "e", 3), "a1", sp)
        eg = embed(transition_projector("e", "g", 3), "a1", sp)
        np.testing.assert_array_equal(ge.conj().T, eg)

    def test_dimension_mismatch(self):
        sp = space_cavity_atoms([3], [2])
        with pytest.raises(ValueError):
            embed(np.eye(2), "c0", sp)
        with pytest.raises(KeyError):
            embed(np.eye(2), "nope", sp)

    @settings(deadline=None)
    @given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 10**6))
    def test_homomorphism(self, cav_dim, atom_dim, seed):
        rng = np.random.default_rng(seed)
        sp = space_cavity_atoms([cav_dim], [atom_dim])
        A = rng.normal(size=(atom_dim, atom_dim)) + 1j * rng.normal(size=(atom_dim, atom_dim))
        B = rng.normal(size=(atom_dim, atom_dim)) + 1j * rng.normal(size=(atom_dim, atom_dim))
        lhs = embed(A @ B, "a0", sp)
        rhs = embed(A, "a0", sp) @ embed(B, "a0", sp)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @settings(deadline=None)
    @given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 10**6))
    def test_different_subsystems_commute(self, cav_dim, atom_dim, seed):
        rng = np.random.default_rng(seed)
        sp = space_cavity_atoms([cav_dim], [atom_dim])
        A = embed(rng.normal(size=(cav_dim, cav_dim)), "c0", sp)
        B = embed(rng.normal(size=(atom_dim, atom_dim)), "a0", sp)
        np.testing.assert_allclose(A @ B, B @ A, atol=1e-12)


class TestTotalExcitation:
    def test_charges(self):
        sp = space_cavity_atoms([2], [3, 3, 3])
        nt = total_excitation_operator(sp)
        expect = {(0, 1, 0, 0): 1, (0, 0, 1, 1): 2, (1, 0, 2, 0): 3}
        for occ, charge in expect.items():
            idx = sp.index_of(occ)
            assert nt[idx, idx] == charge

    def test_diagonal_nonnegative_integers(self):
        sp = space_cavity_atoms([3, 2], [2, 3])
        nt = total_excitation_operator(sp)
        np.testing.assert_array_equal(nt, np.diag(np.diag(nt)))
        diag = np.diag(nt).real
        np.testing.assert_array_equal(diag, np.round(diag))
        assert diag.min() >= 0

