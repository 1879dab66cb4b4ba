"""Permutation symmetry of one class of identical atoms.

Two or three atoms equal in every field but the label, with equal edges to
the same cavities, make H and the dissipator commute with permuting their
occupations. An operator A that does is ⊕_λ A_λ ⊗ 1_{d_λ} over the isotypic
sectors λ of S_2 or S_3, with d_λ = 2 for the two-dimensional irrep of S_3
and 1 otherwise. Spectra diagonalize the blocks A_λ and ``evolve``
propagates them. Permutational invariance under local dissipation is
standard for identical emitters (Shammah et al., PRA 98, 063815 (2018);
Gegg and Richter, NJP 18, 043037 (2016)).

``evolve`` moves between vec(ρ) and the blocks with ``Sectors.vec_maps``,
the products W ⊗ W written straight into CSR: 12.8 MB at d = 486.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

# scipy.sparse is imported where sparse maps are built: loaded here, ahead of
# the rest of the package, it raised the peak RSS of ``import cycqed`` by 1.4 MB.
if TYPE_CHECKING:
    from scipy import sparse

INVARIANCE_TOL = 1e-14


def identical_atoms(dev) -> tuple[str, ...]:
    """Labels of the device's one class of 2 or 3 identical atoms, else ().

    Two atoms are identical when every ``AtomSpec`` field but the label is
    equal and they have equal edges to the same cavities. No class, several
    classes or a larger one give ().
    """
    classes: dict = {}
    for atom in dev.atoms:
        spec = tuple(getattr(atom, f.name) for f in fields(atom) if f.name != "label")
        edges = frozenset(
            tuple(getattr(e, f.name) for f in fields(e) if f.name != "atom")
            for e in dev.edges
            if e.atom == atom.label
        )
        classes.setdefault((spec, edges), []).append(atom.label)
    found = [labels for labels in classes.values() if len(labels) > 1]
    if len(found) != 1 or len(found[0]) > 3:
        return ()
    return tuple(found[0])


@dataclass(frozen=True, eq=False)
class Sectors:
    """The isotypic blocks of the class ``labels``.

    ``copies[λ]`` holds the d_λ isometries W_{λ,a} (sparse, d × m_λ) of
    sector λ. The columns of all of them are an orthonormal basis, and
    A_λ = W_{λ,a}ᵀ A W_{λ,a} for every a. ``swaps`` are the basis
    permutations of the adjacent transpositions, which generate the group.
    ``whole(d)`` is the one block W = 1 of a space with no class.
    """

    labels: tuple[str, ...]
    copies: tuple[tuple[sparse.csr_matrix, ...], ...]
    swaps: tuple[np.ndarray, ...] = ()

    @classmethod
    def whole(cls, dim: int) -> Sectors:
        from scipy import sparse

        return cls((), ((sparse.identity(dim, format="csr"),),))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c[0].shape[1] for c in self.copies)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.copies)

    def invariant(self, rho: np.ndarray) -> bool:
        """Whether permuting the class leaves ρ unchanged within ``INVARIANCE_TOL``."""
        return all(np.abs(rho[np.ix_(p, p)] - rho).max() <= INVARIANCE_TOL for p in self.swaps)

    def project(self, op: np.ndarray) -> list[np.ndarray]:
        """The blocks of a symmetric op that commutes with the group, symmetrized."""
        blocks = [w.T @ (w.T @ op).T for w, *_ in self.copies]
        return [0.5 * (b + b.T) for b in blocks]

    @cached_property
    def anchors(self) -> list[np.ndarray]:
        """A row of each column of W_{λ,1}: an invariant diagonal is constant on its orbit."""
        columns = [w.tocsc() for w, *_ in self.copies]
        return [w.indices[w.indptr[:-1]] for w in columns]

    @cached_property
    def vec_maps(self) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """(reduce, lift) on row-major vecs.

        ``reduce`` maps ρ to the stacked vec(ρ_λ) with ρ_λ = W_{λ,1}ᵀ ρ W_{λ,1},
        and ``lift`` maps back with ρ = Σ_λ Σ_a W_{λ,a} ρ_λ W_{λ,a}ᵀ; reduce is
        the transpose of the lift that takes W_{λ,1} alone.
        """
        lift = _stacked_krons([[w.toarray() for w in c] for c in self.copies])
        reduce = _stacked_krons([[c[0].toarray()] for c in self.copies]).T.tocsr()
        return reduce, lift


def _stacked_krons(blocks: list[list[np.ndarray]]) -> sparse.csr_matrix:
    """Σ_a A_a ⊗ A_a over each block's same-shape dense copies A_a, blocks side by side, as CSR.

    Bit for bit ``sparse.hstack`` of ``sum(sparse.kron(a, a) for a in copies)``:
    the entries are the same products, summed over copies in their order, and
    exact zeros of such a sum are dropped as scipy's addition drops them. Row
    (i, j) of a block holds n_i n_j entries, n being the row counts of its
    copies' union pattern, so the CSR arrays are counted first and each entry
    is written straight into its slot, sorted, with 32-bit indices when they fit.
    """
    from scipy import sparse

    r = blocks[0][0].shape[0]
    patterns = [np.nonzero(np.any([a != 0 for a in copies], axis=0)) for copies in blocks]
    counts = [np.bincount(rows, minlength=r) for rows, _ in patterns]
    width = sum(copies[0].shape[1] ** 2 for copies in blocks)
    nnz = sum(len(rows) ** 2 for rows, _ in patterns)
    index = np.int32 if max(nnz, r * r, width) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(r * r + 1, dtype=index)
    indptr[1:] = sum(np.multiply.outer(n, n).ravel() for n in counts)
    np.cumsum(indptr, out=indptr)
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    # the first free slot of each row, and the first column of the block
    start, col0 = indptr[:-1].copy(), 0
    for copies, (rows, cols), n in zip(blocks, patterns, counts):
        c = copies[0].shape[1]
        # pattern entries (e, f) land in row rows[e]·r + rows[f], at slot
        # slot[e]·n[rows[f]] + slot[f] of the block's part, in column cols[e]·c + cols[f]
        slot = np.arange(len(rows)) - (np.cumsum(n) - n)[rows]
        at = start.reshape(r, r)[np.ix_(rows, rows)] + np.multiply.outer(slot, n[rows]) + slot
        indices[at] = np.add.outer(cols * c + col0, cols)
        data[at] = sum(np.multiply.outer(v, v) for v in (a[rows, cols] for a in copies))
        start += np.multiply.outer(n, n).ravel().astype(index)
        col0 += c * c
    out = sparse.csr_matrix((data, indices, indptr), shape=(r * r, width))
    out.eliminate_zeros()
    return out


def _irreps(group: list[np.ndarray]) -> list[np.ndarray]:
    """Real orthogonal irreps of S_2 or S_3, each as the stack of D_λ(g) over the group.

    The group elements are slot permutation matrices. The irreps are the
    trivial one, then (for S_3) the two-dimensional standard irrep on the
    plane orthogonal to (1, 1, 1), then the sign.
    """
    stacks = [np.ones((len(group), 1, 1))]
    if len(group[0]) == 3:
        plane = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]])
        plane /= np.linalg.norm(plane, axis=0)
        stacks.append(np.array([plane.T @ m @ plane for m in group]))
    stacks.append(np.array([round(np.linalg.det(m)) for m in group], dtype=float).reshape(-1, 1, 1))
    return stacks


def _transfer(reps: np.ndarray, actions: list[np.ndarray], a: int) -> np.ndarray:
    """P_λ^{a1} = (d_λ/|G|) Σ_g D_λ(g)_{a1} P(g) on the local configurations."""
    size = len(actions[0])
    op = np.zeros((size, size))
    for rep, action in zip(reps, actions):
        op[action, np.arange(size)] += reps.shape[1] / len(reps) * rep[a, 0]
    return op


def build_sectors(dev, space) -> Sectors | None:
    """The sectors of the device's class of identical atoms, or None without one.

    The group permutes the class atoms' occupations, so it acts on the
    n^k local configurations of the class and leaves every other subsystem
    alone. The copies W_{λ,a} come from the transfer operators
    P_λ^{ab} = (d_λ/|G|) Σ_g D_λ(g)_{ab} P(g): W_{λ,1} is an orthonormal basis
    of the range of P_λ^{11}, taken one orbit of configurations at a time,
    and W_{λ,a} = P_λ^{a1} W_{λ,1}. Every column lives on one orbit, with at
    most |G| nonzero entries.
    """
    labels = identical_atoms(dev)
    if not labels:
        return None
    slots = len(labels)
    positions = [space.position(label) for label in labels]
    n = space.dims[positions[0]]
    configs = np.array(list(itertools.product(range(n), repeat=slots)))
    radix = n ** np.arange(slots - 1, -1, -1)
    group = [np.eye(slots, dtype=int)[list(p)] for p in itertools.permutations(range(slots))]
    # local action of each group element: configuration c goes to m c
    actions = [configs @ m.T @ radix for m in group]

    occ = space.occupation_arrays()
    offsets = configs @ np.array([space.strides[p] for p in positions])
    # index of each basis state's class configuration among ``configs``
    local = sum(occ[p] * r for p, r in zip(positions, radix))
    # index of the same state with every class atom in its ground level
    base = np.arange(space.total_dim) - offsets[local]
    # adjacent transpositions generate the group; each is its own inverse
    swaps = tuple(base + offsets[action[local]] for action in actions[1:slots])

    orbits: dict = {}
    for c, config in enumerate(configs):
        orbits.setdefault(tuple(sorted(config)), []).append(c)
    bases = np.flatnonzero(local == 0)
    copies = []
    for reps in _irreps(group):
        projector = _transfer(reps, actions, 0)
        first = []
        for orbit in orbits.values():
            values, vectors = np.linalg.eigh(projector[np.ix_(orbit, orbit)])
            for vector in vectors[:, values > 0.5].T:
                column = np.zeros(len(configs))
                column[orbit] = vector
                first.append(column)
        if first:
            local_w = np.array(first).T
            copies.append(tuple(
                _embed_copy(_transfer(reps, actions, a) @ local_w, bases, offsets, space.total_dim)
                for a in range(reps.shape[1])
            ))
    return Sectors(labels, tuple(copies), swaps)


def _embed_copy(local_w, bases, offsets, dim) -> sparse.csr_matrix:
    """A copy W_{λ,a} on the full space from its columns on the class configurations.

    Every local column repeats once for each state of the other subsystems
    (``bases``, each with the class atoms in their ground level).
    """
    from scipy import sparse

    rows, cols = np.nonzero(local_w)
    m = local_w.shape[1]
    return sparse.csr_matrix(
        (
            np.tile(local_w[rows, cols], len(bases)),
            (
                (bases[:, None] + offsets[rows]).ravel(),
                (np.arange(len(bases))[:, None] * m + cols).ravel(),
            ),
        ),
        shape=(dim, len(bases) * m),
    )
