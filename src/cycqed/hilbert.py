"""Composite Hilbert spaces for cavity-atom devices.

Truncated bosonic modes and few-level atoms are combined by tensor products
in a fixed order (cavities first, then atoms, each in declaration order).
Basis indices use mixed-radix encoding with the first subsystem most
significant, so the label ``|n, l1, l2, ...>`` maps to one contiguous row
index and CSV state labels are reproducible.

Hamiltonians are real: every rotating-wave coupling is a real number, so
the device layer assembles H as a dense float64 matrix from index triples on
these strides. Only density matrices and propagators are complex.
:func:`embed` keeps the Kronecker product form as a reference for that
assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Atom level names in energy order; index in this tuple == level index, which
# is also the level's excitation charge (photons count 1 each).
LEVEL_NAMES = ("g", "e", "i")


@dataclass(frozen=True)
class SubsystemDef:
    """One tensor factor: a truncated cavity mode or a few-level atom.

    Parameters
    ----------
    kind : {'cavity', 'atom'}
    dimension : int
        Cavity: Fock truncation n_max + 1. Atom: 2 or 3 levels.
    label : str
        Identifier, unique within a space.
    """

    kind: str
    dimension: int
    label: str

    def __post_init__(self) -> None:
        if self.kind not in ("cavity", "atom"):
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if self.dimension < 2:
            raise ValueError("subsystem dimension must be at least 2")
        if self.kind == "atom" and self.dimension not in (2, 3):
            raise ValueError("atoms must have 2 or 3 levels")
        if not self.label:
            raise ValueError("subsystem label must be nonempty")


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of subsystems with mixed-radix indexing.

    The basis index of a product state is
    ``sum_k occ[k] * prod(dims[k+1:])``: the first subsystem is the most
    significant digit. Construct through :func:`build_space`.
    """

    subsystems: tuple[SubsystemDef, ...]
    total_dim: int
    _positions: dict[str, int] = field(repr=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.subsystems)

    @property
    def strides(self) -> tuple[int, ...]:
        """Basis-index step of one unit of occupation in each subsystem."""
        dims = self.dims
        return tuple(math.prod(dims[k + 1:]) for k in range(len(dims)))

    def position(self, label: str) -> int:
        """Index of the labeled subsystem in the tensor order."""
        try:
            return self._positions[label]
        except KeyError:
            raise KeyError(f"no subsystem labeled {label!r}") from None

    def subsystem(self, label: str) -> SubsystemDef:
        return self.subsystems[self.position(label)]

    def index_of(self, occupations: tuple[int, ...]) -> int:
        """Basis index of the product state with the given per-subsystem occupations."""
        if len(occupations) != len(self.subsystems):
            raise ValueError("occupation tuple length does not match subsystem count")
        idx = 0
        for occ, sub in zip(occupations, self.subsystems):
            if not 0 <= occ < sub.dimension:
                raise ValueError(
                    f"occupation {occ} out of range for subsystem {sub.label!r}"
                )
            idx = idx * sub.dimension + occ
        return idx

    def occupations_of(self, index: int) -> tuple[int, ...]:
        """Per-subsystem occupations of a basis index (inverse of index_of)."""
        if not 0 <= index < self.total_dim:
            raise ValueError(f"basis index {index} out of range")
        return tuple(int(occ[index]) for occ in self.occupation_arrays())

    def basis_label(self, index: int) -> str:
        """Readable label like '0,e,g,g' (Fock numbers, then level names)."""
        parts = []
        for occ, sub in zip(self.occupations_of(index), self.subsystems):
            parts.append(str(occ) if sub.kind == "cavity" else LEVEL_NAMES[occ])
        return ",".join(parts)

    def occupation_arrays(self) -> tuple[np.ndarray, ...]:
        """Occupation of every subsystem on the whole basis, one read-only int array each.

        Entry k of the j-th array is the occupation of subsystem j in basis
        state k. Built once per space; handy for diagonal operators without loops.
        """
        return self._occupations

    @cached_property
    def _occupations(self) -> tuple[np.ndarray, ...]:
        occupations = np.indices(self.dims).reshape(len(self.dims), self.total_dim)
        occupations.flags.writeable = False
        return tuple(occupations)


@dataclass(frozen=True)
class BareState:
    """Product eigenstate of the uncoupled Hamiltonian.

    Parameters
    ----------
    fock : tuple of int
        Photon number per cavity, in cavity declaration order.
    levels : tuple of str
        Level name per atom, in atom declaration order.
    energy : float
        Bare energy in angular frequency units (rad/ns), with the atomic
        ground level at zero.
    index : int
        Basis index in the composite space.
    """

    fock: tuple[int, ...]
    levels: tuple[str, ...]
    energy: float
    index: int

    @classmethod
    def at(cls, space: CompositeSpace, index: int, energy: float) -> "BareState":
        """The product state at a basis index, its occupations read as Fock numbers and levels."""
        fock, levels = [], []
        for occ, sub in zip(space.occupations_of(index), space.subsystems):
            if sub.kind == "cavity":
                fock.append(int(occ))
            else:
                levels.append(LEVEL_NAMES[occ])
        return cls(tuple(fock), tuple(levels), float(energy), index)

    def label(self) -> str:
        return ",".join([str(n) for n in self.fock] + list(self.levels))


def build_space(defs: list[SubsystemDef]) -> CompositeSpace:
    """Assemble a composite space from subsystem definitions.

    Parameters
    ----------
    defs : list of SubsystemDef
        At least one subsystem; labels must be unique. The given order is
        the tensor order (first factor most significant in the basis index).

    Returns
    -------
    CompositeSpace
    """
    if not defs:
        raise ValueError("a space needs at least one subsystem")
    positions: dict[str, int] = {}
    total = 1
    for k, sub in enumerate(defs):
        if sub.label in positions:
            raise ValueError(f"duplicate subsystem label {sub.label!r}")
        positions[sub.label] = k
        total *= sub.dimension
    return CompositeSpace(tuple(defs), total, positions)


def ladder(kind: str, dim: int) -> np.ndarray:
    """Truncated bosonic ladder operator as a dim x dim matrix.

    Parameters
    ----------
    kind : {'annihilate', 'create'}
    dim : int
        Fock truncation (n_max + 1), at least 2.

    Returns
    -------
    numpy.ndarray
        a with a|n> = sqrt(n)|n-1>, or its adjoint for 'create'.
    """
    if dim < 2:
        raise ValueError("ladder dimension must be at least 2")
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    if kind == "annihilate":
        return a
    if kind == "create":
        return a.T
    raise ValueError(f"unknown ladder kind {kind!r}")


def transition_projector(j: str, k: str, dim: int) -> np.ndarray:
    """Matrix |j><k| on a dim-level atom, with a single unit entry at levels (j, k)."""
    names = LEVEL_NAMES[:dim]
    if j not in names or k not in names:
        raise ValueError(f"levels {j!r}, {k!r} are not both levels of a {dim}-level atom")
    op = np.zeros((dim, dim))
    op[names.index(j), names.index(k)] = 1.0
    return op


def embed(local_op: np.ndarray, target: str, space: CompositeSpace) -> np.ndarray:
    """Promote a single-subsystem operator to the composite space.

    Computes I x ... x local_op x ... x I with the factor placed at the
    target subsystem's position in the fixed tensor order. The package
    assembles its Hamiltonians from index triples instead; this dense
    product form is the reference they are tested against.

    Parameters
    ----------
    local_op : numpy.ndarray
        Square matrix matching the target subsystem dimension.
    target : str
        Subsystem label.
    space : CompositeSpace

    Returns
    -------
    numpy.ndarray
        Same dtype as ``local_op``.
    """
    pos = space.position(target)
    dims = space.dims
    op = np.asarray(local_op)
    if op.shape != (dims[pos], dims[pos]):
        raise ValueError(
            f"operator shape {op.shape} does not match subsystem "
            f"{target!r} of dimension {dims[pos]}"
        )
    right = space.strides[pos]
    left = space.total_dim // (dims[pos] * right)
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def total_excitation_operator(space: CompositeSpace) -> np.ndarray:
    """Diagonal operator counting photons plus 1 per |e> and 2 per |i>.

    A level's excitation charge is its index, so this is the sum of all occupations.
    """
    return np.diag(sum(space.occupation_arrays()).astype(float))
