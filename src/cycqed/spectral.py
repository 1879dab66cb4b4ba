"""Exact diagonalization, parameter sweeps, and avoided-crossing location.

Hamiltonians arrive as real symmetric float64 matrices, assembled once per
device by ``device.Model``, and are decomposed with real
``eigh``/``eigvalsh``: a sweep solves stacks of points at once, a crossing
search only its two levels. Eigenvalues are always reported sorted
ascending and in the device's angular-frequency units. Levels are
addressed by 0-based sorted index, not by adiabatic continuation, in the
crossing search too; branch identity across a crossing is read off the
reported bare-state content instead.

Every solve runs on the permutation-symmetry blocks of ``device.Model``:
the full sorted spectrum is their union, block λ's counted d_λ times.

A gap minimum is a root of the difference of the two levels' slopes. By
Hellmann–Feynman (Feynman, Phys. Rev. 56, 340, 1939) the slope of a level
is v^T (dH/dx) v for its eigenvector v, so one partial solve gives both
slopes at a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec, Model

# A Hamiltonian must satisfy |H - H^T|_max <= rtol * |H|_max.
SYMMETRY_RTOL = 1e-12

# Gram matrix of the eigenvector set must match identity this tightly.
ORTHONORMALITY_TOL = 1e-9

# Relative tolerance of the slope-difference root. Near a smooth minimum one
# solve more than at 1e-6 buys it; at an exact crossing, where the gap is
# linear in the location error, it keeps the gap near 1e-11 of the location.
CROSSING_XTOL = 1e-11

# Points of the coarse gap scan that brackets the minimum before refinement.
COARSE_POINTS = 17

# Largest stack of Hamiltonians a sweep solves in one call, in bytes.
SWEEP_STACK_BYTES = 4 << 20


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues along a one-parameter sweep.

    Attributes
    ----------
    parameter : str
        Dotted device path that was swept.
    values : numpy.ndarray
        Sweep values, in input order.
    energies : numpy.ndarray
        Shape (len(values), total_dim), ascending along axis 1.
    levels : tuple of int
        Selected 0-based level indices (for CSV output and track plots).
    """

    parameter: str
    values: np.ndarray
    energies: np.ndarray
    levels: tuple[int, ...]

    def selected_energies(self) -> np.ndarray:
        """Energies of the selected levels, shape (len(values), len(levels))."""
        return self.energies[:, list(self.levels)]


@dataclass(frozen=True)
class CrossingReport:
    """Location and character of a minimum gap between two sorted levels.

    The content fields hold one dict per branch (lower level first), mapping
    bare-state labels to weights |<bare|branch>|^2 of the dominant
    components; weights per branch sum to at most 1. ``content_at`` is taken
    at the gap minimum, the far fields at the bracket ends.
    """

    parameter: str
    levels: tuple[int, int]
    location: float
    gap: float
    content_at: tuple[dict[str, float], dict[str, float]]
    content_below: tuple[dict[str, float], dict[str, float]]
    content_above: tuple[dict[str, float], dict[str, float]]

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("gap must be nonnegative")
        for pair in (self.content_at, self.content_below, self.content_above):
            for content in pair:
                if sum(content.values()) > 1 + 1e-9:
                    raise ValueError("branch weights exceed 1")


def _fix_signs(vectors: np.ndarray) -> None:
    """Make the largest-magnitude component of each column positive, in place."""
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(lead < 0, -1.0, 1.0)


def diagonalize(H: np.ndarray, want_vectors: bool = True, levels: tuple[int, int] | None = None):
    """Eigen-decompose a real symmetric Hamiltonian.

    Parameters
    ----------
    H : numpy.ndarray
        Real square matrix, symmetric within relative residual 1e-12. A
        stack of shape (n, d, d) is accepted for all eigenvalues without
        vectors.
    want_vectors : bool
        Skip eigenvector computation (and sign fixing) when False.
    levels : (int, int) or None
        Solve only for these two 0-based sorted levels (LAPACK's MRRR
        driver on the index range between them); both results then hold
        just the pair, lower level first, or the one level when the two
        are equal.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Ascending eigenvalues; real eigenvectors as columns, orthonormal
        with Gram residual at most 1e-9, or None if not requested.
    """
    if np.iscomplexobj(H):
        raise TypeError("Hamiltonian must be a real array")
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"Hamiltonian must be square, got shape {H.shape}")
    # one matrix at a time: a stack-wide H - H^T would double a sweep's peak memory
    for h in H.reshape((-1,) + H.shape[-2:]):
        scale = float(np.max(np.abs(h)))
        residual = float(np.max(np.abs(h - h.T)))
        if residual > SYMMETRY_RTOL * scale:
            raise ValueError(f"matrix is not Hermitian (residual {residual / scale:.3e})")
    if levels is not None:
        from scipy.linalg import eigh

        l1, l2 = levels
        ends = sorted({0, l2 - l1})
        result = eigh(H, eigvals_only=not want_vectors, subset_by_index=[l1, l2], driver="evr")
        if not want_vectors:
            return result[ends], None
        energies, vectors = result[0][ends], result[1][:, ends]
    elif not want_vectors:
        return np.linalg.eigvalsh(H), None
    else:
        energies, vectors = np.linalg.eigh(H)
    _fix_signs(vectors)
    gram = vectors.T @ vectors
    residual = np.max(np.abs(gram - np.eye(gram.shape[0])))
    if residual > ORTHONORMALITY_TOL:
        raise RuntimeError(f"eigenvector set lost orthonormality ({residual:.3e})")
    return energies, vectors


def sweep_spectrum(
    dev: DeviceSpec,
    parameter: str,
    values,
    levels: tuple[int, ...] = (),
) -> SpectrumResult:
    """Diagonalize the device Hamiltonian at every value of one parameter.

    The points are solved as stacks of at most ``SWEEP_STACK_BYTES``, one
    per symmetry block of ``Model.sectors_for(parameter)``; with blocks, the
    energies match the full matrix's to about 1e-15 relative.

    Parameters
    ----------
    dev : DeviceSpec
    parameter : str
        Dotted path to a scalar field, e.g. ``atoms.1.omega_e``.
    values : sequence of float
        Sweep points, kept in input order.
    levels : tuple of int
        0-based sorted level indices to tag.

    Returns
    -------
    SpectrumResult
    """
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ValueError("sweep needs at least one value")
    model = Model(dev)
    dim = model.space.total_dim
    _check_levels(levels, dim)
    sectors = model.sectors_for(parameter)
    energies = np.empty((values.size, dim))
    chunk = max(1, SWEEP_STACK_BYTES // (sum(m * m for m in sectors.sizes) * 8))
    for start in range(0, values.size, chunk):
        points = values[start : start + chunk]
        stacks = [np.empty((points.size, m, m)) for m in sectors.sizes]
        for n, value in enumerate(points):
            for stack, h in zip(stacks, model.blocks(parameter, float(value))):
                stack[n] = h
        merged = []
        for stack, copies in zip(stacks, sectors.multiplicities):
            evals, _ = diagonalize(stack, want_vectors=False)
            # eigh eigenvalue sum must reproduce the trace
            trace = np.trace(stack, axis1=1, axis2=2)
            scale = np.maximum(np.maximum(np.abs(trace), np.sum(np.abs(evals), axis=1)), 1e-300)
            if np.any(np.abs(evals.sum(axis=1) - trace) > 1e-10 * scale):
                raise RuntimeError("eigenvalue sum drifted from the trace")
            merged.append(np.repeat(evals, copies, axis=1))
        energies[start : start + points.size] = np.sort(np.concatenate(merged, axis=1), axis=1)
    return SpectrumResult(parameter, values, energies, tuple(levels))


def _check_levels(levels, dim: int) -> None:
    for level in levels:
        if not 0 <= level < dim:
            raise ValueError(f"level index {level} out of range for dimension {dim}")


def _merge(values: list[np.ndarray], copies: tuple[int, ...]):
    """The sorted union of block spectra, each eigenvalue of block λ counted d_λ times.

    Also returns ``order``: full level l is entry order[l] of the layout
    that runs block by block, eigenvalue by eigenvalue, copy by copy.
    """
    flat = np.concatenate([np.repeat(v, d) for v, d in zip(values, copies)])
    order = np.argsort(flat, kind="stable")
    return flat[order], order


def _place(entry: int, blocks, copies) -> tuple[int, int, int]:
    """Block λ, local index j and copy a of an entry of ``_merge``'s layout."""
    for block, (h, d) in enumerate(zip(blocks, copies)):
        if entry < len(h) * d:
            return (block, *divmod(entry, d))
        entry -= len(h) * d
    raise IndexError(entry)


def _solve_pair(blocks, sectors, levels, want_vectors=True, slope_ops=None):
    """Two sorted levels of H from its blocks: (energies, vectors, slopes).

    The merged block spectra give the energies and place each level in its
    block (for the one block W = 1 its index is its own, and the partial
    solve gives the energies), where a partial solve by local index gives
    its u; W_{λ,a} u is its eigenvector, and u^T D_λ u its slope for the
    ``slope_ops`` D_λ.
    """
    copies, energies = sectors.multiplicities, None
    if copies == (1,):
        places = [(0, level, 0) for level in levels]
    else:
        spectrum, order = _merge([diagonalize(h, want_vectors=False)[0] for h in blocks], copies)
        energies = spectrum[list(levels)]
        if not want_vectors:
            return energies, None, None
        places = [_place(int(order[level]), blocks, copies) for level in levels]
    (b1, j1, _), (b2, j2, _) = places
    # one partial solve per block; both copies of one eigenvalue share its column
    if b1 == b2:
        solves = [(b1, *diagonalize(blocks[b1], want_vectors, levels=(j1, j2)))]
        at = [(0, 0), (0, int(j2 > j1))]
    else:
        solves = [(b, *diagonalize(blocks[b], want_vectors, levels=(j, j))) for b, j, _ in places]
        at = [(0, 0), (1, 0)]
    if energies is None:
        energies = np.array([solves[s][1][c] for s, c in at])
    if not want_vectors:
        return energies, None, None
    vectors = [sectors.copies[b][a] @ solves[s][2][:, c] for (b, _, a), (s, c) in zip(places, at)]
    if slope_ops is None:
        return energies, vectors, None
    slopes = [np.sum(v * (slope_ops[b] @ v), axis=0) for b, _, v in solves]
    return energies, vectors, np.array([slopes[s][c] for s, c in at])


def dressed_pair(model: Model, parameter: str, x: float, states) -> tuple[int, int]:
    """The two sorted levels of H(x) whose eigenvectors weigh most on the basis ``states``.

    Every block is diagonalized in full. The weight of level (λ, j, a) on
    basis state s is (W_{λ,a} u_j)_s², read off row s of W_{λ,a}.
    """
    sectors = model.sectors_for(parameter)
    values, weights = [], []
    for h, copies in zip(model.blocks(parameter, x), sectors.copies):
        evals, vecs = diagonalize(h)
        values.append(evals)
        rows = [((w[list(states)] @ vecs) ** 2).sum(axis=0) for w in copies]
        weights.append(np.stack(rows, axis=1).ravel())  # eigenvalue by eigenvalue, as _merge
    _, order = _merge(values, sectors.multiplicities)
    weight = np.concatenate(weights)[order]
    return tuple(sorted(int(k) for k in np.argsort(weight)[-2:]))


def _dominant_content(space, vector: np.ndarray, top_k: int = 3) -> dict[str, float]:
    weights = np.abs(vector) ** 2
    order = np.argsort(weights)[::-1][:top_k]
    return {space.basis_label(int(idx)): float(weights[idx]) for idx in order if weights[idx] > 1e-6}


def find_resonance(
    dev: DeviceSpec | Model,
    parameter: str,
    bracket: tuple[float, float],
    levels: tuple[int, int],
) -> CrossingReport:
    """Locate the minimum gap between two sorted levels inside a bracket.

    A coarse scan of ``COARSE_POINTS`` points establishes an interior
    minimum. Brent's method then finds the root of the slope difference of
    the two levels between the scan's neighbours of that point, to
    relative tolerance ``CROSSING_XTOL``. Each slope is the
    Hellmann–Feynman expectation v^T (dH/dx) v of the level's eigenvector;
    H is affine in every field, so dH/dx is the difference quotient of H
    over the bracket. The levels are the sorted indices at every point, and
    every solve is a partial one for those two levels only. The gap and
    the content at the crossing come from the solve at the root.

    With symmetry blocks, the merged block eigenvalues place each level in
    its block, where the partial solve runs. Inside a degenerate pair from
    the two-dimensional S_3 sector the content depends on an arbitrary
    choice of eigenvector basis, as it does for a dense solver.

    Parameters
    ----------
    dev : DeviceSpec or device.Model
        The device, or a model already assembled for it.
    parameter : str
        Dotted path of the swept field.
    bracket : (float, float)
        Search interval; must contain a gap minimum in its interior.
    levels : (int, int)
        Two different 0-based sorted level indices.

    Returns
    -------
    CrossingReport
        Gap, location, and dominant bare-state content of both branches at
        the crossing and at the bracket ends.
    """
    lo, hi = map(float, bracket)
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    pair = tuple(sorted(int(l) for l in levels))
    if pair[0] == pair[1]:
        raise ValueError(f"levels must differ, got {pair[0]} twice")
    model = dev if isinstance(dev, Model) else Model(dev)
    _check_levels(pair, model.space.total_dim)
    sectors = model.sectors_for(parameter)

    def solve(x: float, want_vectors: bool = True, slope_ops=None):
        blocks = model.blocks(parameter, x)
        return _solve_pair(blocks, sectors, pair, want_vectors, slope_ops)

    # the end points' vectors give the far content
    grid = np.linspace(lo, hi, COARSE_POINTS)
    scan = [solve(x, j in (0, COARSE_POINTS - 1)) for j, x in enumerate(grid)]
    k = int(np.argmin([evals[1] - evals[0] for evals, _, _ in scan]))
    if k == 0 or k == COARSE_POINTS - 1:
        raise ValueError("no interior gap minimum in the bracket")
    slope_ops = model.blocks(parameter, hi)
    for op, base in zip(slope_ops, model.blocks(parameter, lo)):
        op -= base
        op /= hi - lo
    # x -> (pair energies, pair vectors, pair slopes) of every solve
    solved = {}

    def slope_difference(x: float) -> float:
        if x not in solved:
            solved[x] = solve(x, slope_ops=slope_ops)
        slopes = solved[x][2]
        return float(slopes[1] - slopes[0])

    from scipy.optimize import brentq

    a, b = grid[k - 1], grid[k + 1]
    if slope_difference(a) * slope_difference(b) > 0:
        # a third level crosses one of the pair inside: keep the half whose ends differ in sign
        a, b = (a, grid[k]) if slope_difference(grid[k]) > 0 else (grid[k], b)
    location = float(brentq(slope_difference, a, b, rtol=CROSSING_XTOL))
    evals, vecs, _ = solved[location]

    def branch_content(vectors):
        return tuple(_dominant_content(model.space, v) for v in vectors)

    return CrossingReport(
        parameter=parameter,
        levels=pair,
        location=location,
        gap=float(evals[1] - evals[0]),
        content_at=branch_content(vecs),
        content_below=branch_content(scan[0][1]),
        content_above=branch_content(scan[-1][1]),
    )
