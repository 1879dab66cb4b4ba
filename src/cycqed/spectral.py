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

A crossing probe solves only its two levels. Past the coarse scan, a
search whose pair sits in the same blocks at both ends of its bracket
solves only those blocks. On a block of at least ``PAIR_SPARSE_DIM``, a
probe solves its pair by shift-invert Lanczos (Ericsson and Ruhe, Math.
Comp. 35, 1251, 1980) about the last probe's pair midpoint σ; the inertia
of the factor of H − σ counts the levels below σ (Sylvester's law; Parlett,
The Symmetric Eigenvalue Problem, 1980, ch. 3), which fixes the found
levels' sorted indices. A probe whose checks fail takes the dense solve,
and one dense values-only solve at the root confirms the search.

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

# Smallest block whose crossing probes solve the pair by shift-invert Lanczos.
# Per probe that beats the dense partial solve from about 170 states on: by
# 1.2-1.35x at 180-189 and by 1.5x or more from 216, while at 162 the two
# are even (timing table in ROADMAP item 17).
PAIR_SPARSE_DIM = 170

# Lanczos basis size of a sparse pair solve.
PAIR_NCV = 8

# A sparse pair's residuals, its distance from the shift, and its agreement
# with the dense values at the root, relative to the largest |H|.
PAIR_RTOL = 1e-12


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
        Ascending eigenvalues; real eigenvectors as columns, each with a
        positive largest component, orthonormal with Gram residual at most
        1e-9, or None if not requested.
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


def _pattern(*blocks) -> tuple[np.ndarray, ...]:
    """CSC layout of every block whose nonzeros lie within those of ``blocks`` or on the diagonal.

    Returns (indptr, row indices, positions in the flattened block, slots of
    the diagonal). H is affine in a swept field, so the blocks at the two ends
    of a bracket hold the nonzeros of every point between them.
    """
    size = len(blocks[0])
    mask = np.eye(size, dtype=bool)
    for h in blocks:
        mask |= h != 0
    columns, rows = np.nonzero(mask.T)  # column by column
    indptr = np.searchsorted(columns, np.arange(size + 1)).astype(np.int32)
    return indptr, rows.astype(np.int32), rows * size + columns, np.flatnonzero(rows == columns)


def _sparse_pair(h: np.ndarray, pattern, j: int, sigma: float):
    """Levels j and j + 1 of a symmetric block by shift-invert Lanczos about σ, or None.

    ``splu`` of H − σ in symmetric mode with diagonal pivots factors it as
    P L D Lᵀ Pᵀ, so by Sylvester's law of inertia its negative pivots count
    the levels below σ. ``eigsh`` finds the two levels nearest σ with that
    factor as its inverse, and the count turns them into sorted indices.
    None unless every check holds: equal row and column permutations, no
    zero pivot, σ clear of both levels, the indices j and j + 1, ARPACK
    converged, and the Gram matrix and the residuals within
    ``ORTHONORMALITY_TOL`` and ``PAIR_RTOL`` of the largest |H|.
    """
    from scipy import sparse
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    indptr, rows, flat, diagonal = pattern
    data = h.take(flat)
    scale = PAIR_RTOL * float(np.max(np.abs(data)))
    data[diagonal] -= sigma
    shifted = sparse.csc_matrix((data, rows, indptr), shape=h.shape)
    try:
        factor = splu(
            shifted, "MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError:  # exactly singular
        return None
    pivots = factor.U.diagonal()
    if not np.array_equal(factor.perm_r, factor.perm_c) or not np.all(pivots):
        return None
    inverse = LinearOperator(h.shape, matvec=factor.solve, dtype=float)
    start = np.random.default_rng(0).standard_normal(len(h))  # fixed: every probe is deterministic
    try:
        _, vectors = eigsh(shifted, k=2, sigma=sigma, OPinv=inverse, v0=start, ncv=PAIR_NCV, tol=0)
    except ArpackError:  # no convergence too
        return None
    image = shifted @ vectors
    offsets = np.sum(vectors * image, axis=0)  # Rayleigh quotients of H - σ
    order = np.argsort(offsets)
    offsets, vectors, image = offsets[order], vectors[:, order], image[:, order]
    first = np.count_nonzero(pivots < 0) - np.count_nonzero(offsets < 0)
    gram = vectors.T @ vectors
    if (
        first != j
        or np.min(np.abs(offsets)) <= scale
        or np.max(np.abs(gram - np.eye(2))) > ORTHONORMALITY_TOL
        or np.max(np.abs(image - vectors * offsets)) > scale
    ):
        return None
    _fix_signs(vectors)
    return sigma + offsets, vectors


def _block_pair(h, local, want_vectors, pattern=None, sigma=None):
    """Levels ``local`` of one block: shift-invert about ``sigma`` when it certifies, else dense."""
    j1, j2 = local
    if pattern is not None and sigma is not None and j2 == j1 + 1:
        found = _sparse_pair(h, pattern, j1, sigma)
        if found is not None:
            return found if want_vectors else (found[0], None)
    return diagonalize(h, want_vectors, levels=local)


def _solve_pair(
    blocks, sectors, levels, want_vectors=True, slope_ops=None, places=None, patterns=None,
    sigma=None,
):
    """Two sorted levels of H from its blocks: (energies, vectors, slopes, places).

    Without ``places``, the merged block spectra give the energies and place
    each level (λ, j, a) in its block; for the one block W = 1 its index is
    its own, and the partial solve gives the energies. Given the ``places``
    of an earlier merge, no merge runs and the energies come from the
    partial solves. A partial solve by local index gives each level's u, by
    shift-invert about ``sigma`` in a block with a sparse layout in
    ``patterns`` when its certificate holds; W_{λ,a} u is its eigenvector,
    and u^T D_λ u its slope for the ``slope_ops`` D_λ.
    """
    copies, energies = sectors.multiplicities, None
    if places is None:
        if copies == (1,):
            places = tuple((0, level, 0) for level in levels)
        else:
            spectrum, order = _merge([diagonalize(h, want_vectors=False)[0] for h in blocks], copies)
            energies = spectrum[list(levels)]
            places = tuple(_place(int(order[level]), blocks, copies) for level in levels)
            if not want_vectors:
                return energies, None, None, places
    patterns = patterns or [None] * len(blocks)
    (b1, j1, _), (b2, j2, _) = places
    # one partial solve per block; both copies of one eigenvalue share its column
    if b1 == b2:
        solves = [(b1, *_block_pair(blocks[b1], (j1, j2), want_vectors, patterns[b1], sigma))]
        at = [(0, 0), (0, int(j2 > j1))]
    else:
        solves = [(b, *diagonalize(blocks[b], want_vectors, levels=(j, j))) for b, j, _ in places]
        at = [(0, 0), (1, 0)]
    if energies is None:
        energies = np.array([solves[s][1][c] for s, c in at])
    if not want_vectors:
        return energies, None, None, places
    vectors = [sectors.copies[b][a] @ solves[s][2][:, c] for (b, _, a), (s, c) in zip(places, at)]
    if slope_ops is None:
        return energies, vectors, None, places
    slopes = [np.sum(v * (slope_ops[b] @ v), axis=0) for b, _, v in solves]
    return energies, vectors, np.array([slopes[s][c] for s, c in at]), places


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
    its block, where the partial solve runs. When the scan places the pair
    alike at both neighbours of its minimum, Brent's probes solve only the
    pair's block(s), with no merge. Inside a degenerate pair from the
    two-dimensional S_3 sector the content depends on an arbitrary choice
    of eigenvector basis, as it does for a dense solver.

    On a block of at least ``PAIR_SPARSE_DIM`` states, every probe after
    the first solves the pair by shift-invert Lanczos about the previous
    probe's pair midpoint, and takes its sorted indices from the inertia of
    the shifted factor; any failed check falls back to the dense partial
    solve. At the root, one dense values-only solve (the merge of all
    blocks, or the one block's partial solve) must place the pair as
    assumed and agree with its energies to ``PAIR_RTOL`` of the largest
    |H|; its energies give the gap. If it does not, the root search reruns
    with a merge and a dense solve at every probe.

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
    # the sparse layouts of the blocks that take sparse probes (ARPACK needs
    # more states than Lanczos vectors), and the slope operators in place
    slope_ops, patterns = model.blocks(parameter, hi), []
    for op, base in zip(slope_ops, model.blocks(parameter, lo)):
        large = len(op) >= max(PAIR_SPARSE_DIM, PAIR_NCV + 1)
        patterns.append(_pattern(op, base) if large else None)
        op -= base
        op /= hi - lo
    sigma = None  # the last probe's pair midpoint, the shift of the next sparse probe

    def solve(x, want_vectors=True, slopes=False, places=None, sparse=True):
        nonlocal sigma
        found = _solve_pair(
            model.blocks(parameter, x), sectors, pair, want_vectors,
            slope_ops if slopes else None, places, patterns if sparse else None, sigma,
        )
        sigma = 0.5 * (found[0][0] + found[0][1])
        return found

    # the end points' vectors give the far content
    grid = np.linspace(lo, hi, COARSE_POINTS)
    scan = [solve(x, j in (0, COARSE_POINTS - 1)) for j, x in enumerate(grid)]
    k = int(np.argmin([evals[1] - evals[0] for evals, *_ in scan]))
    if k == 0 or k == COARSE_POINTS - 1:
        raise ValueError("no interior gap minimum in the bracket")

    from scipy.optimize import brentq

    def root(places):
        """Brent's root of the slope difference.

        With ``places`` every probe solves only the placed blocks, sparse
        where it can; without, every probe merges all blocks and solves densely.
        """
        nonlocal sigma
        sigma = 0.5 * (scan[k - 1][0][0] + scan[k - 1][0][1])
        # x -> (pair energies, pair vectors, pair slopes, places) of every solve
        solved = {}

        def slope_difference(x: float) -> float:
            if x not in solved:
                solved[x] = solve(x, slopes=True, places=places, sparse=places is not None)
            slopes = solved[x][2]
            return float(slopes[1] - slopes[0])

        a, b = grid[k - 1], grid[k + 1]
        if slope_difference(a) * slope_difference(b) > 0:
            # a third level crosses one of the pair inside: keep the half whose ends differ in sign
            a, b = (a, grid[k]) if slope_difference(grid[k]) > 0 else (grid[k], b)
        location = float(brentq(slope_difference, a, b, rtol=CROSSING_XTOL))
        return location, solved[location]

    # equal placements at both neighbours let every probe solve only the pair's block(s)
    places = scan[k - 1][3] if scan[k - 1][3] == scan[k + 1][3] else None
    location, (evals, vecs, _, _) = root(places)
    # unless the search is one dense block, confirm it with dense values at the root
    if places is not None and (len(sectors.sizes) > 1 or patterns[0] is not None):
        blocks = model.blocks(parameter, location)
        confirmed, _, _, placed = _solve_pair(blocks, sectors, pair, want_vectors=False)
        tolerance = PAIR_RTOL * max(float(np.max(np.abs(h))) for h in blocks)
        if placed == places and np.max(np.abs(confirmed - evals)) <= tolerance:
            evals = confirmed
        else:
            location, (evals, vecs, _, _) = root(None)

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
