"""Exact diagonalization, parameter sweeps, and avoided-crossing location.

Hamiltonians arrive as real symmetric float64 matrices and are decomposed
with real ``eigh``/``eigvalsh``. Eigenvalues are always reported sorted
ascending and in the device's angular-frequency units. Levels are
addressed by 0-based sorted index, not by adiabatic continuation; branch
identity across a crossing is read off the reported bare-state content
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec, build_bare_hamiltonian, build_interaction_rwa, build_space, with_parameter

# A Hamiltonian must satisfy |H - H^T|_max <= rtol * |H|_max.
SYMMETRY_RTOL = 1e-12

# Gram matrix of the eigenvector set must match identity this tightly.
ORTHONORMALITY_TOL = 1e-9

# Relative location tolerance of the golden-section refinement.
CROSSING_XTOL = 1e-6

# Points of the coarse gap scan that brackets the minimum before refinement.
COARSE_POINTS = 17


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


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column positive."""
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0, -1.0, 1.0)


def diagonalize(H: np.ndarray, want_vectors: bool = True):
    """Eigen-decompose a real symmetric Hamiltonian.

    Parameters
    ----------
    H : numpy.ndarray
        Real square matrix, symmetric within relative residual 1e-12.
    want_vectors : bool
        Skip eigenvector computation (and sign fixing) when False.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Ascending eigenvalues; real eigenvectors as columns, orthonormal
        with Gram residual at most 1e-9, or None if not requested.
    """
    if np.iscomplexobj(H):
        raise TypeError("Hamiltonian must be a real array")
    scale = float(np.max(np.abs(H)))
    residual = float(np.max(np.abs(H - H.T)))
    if residual > SYMMETRY_RTOL * scale:
        raise ValueError(f"matrix is not Hermitian (residual {residual / scale:.3e})")
    if not want_vectors:
        return np.linalg.eigvalsh(H), None
    energies, vectors = np.linalg.eigh(H)
    vectors = _fix_signs(vectors)
    gram = vectors.T @ vectors
    residual = np.max(np.abs(gram - np.eye(gram.shape[0])))
    if residual > ORTHONORMALITY_TOL:
        raise RuntimeError(f"eigenvector set lost orthonormality ({residual:.3e})")
    return energies, vectors


def _hamiltonian(dev: DeviceSpec):
    space = build_space(dev)
    return space, build_bare_hamiltonian(dev, space) + build_interaction_rwa(dev, space)


def sweep_spectrum(
    dev: DeviceSpec,
    parameter: str,
    values,
    levels: tuple[int, ...] = (),
) -> SpectrumResult:
    """Diagonalize the device Hamiltonian at every value of one parameter.

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
    dim = build_space(dev).total_dim
    _check_levels(levels, dim)
    energies = np.empty((values.size, dim))
    for k, value in enumerate(values):
        point = with_parameter(dev, parameter, float(value))
        space, h = _hamiltonian(point)
        if space.total_dim != dim:
            raise ValueError("sweep parameter changes the space dimension")
        evals, _ = diagonalize(h, want_vectors=False)
        # eigh eigenvalue sum must reproduce the trace
        trace = float(np.trace(h))
        scale = max(abs(trace), float(np.sum(np.abs(evals))), 1e-300)
        if abs(evals.sum() - trace) > 1e-10 * scale:
            raise RuntimeError("eigenvalue sum drifted from the trace")
        energies[k] = evals
    return SpectrumResult(parameter, values, energies, tuple(levels))


def _check_levels(levels, dim: int) -> None:
    for level in levels:
        if not 0 <= level < dim:
            raise ValueError(f"level index {level} out of range for dimension {dim}")


def _dominant_content(space, vector: np.ndarray, top_k: int = 3) -> dict[str, float]:
    weights = np.abs(vector) ** 2
    order = np.argsort(weights)[::-1][:top_k]
    return {space.basis_label(int(idx)): float(weights[idx]) for idx in order if weights[idx] > 1e-6}


def find_resonance(
    dev: DeviceSpec,
    parameter: str,
    bracket: tuple[float, float],
    levels: tuple[int, int],
) -> CrossingReport:
    """Locate the minimum gap between two sorted levels inside a bracket.

    A coarse scan of ``COARSE_POINTS`` points establishes an interior
    minimum, which a golden-section search refines to relative location
    tolerance 1e-6.

    Parameters
    ----------
    dev : DeviceSpec
    parameter : str
        Dotted path of the swept field.
    bracket : (float, float)
        Search interval; must contain a gap minimum in its interior.
    levels : (int, int)
        The two 0-based sorted level indices.

    Returns
    -------
    CrossingReport
        Gap, location, and dominant bare-state content of both branches at
        the crossing and at the bracket ends.
    """
    lo, hi = map(float, bracket)
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    l1, l2 = sorted(int(l) for l in levels)
    _check_levels((l1, l2), build_space(dev).total_dim)

    def gap_at(x: float) -> float:
        point = with_parameter(dev, parameter, x)
        _, h = _hamiltonian(point)
        evals, _ = diagonalize(h, want_vectors=False)
        return float(evals[l2] - evals[l1])

    grid = np.linspace(lo, hi, COARSE_POINTS)
    gaps = np.array([gap_at(x) for x in grid])
    k = int(np.argmin(gaps))
    if k == 0 or k == COARSE_POINTS - 1:
        raise ValueError("no interior gap minimum in the bracket")
    from scipy.optimize import golden

    location = float(
        golden(gap_at, brack=(grid[k - 1], grid[k], grid[k + 1]), tol=CROSSING_XTOL)
    )
    gap = gap_at(location)

    def branch_content(x: float):
        point = with_parameter(dev, parameter, x)
        space, h = _hamiltonian(point)
        _, vecs = diagonalize(h)
        return (
            _dominant_content(space, vecs[:, l1]),
            _dominant_content(space, vecs[:, l2]),
        )

    return CrossingReport(
        parameter=parameter,
        levels=(l1, l2),
        location=location,
        gap=gap,
        content_at=branch_content(location),
        content_below=branch_content(lo),
        content_above=branch_content(hi),
    )
