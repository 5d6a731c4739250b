"""Principal-component reduction of concatenated model-run matrices.

The run matrix stacks expensive rows first, then cheap rows interpolated to
the same locations.  Columns are centered by their mean over all rows, the
principal components are taken from the eigendecomposition of the p x p
Gram matrix of the centered runs (the method of snapshots), and enough
scaled eigenvectors (sqrt(eigenvalue) * eigenvector of the sample
covariance) are retained to explain the target variance fraction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import deferred
from .design import CHEAP, EXPENSIVE, Design
from .errors import DegenerateEnsemble, DimensionMismatch, MalformedArtifact
from .grid import (Grid, LocationSet, bilinear_interpolate, bilinear_stencil, flatten,
                   flatten_index)
from .manifest import read_archive, read_manifest, write_archive

(eigh,) = deferred(globals(), "scipy.linalg", "eigh")

CENTERING_DIVISOR = "p-1"  # sample covariance convention used for eigenvalues


@dataclass(frozen=True)
class RunEnsemble:
    """Depth matrix for a nested design, expensive rows first.

    ``depths`` has one row per design row and one column per location.
    """

    depths: np.ndarray
    design: Design
    locations: LocationSet

    def __post_init__(self):
        depths = np.asarray(self.depths, dtype=float)
        if depths.shape[0] != len(self.design.points):
            raise ValueError("row count must equal total design points")
        if depths.shape[1] != len(self.locations):
            raise ValueError("column count must equal location count")
        if not np.all(self.design.fidelity[: self.design.n_expensive] == "expensive"):
            raise ValueError("expensive rows must come first")
        object.__setattr__(self, "depths", depths)


@dataclass(frozen=True)
class ReducedBasis:
    """Column means plus the retained scaled-eigenvector basis.

    ``components`` columns are sqrt(eigenvalue)-scaled eigenvectors, so
    ``components.T @ components`` is diagonal with the eigenvalues.
    """

    column_mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    variance_fraction: float
    total_variance: float
    target_fraction: float

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    @property
    def n_locations(self) -> int:
        return self.components.shape[0]


def build_ensemble(
    expensive_grids: Iterable[Grid],
    cheap_grids: Iterable[Grid],
    design: Design,
    locations: LocationSet,
) -> RunEnsemble:
    """Assemble the run matrix on shared locations.

    Expensive grids are read off directly (locations must be their cell
    centers), with the cells located once per fine geometry; cheap grids are
    matched by bilinear interpolation, with the neighbours and weights
    computed once per coarse geometry.  Each grid is dropped once placed, so
    lazy iterables hold one grid at a time.
    """
    design.validate_nesting()
    depths, index, stencil = np.empty((len(design.points), len(locations))), None, None
    grids = {EXPENSIVE: iter(expensive_grids), CHEAP: iter(cheap_grids)}
    for i, tag in enumerate(design.fidelity):
        grid = next(grids[tag], None)
        if grid is None:
            raise ValueError(f"{tag} grid count does not match design")
        if tag == EXPENSIVE:
            if index is None or not index.fits(grid):
                index = flatten_index(grid, locations)
            depths[i] = flatten(grid, locations, index)
            continue
        if stencil is None or not stencil.fits(grid):
            stencil = bilinear_stencil(grid, locations)
        depths[i] = bilinear_interpolate(grid, locations, stencil)
    for tag, rest in grids.items():
        if next(rest, None) is not None:
            raise ValueError(f"{tag} grid count does not match design")
    return RunEnsemble(depths, design, locations)


def fit_basis(ensemble: RunEnsemble, target_fraction: float = 0.95) -> ReducedBasis:
    """:func:`fit_basis_in_place`'s basis, from a copy of ``ensemble.depths``."""
    return fit_basis_in_place(ensemble.depths.copy(), target_fraction)[0]


def fit_basis_in_place(depths: np.ndarray, target_fraction: float = 0.95
                       ) -> tuple[ReducedBasis, np.ndarray]:
    """Retain the fewest principal components explaining ``target_fraction``; returns
    the basis and the scores of ``depths`` as given, bitwise ``project(basis, depths)``.

    ``depths``, a C-ordered p x N run matrix, is centered in place.  With
    ``X`` the centered run matrix, the nonzero eigenvalues of the
    sample covariance ``X^T X / (p-1)`` are those of the p x p Gram matrix
    ``G = X X^T`` over p-1, and an eigenvector ``u`` of ``G`` gives the
    scaled component ``X^T u / sqrt(p-1)``.  This costs O(p^2 N) instead of
    a tall SVD; retained eigenvalues are accurate to about
    p * eps * lambda_1 / lambda_j relative.  Component signs are fixed so
    each one's largest-magnitude entry is positive, making the result
    deterministic for a given input.

    Raises
    ------
    DegenerateEnsemble
        If all rows are identical (zero total variance).
    """
    p = depths.shape[0]
    if p < 2:
        raise ValueError("need at least two runs")
    if not 0 < target_fraction <= 1:
        raise ValueError("target_fraction must be in (0, 1]")
    scale = max(1.0, float(depths.max()), float(-depths.min()))  # max |depth|, no temporary
    mean = depths.mean(axis=0)
    centered = np.subtract(depths, mean, out=depths)
    gram_values, gram_vectors = eigh(centered @ centered.T)
    gram_values, gram_vectors = np.clip(gram_values[::-1], 0.0, None), gram_vectors[:, ::-1]
    if np.sqrt(gram_values[0]) <= max(depths.shape) * np.finfo(float).eps * scale:
        raise DegenerateEnsemble("all runs identical: zero variance to reduce")

    eigenvalues = gram_values / (p - 1)
    total = float(eigenvalues.sum())
    fractions = np.cumsum(eigenvalues) / total
    n_keep = int(np.searchsorted(fractions, target_fraction - 1e-12) + 1)
    n_keep = min(n_keep, len(eigenvalues))

    components = centered.T @ (gram_vectors[:, :n_keep] / np.sqrt(p - 1))
    for j in range(n_keep):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    basis = ReducedBasis(
        column_mean=mean,
        components=components,
        eigenvalues=eigenvalues[:n_keep].copy(),
        variance_fraction=float(fractions[n_keep - 1]),
        total_variance=total,
        target_fraction=float(target_fraction),
    )
    return basis, centered @ basis.components / basis.eigenvalues


def project(basis: ReducedBasis, rows: np.ndarray) -> np.ndarray:
    """Score rows against the basis: (rows - mean) K (K^T K)^{-1}."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != basis.n_locations:
        raise DimensionMismatch(
            f"rows have {rows.shape[1]} columns, basis expects {basis.n_locations}"
        )
    return (rows - basis.column_mean) @ basis.components / basis.eigenvalues


def reconstruct(basis: ReducedBasis, scores: np.ndarray) -> np.ndarray:
    """Map scores back to depth space: scores K^T + mean."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if scores.shape[1] != basis.n_components:
        raise DimensionMismatch(
            f"scores have {scores.shape[1]} columns, basis has {basis.n_components}"
        )
    return scores @ basis.components.T + basis.column_mean


# --- archive --------------------------------------------------------------

# The basis archive's files and array shapes (manifest.py): p locations, J components.
BASIS_ARCHIVE = {"basis.json": None, "column_mean.npy": ("p",), "components.npy": ("p", "J"),
                 "eigenvalues.npy": ("J",)}
_SUMMARY = ("variance_fraction", "total_variance", "target_fraction")  # kept in basis.json
ORTHOGONALITY_TOL = 1e-10  # on |K^T K - diag(eigenvalues)|, relative to the first eigenvalue


def save_basis(basis: ReducedBasis, directory) -> None:
    """Write the basis as .npy arrays plus a JSON manifest."""
    write_archive(directory, BASIS_ARCHIVE, {
        "basis.json": {"n_components": basis.n_components, "centering_divisor": CENTERING_DIVISOR,
                       **{key: getattr(basis, key) for key in _SUMMARY}},
        **{f"{name}.npy": getattr(basis, name)
           for name in ("column_mean", "components", "eigenvalues")},
    })


def load_basis(directory) -> ReducedBasis:
    """Read a basis written by :func:`save_basis`.

    Raises MalformedArtifact if a file is unreadable or lacks a manifest key,
    an array disagrees with ``BASIS_ARCHIVE`` for the manifest's component
    count or holds a value that is not finite, the eigenvalues are not > 0
    and descending, or ``K^T K`` is not ``diag(eigenvalues)`` to
    ``ORTHOGONALITY_TOL`` times the first eigenvalue.
    """
    directory = Path(directory)
    try:
        manifest = read_manifest(directory / "basis.json")
        n_components, summary = manifest["n_components"], {key: manifest[key] for key in _SUMMARY}
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(f"{directory}: unreadable basis archive: {err!r}") from err
    arrays = read_archive(directory, BASIS_ARCHIVE, {"J": n_components})
    components, eigenvalues = arrays["components"], arrays["eigenvalues"]
    if not np.all(eigenvalues > 0):
        raise MalformedArtifact(f"{directory}: eigenvalues must be finite and > 0")
    if np.any(eigenvalues[1:] > eigenvalues[:-1]):
        raise MalformedArtifact(f"{directory}: eigenvalues must be in descending order")
    with np.errstate(over="ignore"):  # an overflow is a failed check, reported below
        gram = components.T @ components
    gram[np.diag_indices_from(gram)] -= eigenvalues
    if not np.all(np.abs(gram) <= ORTHOGONALITY_TOL * eigenvalues[:1]):  # NaN fails too
        raise MalformedArtifact(f"{directory}: components.T @ components is not "
                                f"diag(eigenvalues) to {ORTHOGONALITY_TOL:g} of the first")
    return ReducedBasis(**arrays, **summary)
