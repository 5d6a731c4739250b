"""Raster grids of flood depth and resolution matching.

Values live at cell centers: ``(origin_x, origin_y)`` is the center of cell
``(row 0, col 0)`` and row indices increase northward (+y).  The ASCII file
format writes rows north-to-south per the common raster convention, so
readers/writers flip row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LocationNotOnGrid,
    MalformedArtifact,
    NodataNeighbor,
    TargetOutOfBounds,
)
from .manifest import write_file

_COORD_TOL = 1e-9  # fraction of a cell, absorbs file-format round trips


@dataclass(frozen=True, eq=False)
class Grid:
    """Rectangular raster of flood depths (m) with square cells.

    Parameters
    ----------
    origin_x, origin_y : float
        Coordinates (m) of the center of cell (0, 0), the south-west cell.
    cell_size : float
        Cell edge length in meters, > 0.
    values : ndarray, shape (n_rows, n_cols)
        Depths in meters, finite and non-negative wherever not masked.
    nodata_mask : ndarray of bool, shape (n_rows, n_cols)
        True marks cells without valid data.

    Grids compare and hash by identity; :meth:`same_geometry` compares layouts.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    values: np.ndarray
    nodata_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        object.__setattr__(self, "values", values)
        if self.nodata_mask is None:
            object.__setattr__(self, "nodata_mask", np.zeros(values.shape, dtype=bool))
        else:
            mask = np.asarray(self.nodata_mask, dtype=bool)
            if mask.shape != values.shape:
                raise ValueError("nodata_mask shape must match values")
            object.__setattr__(self, "nodata_mask", mask)
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        valid = values[~self.nodata_mask]
        if not np.all((valid >= 0) & (valid < np.inf)):  # NaN fails both
            raise ValueError("depths must be finite and non-negative outside nodata cells")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the full cell extent."""
        half = 0.5 * self.cell_size
        return (
            self.origin_x - half,
            self.origin_y - half,
            self.origin_x + (self.n_cols - 1) * self.cell_size + half,
            self.origin_y + (self.n_rows - 1) * self.cell_size + half,
        )

    def same_geometry(self, other: "Grid") -> bool:
        tol = _COORD_TOL * self.cell_size
        return (
            self.values.shape == other.values.shape
            and abs(self.cell_size - other.cell_size) <= tol
            and abs(self.origin_x - other.origin_x) <= tol
            and abs(self.origin_y - other.origin_y) <= tol
        )


@dataclass(frozen=True, eq=False)
class LocationSet:
    """Ordered set of distinct (x, y) coordinates in meters; compared by identity."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must have shape (n, 2)")
        # equal rows are adjacent in lexicographic order
        ordered = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
        if np.any((ordered[1:] == ordered[:-1]).all(axis=1)):
            raise ValueError("duplicate coordinates in LocationSet")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)


def cell_centers(grid: Grid) -> np.ndarray:
    """(x, y) of every cell center of ``grid``, row-major (south row first)."""
    cols, rows = np.meshgrid(np.arange(grid.n_cols), np.arange(grid.n_rows))
    xs = grid.origin_x + cols.ravel() * grid.cell_size
    ys = grid.origin_y + rows.ravel() * grid.cell_size
    return np.column_stack([xs, ys])


def grid_locations(grid: Grid) -> LocationSet:
    """All cell centers of ``grid`` in row-major order (south row first)."""
    return LocationSet(cell_centers(grid))


def _fractional_index(grid: Grid, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = (targets[:, 0] - grid.origin_x) / grid.cell_size
    gy = (targets[:, 1] - grid.origin_y) / grid.cell_size
    return gx, gy


def _geometry(grid: Grid) -> tuple:
    return grid.values.shape, grid.origin_x, grid.origin_y, grid.cell_size


@dataclass(frozen=True)
class BilinearStencil:
    """Flat indices of each target's four neighbours and its weights.

    Depends only on a grid's geometry, so one stencil serves every grid
    whose shape, origin and cell size are exactly those it was built for.
    """

    geometry: tuple
    corners: tuple  # flat indices (r0c0, r0c1, r1c0, r1c1)
    fx: np.ndarray
    fy: np.ndarray

    def fits(self, grid: Grid) -> bool:
        return self.geometry == _geometry(grid)


def bilinear_stencil(coarse: Grid, targets: LocationSet) -> BilinearStencil:
    """The :class:`BilinearStencil` of ``targets`` on ``coarse``'s geometry.

    Raises
    ------
    TargetOutOfBounds
        If any target lies outside the cell-center hull.
    """
    pts = targets.coords
    gx, gy = _fractional_index(coarse, pts)
    tol = _COORD_TOL
    out = (gx < -tol) | (gy < -tol) | (gx > coarse.n_cols - 1 + tol) | (gy > coarse.n_rows - 1 + tol)
    if np.any(out):
        idx = int(np.argmax(out))
        raise TargetOutOfBounds(
            f"target {tuple(pts[idx])} outside cell-center hull of grid "
            f"(check georeferencing)"
        )
    gx = np.clip(gx, 0.0, coarse.n_cols - 1)
    gy = np.clip(gy, 0.0, coarse.n_rows - 1)
    c0 = np.minimum(np.floor(gx).astype(int), coarse.n_cols - 2) if coarse.n_cols > 1 else np.zeros(len(pts), dtype=int)
    r0 = np.minimum(np.floor(gy).astype(int), coarse.n_rows - 2) if coarse.n_rows > 1 else np.zeros(len(pts), dtype=int)
    c1 = np.minimum(c0 + 1, coarse.n_cols - 1)
    r1 = np.minimum(r0 + 1, coarse.n_rows - 1)
    n_cols = coarse.n_cols
    corners = (r0 * n_cols + c0, r0 * n_cols + c1, r1 * n_cols + c0, r1 * n_cols + c1)
    return BilinearStencil(_geometry(coarse), corners, gx - c0, gy - r0)


def bilinear_interpolate(coarse: Grid, targets: LocationSet,
                         stencil: BilinearStencil | None = None) -> np.ndarray:
    """Bilinear interpolation of ``coarse`` at each target location.

    Every target must lie inside the convex hull of the coarse cell centers
    (no extrapolation into the boundary half-cell band), and all four
    surrounding cell centers must carry data.  ``stencil``, from
    :func:`bilinear_stencil` on the same targets and a grid of the same
    geometry, skips recomputing the neighbours and weights.

    Returns
    -------
    ndarray, shape (len(targets),)
        Interpolated depths; exact at cell centers.

    Raises
    ------
    TargetOutOfBounds
        If any target lies outside the cell-center hull.
    NodataNeighbor
        If any of the four neighbors of a target is nodata.
    """
    if stencil is None:
        stencil = bilinear_stencil(coarse, targets)
    elif not stencil.fits(coarse):
        raise ValueError("stencil was built for a grid of another geometry")
    i00, i01, i10, i11 = stencil.corners
    mask = coarse.nodata_mask
    bad = mask.take(i00) | mask.take(i01) | mask.take(i10) | mask.take(i11)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NodataNeighbor(
            f"nodata cell among the 4 neighbors of target {tuple(targets.coords[idx])}")

    v = coarse.values
    fx, fy = stencil.fx, stencil.fy
    return (
        (1 - fy) * ((1 - fx) * v.take(i00) + fx * v.take(i01))
        + fy * ((1 - fx) * v.take(i10) + fx * v.take(i11))
    )


@dataclass(frozen=True)
class FlattenIndex:
    """Flat index of the cell each location is the center of.

    Like :class:`BilinearStencil`, one index serves every grid of the
    geometry it was built for.
    """

    geometry: tuple
    cells: np.ndarray

    def fits(self, grid: Grid) -> bool:
        return self.geometry == _geometry(grid)


def flatten_index(grid: Grid, locations: LocationSet) -> FlattenIndex:
    """The :class:`FlattenIndex` of ``locations`` on ``grid``'s geometry.

    Raises
    ------
    LocationNotOnGrid
        If any location is not a cell center.
    """
    pts = locations.coords
    gx, gy = _fractional_index(grid, pts)
    cols = np.rint(gx).astype(int)
    rows = np.rint(gy).astype(int)
    off_grid = (
        (np.abs(gx - cols) > _COORD_TOL)
        | (np.abs(gy - rows) > _COORD_TOL)
        | (cols < 0)
        | (cols >= grid.n_cols)
        | (rows < 0)
        | (rows >= grid.n_rows)
    )
    if np.any(off_grid):
        idx = int(np.argmax(off_grid))
        raise LocationNotOnGrid(f"location {tuple(pts[idx])} is not a cell center")
    return FlattenIndex(_geometry(grid), rows * grid.n_cols + cols)


def flatten(grid: Grid, locations: LocationSet, index: FlattenIndex | None = None) -> np.ndarray:
    """Depths of ``grid`` at locations that coincide with cell centers.

    Output order follows the location index, so repeated calls across runs
    produce identically ordered vectors.  ``index``, from :func:`flatten_index`
    on the same locations and a grid of the same geometry, skips locating them.

    Raises
    ------
    LocationNotOnGrid
        If any location is not a cell center.
    NodataNeighbor
        If any location is a nodata cell.
    """
    if index is None:
        index = flatten_index(grid, locations)
    elif not index.fits(grid):
        raise ValueError("index was built for a grid of another geometry")
    nodata = grid.nodata_mask.take(index.cells)
    if np.any(nodata):
        idx = int(np.argmax(nodata))
        raise NodataNeighbor(f"location {tuple(locations.coords[idx])} is a nodata cell")
    return grid.values.take(index.cells)


# --- ASCII raster file format --------------------------------------------

NODATA_VALUE = -9999.0


def write_ascii_grid(grid: Grid, path) -> bytes:
    """Write a grid in the plain-text cell-center raster format; returns the
    sha256 digest of the bytes written.

    Header keys: ncols, nrows, xllcenter, yllcenter, cellsize, nodata_value.
    Data rows run north to south.  Values are written as ``%.17g``, which
    round-trips every float64 exactly.  Model grids repeat few depths, so
    each distinct float64 bit pattern is formatted once, all in one ``%``
    (bit patterns, not values, keep ``-0.0`` apart from ``0.0``), and each
    row is joined from those strings; the bytes are those of one ``%.17g``
    per cell.
    """
    vals = np.where(grid.nodata_mask, NODATA_VALUE, grid.values)
    bits, inverse = np.unique(vals[::-1].view(np.int64), return_inverse=True)
    texts = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split()
    rows = np.array(texts, dtype=object)[inverse.reshape(vals.shape)].tolist()
    head = (f"ncols {grid.n_cols}\n"
            f"nrows {grid.n_rows}\n"
            f"xllcenter {grid.origin_x:.17g}\n"
            f"yllcenter {grid.origin_y:.17g}\n"
            f"cellsize {grid.cell_size:.17g}\n"
            f"nodata_value {NODATA_VALUE:.17g}\n")
    return write_file(path, head, "".join([" ".join(row) + "\n" for row in rows]))


_HEADER_KEYS = (b"ncols", b"nrows", b"xllcenter", b"yllcenter", b"cellsize", b"nodata_value")


def read_ascii_grid(path) -> Grid:
    """Read a grid written by :func:`write_ascii_grid`.

    The header keys lead the file in any order and any case;
    ``nodata_value`` is optional.

    Raises
    ------
    MalformedArtifact
        If a header key is missing, a header number is not finite, a token is
        not a number (``_`` digit separators included), the value count
        disagrees with the header, or a depth is invalid.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = raw.split()
    n_head = 0
    while (n_head < 2 * len(_HEADER_KEYS) and n_head + 1 < len(tokens)
           and tokens[n_head].lower() in _HEADER_KEYS):
        n_head += 2
    keys = [key.lower() for key in tokens[:n_head:2]]
    # every key but the optional nodata_value is required
    missing = [key.decode() for key in _HEADER_KEYS[:-1] if key not in keys]
    if missing:
        raise MalformedArtifact(f"{path}: header lacks {', '.join(missing)}")
    # float() reads "1_0" as 10.0; no raster format has digit separators,
    # so the only underscores allowed are those of nodata_value keys
    if raw.count(b"_") != keys.count(b"nodata_value"):
        raise MalformedArtifact(f"{path}: '_' in a number")
    try:
        header = dict(zip(keys, map(float, tokens[1:n_head:2])))
        for key, value in header.items():
            if not math.isfinite(value):
                raise ValueError(f"header {key.decode()} is {value}, not a finite number")
        flat = np.array(tokens[n_head:], dtype=float)
        n_cols, n_rows = int(header[b"ncols"]), int(header[b"nrows"])
        if flat.size != n_rows * n_cols:
            raise ValueError(f"expected {n_rows * n_cols} values, found {flat.size}")
        values = flat.reshape(n_rows, n_cols)[::-1].copy()
        mask = values == header.get(b"nodata_value", NODATA_VALUE)
        values[mask] = 0.0
        return Grid(header[b"xllcenter"], header[b"yllcenter"], header[b"cellsize"], values, mask)
    except (OverflowError, ValueError) as err:
        raise MalformedArtifact(f"{path}: {err}") from err
