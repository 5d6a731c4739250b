"""Experimental designs over the model parameter space.

Expensive (high-resolution) designs are maximin Latin hypercubes; cheap
(low-resolution) designs nest the expensive points and add extra maximin
LHS points.  Row order matches the run matrix convention: expensive block
first, then the cheap block (nested copies first, then extras).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedArtifact
from .manifest import csv_text, read_csv, write_file

EXPENSIVE = "expensive"
CHEAP = "cheap"


@dataclass(frozen=True)
class ParameterSpace:
    """Hyper-rectangular parameter space with named dimensions."""

    dims: tuple

    def __post_init__(self):
        dims = tuple((str(n), float(lo), float(hi)) for n, lo, hi in self.dims)
        if not dims:
            raise ValueError("parameter space needs at least one dimension")
        for name, lo, hi in dims:
            if not lo < hi:
                raise ValueError(f"dimension {name}: lower bound must be < upper")
        object.__setattr__(self, "dims", dims)

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> list[str]:
        return [d[0] for d in self.dims]

    @property
    def lower(self) -> np.ndarray:
        return np.array([d[1] for d in self.dims])

    @property
    def upper(self) -> np.ndarray:
        return np.array([d[2] for d in self.dims])

    def scale(self, points: np.ndarray) -> np.ndarray:
        """Map native-unit points onto the unit hypercube."""
        return (np.asarray(points, dtype=float) - self.lower) / (self.upper - self.lower)

    def unscale(self, unit_points: np.ndarray) -> np.ndarray:
        return self.lower + np.asarray(unit_points, dtype=float) * (self.upper - self.lower)

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=float)
        return bool(np.all(point >= self.lower) and np.all(point <= self.upper))


@dataclass(frozen=True)
class Design:
    """Parameter settings with per-point fidelity tags.

    A full nested design lists every expensive point twice: once in the
    expensive block and once in the cheap block (cheap runs happen at all
    expensive points).  Partial designs (e.g. an LHS before augmentation, or
    an edge hold-out) carry a single block; call :meth:`validate_nesting`
    where the nested layout is required.
    """

    points: np.ndarray
    fidelity: np.ndarray
    space: ParameterSpace

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        fidelity = np.asarray(self.fidelity, dtype=object)
        if points.shape[0] != fidelity.shape[0]:
            raise ValueError("points and fidelity lengths differ")
        if points.shape[1] != self.space.k:
            raise ValueError("points have wrong dimensionality for the space")
        bad = set(fidelity) - {EXPENSIVE, CHEAP}
        if bad:
            raise ValueError(f"unknown fidelity tags: {bad}")
        lo, hi = self.space.lower, self.space.upper
        if not np.all((points >= lo) & (points <= hi)):  # False for NaN too
            raise ValueError("design points outside parameter space bounds or not numbers")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "fidelity", fidelity)

    @property
    def expensive_points(self) -> np.ndarray:
        return self.points[self.fidelity == EXPENSIVE]

    @property
    def cheap_points(self) -> np.ndarray:
        return self.points[self.fidelity == CHEAP]

    @property
    def n_expensive(self) -> int:
        return int(np.sum(self.fidelity == EXPENSIVE))

    @property
    def n_cheap(self) -> int:
        return int(np.sum(self.fidelity == CHEAP))

    def validate_nesting(self) -> None:
        """Require every expensive point to also appear as a cheap point."""
        cheap = {tuple(p) for p in self.cheap_points}
        for p in self.expensive_points:
            if tuple(p) not in cheap:
                raise ValueError(f"expensive point {tuple(p)} has no cheap twin")


def _unit_lhs(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """One Latin hypercube on [0,1)^k: a jittered point per stratum per dim."""
    u = np.empty((p, k))
    for j in range(k):
        u[:, j] = (rng.permutation(p) + rng.random(p)) / p
    return u


def min_pairwise_distance(u: np.ndarray) -> float:
    """Smallest Euclidean distance between two rows of ``u``, shape (p, k).

    Bitwise equal to ``scipy.spatial.distance.pdist(u).min()``.  Rows are
    sorted by the first coordinate and compared with their neighbours at
    offset 1, 2, ...; the sweep stops at the first offset whose smallest
    squared first-coordinate gap already reaches the running minimum, since
    gaps only grow with the offset.  Squares are summed in coordinate order,
    as ``pdist`` does, and the one square root comes last: sqrt is monotone,
    so the minimum is the same number.
    """
    s = u[np.argsort(u[:, 0])]
    best = np.inf
    for offset in range(1, len(s)):
        sq = s[offset:] - s[:-offset]
        sq *= sq
        acc = sq[:, 0]
        if acc.min() >= best:
            break
        for d in range(1, s.shape[1]):
            acc += sq[:, d]
        best = min(best, acc.min())
    return float(np.sqrt(best))


def maximin_lhs(
    space: ParameterSpace,
    p: int,
    seed: int,
    n_candidates: int = 1000,
    fidelity: str = EXPENSIVE,
) -> Design:
    """Best-of-``n_candidates`` maximin Latin hypercube design.

    Candidates are jittered LHS draws; the one maximizing the minimum
    pairwise Euclidean distance in unit-scaled coordinates wins (ties keep
    the earliest candidate, so results are deterministic per seed).
    """
    if p < 2:
        raise ValueError("need at least 2 design points")
    if n_candidates < 1:
        raise ValueError("need at least 1 candidate")
    rng = np.random.default_rng(seed)
    best = None
    best_dist = -np.inf
    for _ in range(n_candidates):
        u = _unit_lhs(p, space.k, rng)
        dmin = min_pairwise_distance(u)
        if dmin > best_dist:
            best, best_dist = u, dmin
    points = space.unscale(best)
    return Design(points, np.full(p, fidelity, dtype=object), space)


def augment_cheap(expensive: Design, space: ParameterSpace, extra: int, seed: int) -> Design:
    """Nest the expensive design inside a cheap design with ``extra`` new points.

    The cheap block repeats every expensive point and appends ``extra``
    points from a fresh maximin LHS, so the output has
    ``n_expensive + (n_expensive + extra)`` rows.
    """
    exp_pts = expensive.expensive_points
    if extra > 0:
        if extra == 1:
            rng = np.random.default_rng(seed)
            new_pts = space.unscale(_unit_lhs(1, space.k, rng))
        else:
            new_pts = maximin_lhs(space, extra, seed, fidelity=CHEAP).points
        cheap_pts = np.vstack([exp_pts, new_pts])
    else:
        cheap_pts = exp_pts.copy()
    points = np.vstack([exp_pts, cheap_pts])
    fidelity = np.concatenate(
        [
            np.full(len(exp_pts), EXPENSIVE, dtype=object),
            np.full(len(cheap_pts), CHEAP, dtype=object),
        ]
    )
    out = Design(points, fidelity, space)
    out.validate_nesting()
    return out


def edge_mask(design: Design, bands) -> np.ndarray:
    """Boolean mask of expensive rows falling inside the edge bands.

    ``bands`` holds one ``(low_fraction, high_fraction)`` pair per
    dimension: a point is in-band when any coordinate sits strictly below
    the bottom fraction cut or strictly above the top fraction cut of its
    range.  Cheap rows are never flagged.
    """
    bands = np.asarray(bands, dtype=float)
    if bands.shape != (design.space.k, 2):
        raise ValueError("bands must provide (low, high) fractions per dimension")
    if np.any(bands < 0) or np.any(bands >= 0.5):
        raise ValueError("band fractions must lie in [0, 0.5)")
    lo = design.space.lower
    hi = design.space.upper
    width = hi - lo
    lo_cut = lo + bands[:, 0] * width
    hi_cut = hi - bands[:, 1] * width
    in_band = np.any((design.points < lo_cut) | (design.points > hi_cut), axis=1)
    return in_band & (design.fidelity == EXPENSIVE)


def write_design_csv(design: Design, path) -> None:
    """Write ``theta_<name>...,fidelity`` rows."""
    write_file(path, csv_text([[f"theta_{n}" for n in design.space.names] + ["fidelity"],
                               *([f"{v:.17g}" for v in point] + [tag]
                                 for point, tag in zip(design.points, design.fidelity))]))


def read_design_csv(path, space: ParameterSpace) -> Design:
    """Read a design written by :func:`write_design_csv`.

    Raises MalformedArtifact if the header does not name the space's
    dimensions, :func:`read_csv` rejects the file, or the rows do not form a
    valid :class:`Design` over ``space``.
    """
    header, rows, points = read_csv(path, slice(None, -1))
    expected = [f"theta_{n}" for n in space.names] + ["fidelity"]
    if header != expected:
        raise MalformedArtifact(f"{path}: design header {header}, expected {expected}")
    try:
        return Design(np.array(points), np.array([row[-1] for row in rows], dtype=object), space)
    except ValueError as err:
        raise MalformedArtifact(f"{path}: {err}") from err
