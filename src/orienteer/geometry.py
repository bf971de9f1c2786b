"""Points, point sets, distances and rigid motions.

Everything downstream works over a ``PointSet``: an immutable (n, d) array of
coordinates whose implicit ids are the row indices 0..n-1.  The sweep axis is
always the first coordinate.  Instead of perturbing coordinates to break ties
on the sweep axis, points are compared by the key

    (coords[0], coords[1], ..., coords[d-1], id)

which is a strict total order on any point set and never changes a distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError

#: Length comparisons allow this slack relative to the instance diameter.
LENGTH_RTOL = 1e-9

#: A difference whose largest entry is below this is scaled by that entry
#: before its norm is taken: ``np.linalg.norm`` squares the entries, and
#: the squares would underflow (to 0 for two points a subnormal apart).
TINY = 1e-150


def _norm(v: np.ndarray) -> float:
    """Length of one difference vector; every vector but a tiny one (see
    ``TINY``) takes ``np.linalg.norm``'s own float path."""
    scale = np.abs(v).max()
    if 0.0 < scale < TINY:
        return float(scale * np.linalg.norm(v / scale))
    return float(np.linalg.norm(v))


def norms(diff: np.ndarray) -> np.ndarray:
    """Lengths of the difference vectors along the last axis, each tiny one
    (see ``TINY``) scaled first as in ``_norm``."""
    out = np.linalg.norm(diff, axis=-1)
    scale = np.abs(diff).max(axis=-1)
    tiny = (scale > 0.0) & (scale < TINY)
    out[tiny] = scale[tiny] * np.linalg.norm(diff[tiny] / scale[tiny, None], axis=-1)
    return out


def unit_vector(v: np.ndarray) -> np.ndarray:
    """v / |v| for a nonzero v; a tiny v (see ``TINY``) is scaled by its
    largest entry first, and every other v takes the plain float path."""
    scale = np.abs(v).max()
    if scale < TINY:
        v = v / scale
    return v / np.linalg.norm(v)


def dist(p, q) -> float:
    """Euclidean distance between two points of equal dimension."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InputError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return _norm(p - q)


def angle_to_axis(v) -> float:
    """Angle in [0, pi] between a nonzero vector and the sweep axis."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise InputError("zero vector has no direction")
    return float(np.arccos(np.clip(v[0] / norm, -1.0, 1.0)))


class PointSet:
    """Immutable indexed set of points in R^d with a tie-broken sweep order."""

    def __init__(self, coords):
        coords = np.array(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise InputError("coords must be a nonempty (n, d) array")
        if not np.all(np.isfinite(coords)):
            raise InputError("coordinates must be finite")
        coords.setflags(write=False)
        self.coords = coords
        self._sweep_order: np.ndarray | None = None
        self._ranks: np.ndarray | None = None
        self._distance_matrix: np.ndarray | None = None
        self._distance_rows: list | None = None

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.coords[i]

    @property
    def sweep_order(self) -> np.ndarray:
        """Ids sorted by (x, remaining coords lexicographically, id)."""
        if self._sweep_order is None:
            ids = np.arange(self.n)
            keys = [ids] + [self.coords[:, j] for j in range(self.dim - 1, -1, -1)]
            self._sweep_order = np.lexsort(keys)
            self._sweep_order.setflags(write=False)
        return self._sweep_order

    @property
    def ranks(self) -> np.ndarray:
        """ranks[id] = position of the point in the sweep order."""
        if self._ranks is None:
            r = np.empty(self.n, dtype=int)
            r[self.sweep_order] = np.arange(self.n)
            r.setflags(write=False)
            self._ranks = r
        return self._ranks

    def sweep_before(self, i: int, j: int) -> bool:
        """True iff point i precedes point j in the tie-broken sweep order."""
        return self.ranks[i] < self.ranks[j]

    def distance(self, i: int, j: int) -> float:
        return _norm(self.coords[i] - self.coords[j])

    def distance_matrix(self) -> np.ndarray:
        """All pairwise distances, computed once and shared read-only."""
        if self._distance_matrix is None:
            dmat = norms(self.coords[:, None, :] - self.coords[None, :, :])
            dmat.setflags(write=False)
            self._distance_matrix = dmat
        return self._distance_matrix

    def distance_rows(self) -> list[list[float]]:
        """``distance_matrix`` as nested lists, built once and shared; for
        scalar reads in Python loops.  Callers must not write to it."""
        if self._distance_rows is None:
            self._distance_rows = self.distance_matrix().tolist()
        return self._distance_rows

    def diameter(self) -> float:
        if self.n == 1:
            return 0.0
        return float(self.distance_matrix().max())

    def length_tolerance(self) -> float:
        """Slack for comparing path lengths on this set.

        Purely relative to the diameter, so a comparison gives the same
        verdict at every scale of the same instance.
        """
        return LENGTH_RTOL * self.diameter()

    def transformed(self, transform: "Transform") -> "PointSet":
        """New PointSet with the same ids under a rigid motion."""
        return PointSet(transform.apply(self.coords))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.dim})"


@dataclass(frozen=True)
class Transform:
    """Distance-preserving map y = R @ (x - shift) with R orthogonal."""

    rotation: np.ndarray
    shift: np.ndarray

    def apply(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return (coords - self.shift) @ self.rotation.T

    def apply_inverse(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return coords @ self.rotation + self.shift

    @staticmethod
    def identity(dim: int) -> "Transform":
        return Transform(np.eye(dim), np.zeros(dim))


def rotation_mapping_to_axis(direction: np.ndarray) -> np.ndarray:
    """Orthogonal matrix R with R @ u = e_1 for the unit vector u of `direction`.

    Built by completing u to an orthonormal basis (Gram-Schmidt over the
    standard basis); a rotation when possible, a reflection when the
    orientation cannot be preserved (e.g. reversing a direction in d = 1).
    Either way all distances are preserved exactly.
    """
    u = np.asarray(direction, dtype=float)
    if not u.any():
        raise DegenerateInputError("cannot rotate a zero direction onto the axis")
    u = unit_vector(u)
    d = u.shape[0]
    rows = [u]
    for j in range(d):
        cand = np.zeros(d)
        cand[j] = 1.0
        for r in rows:
            cand = cand - np.dot(cand, r) * r
        nrm = np.linalg.norm(cand)
        if nrm > 1e-10:
            rows.append(cand / nrm)
        if len(rows) == d:
            break
    rotation = np.stack(rows)
    if d > 1 and np.linalg.det(rotation) < 0:
        rotation[-1] = -rotation[-1]
    return rotation


def rotate_to_axis(points: PointSet, source: int, sink: int) -> tuple[PointSet, Transform]:
    """Rigid motion placing `source` at the origin and `sink` on the positive sweep axis.

    In the returned frame the two anchor points differ only in the first
    coordinate, with the source strictly left of the sink.  All pairwise
    distances are preserved (rotation plus translation).
    """
    s = points.point(source)
    t = points.point(sink)
    if np.array_equal(s, t):
        raise DegenerateInputError("source and sink coincide; no axis direction")
    rotation = rotation_mapping_to_axis(t - s)
    transform = Transform(rotation, s.copy())
    return points.transformed(transform), transform
