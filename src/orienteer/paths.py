"""Paths, multi-paths, length, excess, and edge-direction accounting.

The central quantity is the *excess* of a path: its length minus the straight
line distance between its endpoints.  All approximation guarantees in this
package are stated against excess rather than length, so these helpers are
used both by the solvers and by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from .geometry import PointSet

#: Length-bound constant for edges more than gamma radians off the endpoint
#: direction: their total length is at most OFFANGLE_COEFF / gamma^2 times the
#: path excess.
OFFANGLE_COEFF = 24.0 / 11.0


@dataclass(frozen=True)
class Path:
    """Ordered visit sequence over a host point set; first id is the source."""

    host: PointSet
    visits: tuple[int, ...]

    def __post_init__(self):
        if len(self.visits) < 1:
            raise InputError("a path visits at least one point")
        if len(set(self.visits)) != len(self.visits):
            raise InputError(f"repeated visit in path {self.visits}")
        n = self.host.n
        if any(not (0 <= v < n) for v in self.visits):
            raise InputError("visit id out of range")
        object.__setattr__(self, "visits", tuple(int(v) for v in self.visits))

    @property
    def source(self) -> int:
        return self.visits[0]

    @property
    def sink(self) -> int:
        return self.visits[-1]

    def coords(self) -> np.ndarray:
        return self.host.coords[list(self.visits)]

    def edges(self) -> list[tuple[int, int]]:
        return [(self.visits[j], self.visits[j + 1]) for j in range(len(self.visits) - 1)]

    def subpath(self, start_id: int, end_id: int) -> "Path":
        """Contiguous piece from one visited point to a later visited point."""
        i = self.visits.index(start_id)
        j = self.visits.index(end_id)
        if i > j:
            raise InputError(f"{start_id} is visited after {end_id}")
        return Path(self.host, self.visits[i : j + 1])


@dataclass(frozen=True)
class MultiPath:
    """A list of paths with prescribed endpoints, disjoint on interior visits.

    Prescribed endpoints may coincide across paths (e.g. chained pairs), but a
    point that is interior to some path may not appear on any other path.
    """

    paths: tuple[Path, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        interior: set[int] = set()
        all_visited: list[set[int]] = [set(p.visits) for p in self.paths]
        for idx, p in enumerate(self.paths):
            for v in p.visits[1:-1]:
                interior.add(v)
                for other_idx, other in enumerate(all_visited):
                    if other_idx != idx and v in other:
                        raise InputError(
                            f"point {v} is interior to path {idx} but also visited by path {other_idx}"
                        )

    def visited_ids(self) -> set[int]:
        out: set[int] = set()
        for p in self.paths:
            out.update(p.visits)
        return out


def path_length(path: Path) -> float:
    """Sum of consecutive distances, read from the host's shared distance
    matrix; 0 for a single-point path."""
    v = path.visits
    if len(v) < 2:
        return 0.0
    return float(path.host.distance_matrix()[v[:-1], v[1:]].sum())


def excess(path: Path) -> float:
    """Length minus the straight-line distance between the endpoints.

    Nonnegative by the triangle inequality; zero exactly when every visit
    lies on the endpoint segment in order.
    """
    return path_length(path) - path.host.distance(path.source, path.sink)


def multipath_excess(multi: MultiPath) -> float:
    return sum(excess(p) for p in multi.paths)


def directed_edge_partition(path: Path, axis) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split edges into (forward, backward) by the sign of their axis projection.

    An edge with exactly zero projection counts as forward; the tie-broken
    sweep order makes this case measure-zero for generic inputs.
    """
    axis = np.asarray(axis, dtype=float)
    nrm = np.linalg.norm(axis)
    if not np.isclose(nrm, 1.0, rtol=0, atol=1e-9):
        raise InputError("axis must be a unit vector")
    forward, backward = [], []
    coords = path.host.coords
    for u, v in path.edges():
        if float(np.dot(coords[v] - coords[u], axis)) > 0.0:
            forward.append((u, v))
        else:
            backward.append((u, v))
    return forward, backward


def edge_set_length(path_host: PointSet, edges) -> float:
    return sum(path_host.distance(u, v) for u, v in edges)


def offangle_edge_mass(path: Path, gamma: float) -> float:
    """Total length of edges whose direction is more than `gamma` radians away
    from the path's source-to-sink direction.

    For any path this mass is at most OFFANGLE_COEFF / gamma^2 times the path
    excess: an edge at angle > gamma projects onto the endpoint direction with
    a deficit of at least (11/24) * gamma^2 of its length, and those deficits
    sum to at most the excess.
    """
    if not (0.0 < gamma <= 1.0):
        raise InputError("gamma must be in (0, 1]")
    if len(path.visits) < 2:
        raise InputError("need at least two visits")
    coords = path.host.coords
    endpoint_vec = coords[path.sink] - coords[path.source]
    nrm = np.linalg.norm(endpoint_vec)
    if nrm == 0.0:
        raise InputError("path endpoints coincide; direction undefined")
    u = endpoint_vec / nrm
    mass = 0.0
    for a, b in path.edges():
        e = coords[b] - coords[a]
        elen = float(np.linalg.norm(e))
        if elen == 0.0:
            continue
        ang = float(np.arccos(np.clip(np.dot(e, u) / elen, -1.0, 1.0)))
        if ang > gamma:
            mass += elen
    return mass


def concatenate(paths: list[Path]) -> Path:
    """Join paths sharing exactly their junction endpoints into one path."""
    if not paths:
        raise InputError("nothing to concatenate")
    visits = list(paths[0].visits)
    for nxt in paths[1:]:
        if nxt.source != visits[-1]:
            raise ConsistencyError(
                f"junction mismatch: previous sink {visits[-1]}, next source {nxt.source}"
            )
        visits.extend(nxt.visits[1:])
    return Path(paths[0].host, tuple(visits))
