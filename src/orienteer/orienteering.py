"""Budgeted orienteering by reduction to (m,k)-TSP skeleton queries.

To visit k points within a length budget, split a hypothetical optimal path
into m roughly equal-count segments at skeleton points; dropping the segment
of largest excess and re-joining its endpoints directly leaves a path that is
shorter by that excess yet still visits a (1 - 1/m) fraction of the points.
The multi-path solver run on the skeleton's endpoint pairs recovers such a
path without knowing the optimum: the driver enumerates every ordered
skeleton tuple rooted at the start point, for k from n downward, and returns
the first in-budget concatenation.

Each segment count's skeletons form one array of rows, sorted by their
straight-line length and cut at the budget.  One whole-set table of optimal
rooted path lengths per (visit count, sink) skips every skeleton whose
joined path could not fit: a skeleton ending at s_m is tried at k only when
some rooted path to s_m over at least k points fits the budget.

The number of segments is ceil(1/delta), which makes 1/m <= delta and hence
the visit guarantee at least ceil((1 - delta) * k_opt).

The window oracle is exact within its ``point_cap``, so the rooted table
holds optimal lengths and each (m,k)-TSP read returns its skeleton's optimal
system.  The paper proves the guarantee for (m,k)-TSP queries over an
approximate window oracle, which this package does not ship.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations

import numpy as np

from .errors import InputError
from .geometry import PointSet
from .mktsp import solve_mktsp
from .paths import MultiPath, Path, concatenate, path_length
from .window_solver import ExactWindowSolver


@dataclass(frozen=True)
class OrienteeringInstance:
    points: PointSet
    root: int
    budget: float
    delta: float

    def __post_init__(self):
        if not (0 <= self.root < self.points.n):
            raise InputError("root id out of range")
        if self.budget < 0:
            raise InputError("budget must be nonnegative")
        if not (0 < self.delta < 1):
            raise InputError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class OrienteeringSolution:
    path: Path
    visited: int
    length: float
    certificate: tuple  # (k, skeleton ids) of the winning query


def segment_count(delta: float) -> int:
    """Number of skeleton segments: the least m with 1/m <= delta."""
    return max(1, math.ceil(1.0 / delta))


def skeleton_indices(k: int, m: int) -> list[int]:
    """Positions 1..k splitting a k-visit path into m segments of nearly
    equal interior counts: index i maps to ceil((i-1)(k-1)/m) + 1."""
    if k < 2:
        raise InputError("skeletons need at least two visits")
    if m < 1:
        raise InputError("need at least one segment")
    return [-(-((i - 1) * (k - 1)) // m) + 1 for i in range(1, m + 2)]


def concatenate_skeleton_paths(multi: MultiPath, skeleton) -> Path:
    """Join per-segment paths sharing skeleton junctions into one path."""
    skeleton = [int(q) for q in skeleton]
    for j, p in enumerate(multi.paths):
        if p.source != skeleton[j] or p.sink != skeleton[j + 1]:
            raise InputError(
                f"segment {j} connects ({p.source}, {p.sink}), "
                f"expected ({skeleton[j]}, {skeleton[j + 1]})"
            )
    return concatenate(list(multi.paths))


def solve_orienteering(
    instance: OrienteeringInstance,
    window_solver=None,
) -> OrienteeringSolution:
    """Maximize visits under the budget with a (1 - delta) guarantee.

    Scans k from n down to 2; for each k, tries every ordered skeleton of
    distinct points rooted at the start (using k - 1 segments when k is
    small), asks the multi-path solver for a k-visit system over the
    skeleton pairs, and returns the first concatenation within budget.  An
    accepted system at k visits exactly k points (``solve_mktsp`` raises
    ConsistencyError for a read-back that does not), so no smaller k could
    beat it.  When nothing is accepted the answer is the root alone.

    The skeleton pool of each segment count is one array of rows (root,
    tail), kept only where the straight-line skeleton length fits the budget
    and sorted by that length.  One whole-set table of optimal rooted path
    lengths then skips every k at which no rooted path fits, and every
    skeleton at k whose last point no in-budget rooted path over at least k
    points reaches.  Raises CapacityError, from that table's request, when
    the point set is over the window oracle's point cap, whatever the budget.
    """
    points = instance.points
    n = points.n
    root = instance.root
    limit = instance.budget + points.length_tolerance()
    m_full = segment_count(instance.delta)
    dmat = points.distance_matrix()

    # Certificate table, from one rooted table over the whole point set,
    # which the oracle answers exactly within its point cap: rooted[k, q] is
    # the optimal root -> q path over exactly k points.  An accepted system at k joins
    # into a root -> s_m path over exactly k distinct points, so it is at
    # least reach[k, s_m], the least rooted[k', s_m] over k' >= k.  A
    # (k + 1)-point rooted path is a k-point one plus an edge, so the least
    # rooted path never shortens as k grows, and reach[k].min() is the least
    # rooted[k, q] over q.  The request raises CapacityError past the
    # oracle's point cap, before any skeleton is tried.
    bound_solver = window_solver if window_solver is not None else ExactWindowSolver()
    table = bound_solver.rooted_table(points, range(n), root)
    rooted = table.run(n - 1)[:, points.ranks]  # table positions follow the sweep order
    del table  # rooted is a copy; free the table's kept layers before the scan
    reach = np.minimum.accumulate(rooted[::-1])[::-1]  # [k, q]

    others = [i for i in range(n) if i != root]
    skeleton_pool: dict[int, np.ndarray] = {}

    def skeletons_for(m_eff: int) -> np.ndarray:
        """Rows (root, tail) whose straight-line length, a lower bound on any
        path system over them, fits the budget; shortest first, ties in
        ``permutations`` order."""
        if m_eff not in skeleton_pool:
            rows = np.fromiter(
                chain.from_iterable((root,) + tail for tail in permutations(others, m_eff)),
                dtype=np.intp,
            ).reshape(-1, m_eff + 1)
            direct = np.zeros(len(rows))
            for j in range(m_eff):  # left to right, as Python's sum adds
                direct += dmat[rows[:, j], rows[:, j + 1]]
            fits = direct <= limit
            skeleton_pool[m_eff] = rows[fits][np.argsort(direct[fits], kind="stable")]
        return skeleton_pool[m_eff]

    for k in range(n, 1, -1):
        if reach[k].min() > limit:
            continue  # provably no k-visit rooted path fits the budget
        m_eff = min(m_full, k - 1)
        rows = skeletons_for(m_eff)
        rows = rows[reach[k, rows[:, -1]] <= limit]
        for skeleton in map(tuple, rows.tolist()):
            pairs = [(skeleton[j], skeleton[j + 1]) for j in range(m_eff)]
            result = solve_mktsp(
                points, pairs, k, window_solver=window_solver, cost_cap=instance.budget
            )
            if result is None:
                continue
            path = concatenate_skeleton_paths(result[0], skeleton)
            visited = len(set(path.visits))
            length = path_length(path)
            if length > limit:
                continue
            return OrienteeringSolution(path, visited, length, (k, skeleton))
    # k = 1 always succeeds with the trivial path at the root.
    return OrienteeringSolution(Path(points, (root,)), 1, 0.0, (1, (root,)))
