"""Budgeted orienteering by reduction to (m,k)-TSP skeleton queries.

To visit k points within a length budget, split a hypothetical optimal path
into m roughly equal-count segments at skeleton points; dropping the segment
of largest excess and re-joining its endpoints directly leaves a path that is
shorter by that excess yet still visits a (1 - 1/m) fraction of the points.
The multi-path solver run on the skeleton's endpoint pairs recovers such a
path without knowing the optimal path.  The driver reads the optimal count
k_opt off one whole-set table of optimal rooted path lengths per (visit
count, sink): the largest k with an in-budget entry.  It then tries every
ordered skeleton rooted at the start point at k_opt and returns the first
in-budget concatenation.

The skeletons form one array of rows, sorted by their straight-line length
and cut at the budget.  The same table skips every skeleton whose joined
path could not fit: one ending at s_m is tried only when some rooted path
over k_opt points ending at s_m fits the budget.

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

from .errors import ConsistencyError, InputError
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

    Reads k_opt, the largest count with an in-budget rooted path, from one
    whole-set table of optimal rooted path lengths, and returns the root
    alone when k_opt = 1.  Otherwise it tries every ordered skeleton of
    m = min(ceil(1/delta), k_opt - 1) segments rooted at the start whose
    straight-line length fits the budget and whose last point some
    in-budget rooted path over k_opt points ends at, shortest straight line
    first.  For each it asks the multi-path solver for a k_opt-visit system
    over the skeleton pairs, and returns the first concatenation within
    budget.  ``solve_mktsp`` raises ConsistencyError for a read-back over
    other than k_opt points.

    The optimal path's own skeleton is among those tried, and its system
    fits the budget, so an oracle that honours its contract always yields
    an answer; when no skeleton does, the oracle broke it and this raises
    ConsistencyError.  Raises CapacityError, from the table's request, when
    the point set is over the window oracle's point cap, whatever the budget.
    """
    points = instance.points
    n = points.n
    root = instance.root
    limit = instance.budget + points.length_tolerance()
    solver = window_solver if window_solver is not None else ExactWindowSolver()

    # One rooted table over the whole point set, which the oracle answers
    # exactly within its point cap: rooted[k, q] is the optimal root -> q
    # path over exactly k points.  The request raises CapacityError past the
    # oracle's point cap, before any skeleton is tried.
    table = solver.rooted_table(points, range(n), root)
    rooted = table.run(n - 1)[:, points.ranks]  # table positions follow the sweep order
    del table  # rooted is a copy; free the table's kept layers before the skeletons
    # The largest count with an in-budget rooted path; row 1, the root
    # alone, always has one.
    k_opt = int(np.flatnonzero(rooted.min(axis=1) <= limit).max(initial=1))
    if k_opt == 1:
        return OrienteeringSolution(Path(points, (root,)), 1, 0.0, (1, (root,)))

    # Rows (root, tail) whose straight-line length, a lower bound on any path
    # system over them, fits the budget, and whose last point ends some
    # in-budget rooted path over k_opt points; shortest first, ties in
    # ``permutations`` order.
    m = min(segment_count(instance.delta), k_opt - 1)
    others = [i for i in range(n) if i != root]
    rows = np.fromiter(
        chain.from_iterable((root,) + tail for tail in permutations(others, m)),
        dtype=np.intp,
    ).reshape(-1, m + 1)
    dmat = points.distance_matrix()
    direct = np.zeros(len(rows))
    for j in range(m):  # left to right, as Python's sum adds
        direct += dmat[rows[:, j], rows[:, j + 1]]
    keep = (direct <= limit) & (rooted[k_opt, rows[:, -1]] <= limit)
    rows = rows[keep][np.argsort(direct[keep], kind="stable")]

    for skeleton in map(tuple, rows.tolist()):
        pairs = list(zip(skeleton, skeleton[1:]))
        result = solve_mktsp(points, pairs, k_opt, window_solver=solver, cost_cap=instance.budget)
        if result is None:
            continue
        path = concatenate_skeleton_paths(result[0], skeleton)
        length = path_length(path)
        if length <= limit:
            return OrienteeringSolution(path, k_opt, length, (k_opt, skeleton))
    raise ConsistencyError(
        f"no skeleton system over {k_opt} points fits the budget, "
        "though the rooted table holds such a path"
    )
