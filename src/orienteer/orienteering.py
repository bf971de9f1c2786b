"""Budgeted orienteering by reduction to (m,k)-TSP skeleton queries.

To visit k points within a length budget, split a hypothetical optimal path
into m roughly equal-count segments at skeleton points; dropping the segment
of largest excess and re-joining its endpoints directly leaves a path that is
shorter by that excess yet still visits a (1 - 1/m) fraction of the points.
The multi-path solver run on the skeleton's endpoint pairs recovers such a
path without knowing the optimum: the driver enumerates every ordered
skeleton tuple rooted at the start point, for k from n downward, and returns
the first in-budget concatenation.

The number of segments is ceil(1/delta), which makes 1/m <= delta and hence
the visit guarantee at least ceil((1 - delta) * k_opt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .errors import CapacityError, InputError
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
    rng_seed: int = 0,
) -> OrienteeringSolution:
    """Maximize visits under the budget with a (1 - delta) guarantee.

    Scans k from n down to 2; for each k, tries every ordered skeleton of
    distinct points rooted at the start (using k - 1 segments when k is
    small), asks the multi-path solver for a k-visit system over the
    skeleton pairs, and returns the first concatenation within budget.  An
    accepted system at k visits at least k points, so no smaller k could
    beat it.  When nothing is accepted the answer is the root alone.

    Two sound lower bounds avoid solver calls for hopeless skeletons: the
    straight-line skeleton length, and the straight-line length plus the
    cheapest detour forced by having to visit extra points.
    """
    points = instance.points
    n = points.n
    root = instance.root
    tol = points.length_tolerance()
    budget = instance.budget
    m_full = segment_count(instance.delta)
    dmat = points.distance_matrix()

    # Certificate table: the optimal k-visit rooted path length for every k,
    # from one all-pairs window solve over the whole point set.  Any path a
    # skeleton query could accept at k is at least this long, so k values
    # with a certificate above the budget are skipped outright.  The table is
    # requested at delta' = 0, where the oracle contract "at most (1 + delta')
    # times the optimum" is exact, so any oracle that keeps the contract gives
    # a sound bound without a divisor.
    rooted_bound = None
    try:
        bound_solver = window_solver if window_solver is not None else ExactWindowSolver()
        table = bound_solver.single_slot_table(points, list(range(n)), delta_prime=0.0)
        rooted_bound = table.best[:, :, table.index[root]].min(axis=1)  # [k]
    except CapacityError:
        pass  # no certificate; every k goes through the skeleton scan

    others = [i for i in range(n) if i != root]
    skeleton_pool: dict[int, list] = {}

    def skeletons_for(m_eff: int) -> list:
        """(direct length, sorted forced-detour values, skeleton), ascending.

        A system over the skeleton is at least `direct` long; if it must
        visit e extra points, some extra point contributes a detour of at
        least the e-th smallest insertion cost, so direct + detours[e-1]
        is also a valid lower bound.
        """
        if m_eff not in skeleton_pool:
            pool = []
            for tail in permutations(others, m_eff):
                skeleton = (root,) + tail
                direct = sum(dmat[skeleton[j], skeleton[j + 1]] for j in range(m_eff))
                if direct > budget + tol:
                    continue  # any path system is at least this long
                ins = sorted(
                    min(
                        dmat[skeleton[j], p] + dmat[p, skeleton[j + 1]]
                        - dmat[skeleton[j], skeleton[j + 1]]
                        for j in range(m_eff)
                    )
                    for p in range(n)
                    if p not in skeleton
                )
                pool.append((direct, ins, skeleton))
            pool.sort(key=lambda item: item[0])
            skeleton_pool[m_eff] = pool
        return skeleton_pool[m_eff]

    for k in range(n, 1, -1):
        if rooted_bound is not None and rooted_bound[k] > budget + tol:
            continue  # provably no k-visit rooted path fits the budget
        m_eff = min(m_full, k - 1)
        oracle_delta = 1.0 / m_eff
        accept_visits = math.ceil((1.0 - 1.0 / m_eff) * k)
        for direct, ins, skeleton in skeletons_for(m_eff):
            extra = k - (m_eff + 1)
            if extra > len(ins):
                continue  # not enough points outside the skeleton
            if extra >= 1 and direct + ins[extra - 1] > budget + tol:
                continue
            pairs = [(skeleton[j], skeleton[j + 1]) for j in range(m_eff)]
            result = solve_mktsp(
                points,
                pairs,
                k,
                oracle_delta,
                window_solver=window_solver,
                rng_seed=rng_seed,
                cost_cap=budget,
            )
            if result is None:
                continue
            path = concatenate_skeleton_paths(result[0], skeleton)
            visited = len(set(path.visits))
            if visited < accept_visits:
                continue
            length = path_length(path)
            if length > budget + tol:
                continue
            return OrienteeringSolution(path, visited, length, (k, skeleton))
    # k = 1 always succeeds with the trivial path at the root.
    return OrienteeringSolution(Path(points, (root,)), 1, 0.0, (1, (root,)))
