"""Exact solver for path systems inside a window.

Given a set of candidate points, per-slot endpoint prescriptions (or null for
an idle slot) and a visit count, ``solve_window`` returns the cheapest way to
route one path per active slot through exactly that many distinct points.
The search is one bitmask dynamic program that takes the active slots in
index order.  A slot's open states are keyed by (visited set, current point)
in layers by visit count, and its closed states by visited set; moving to the
next slot costs nothing, since the objective is the plain sum of path
lengths.  The DP reads the host's shared ``distance_rows`` by point id, with
one mask bit per id.  ``solve_lengths`` keeps no parent links.
``solve_window`` keeps them per slot, expands no state that already has k
visits and reads its system back along them.  The oracle keeps no memo, so a
caller that repeats a query memoizes it.

The oracle's contract is "exact within ``point_cap``": every answer is the
window optimum, and a window over more than ``point_cap`` points raises
CapacityError.  The paper proves its excess bounds for sweeps over a
(1 + delta')-approximate window oracle, which this package does not ship.
Swapping in another implementation with the same methods leaves the sweeps
intact: the oracle answers ``solve_lengths``, ``solve_window``,
``single_slot_table`` and ``rooted_table``, and the sweeps read a table only
through its ``run`` and ``path`` methods.  An (m,k)-TSP solve asks
``solve_lengths`` once, over the whole set with its pairs as the endpoints,
and reads the system of its count back with one ``solve_window`` call.

``single_slot_table`` is a batched variant for the one-path case: its table
holds optima for *all* endpoint pairs and visit counts of every contiguous
run of a window's points in sweep order, read with ``SingleSlotTable.run``,
and one optimal path of any of them, read with ``SingleSlotTable.path``.  A
k-TSP solve asks it for the whole set and reads one path; the k-TSP sweep
reads every window after its first from it.  ``rooted_table`` is the
one-start variant: one pass from a root gives optima for every end and visit
count of every prefix of a window, which serves the sweep's first window and
the orienteering bound.  Both take ``max_visits``: the pass stops after its
layer of paths over that many points, so the table holds the counts up to it
and no more, and a swapped-in table may hold more.  A ``max_visits`` other
than None or an int >= 1, or a root outside the window, raises InputError.

Both tables read one Held-Karp kernel, a pass from one start point over the
other points of a window.  It stores each layer of visited sets of one size
compactly, as dp[last, set] over the positions of the set's own points.
Each layer is one vectorised min-plus step over the one before, taken over
chunks of sets so that no temporary outgrows ``CHUNK_BYTES``.  A rooted
table makes its pass up front and keeps every layer (8.9 MB at 18 points).
Its ``run`` over the whole window folds each layer into one row per count,
and only a ``run`` over a shorter prefix, which the reference sweep alone
asks for, folds them into every prefix.  Its ``path`` walks back over the
layers with no fold.  A window table is the prefix tables of the rooted
tables of its runs, so its first ``run`` builds one for each run start and
start point.  Its ``path`` builds one rooted table over the path's run and
walks that; the walk picks the ties ``solve_window`` would pick.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .geometry import PointSet
from .paths import Path

DEFAULT_POINT_CAP = 18

#: Byte ceiling on each temporary of a chunk of sets in a Held-Karp step or
#: fold; the layers themselves are not chunked.
CHUNK_BYTES = 2 << 20

INF = math.inf


@dataclass(frozen=True)
class EndpointArrays:
    """Per-slot source and sink ids; None marks an idle slot.

    A slot with exactly one null endpoint makes the whole query infeasible,
    matching the convention used by the sweep recurrences.
    """

    sources: tuple
    sinks: tuple

    def __post_init__(self):
        if len(self.sources) != len(self.sinks):
            raise InputError("sources and sinks must have equal length")

    @property
    def slots(self) -> int:
        return len(self.sources)

    def active_slots(self) -> list[int]:
        return [
            j
            for j in range(self.slots)
            if self.sources[j] is not None and self.sinks[j] is not None
        ]

    def has_half_null_slot(self) -> bool:
        return any(
            (self.sources[j] is None) != (self.sinks[j] is None)
            for j in range(self.slots)
        )

    def endpoint_ids(self) -> set[int]:
        out = set()
        for j in self.active_slots():
            out.add(self.sources[j])
            out.add(self.sinks[j])
        return out


@dataclass
class WindowSolution:
    total_length: float
    paths: tuple
    visited_count: int

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.total_length)


class ExactWindowSolver:
    """Exact window oracle that keeps no state.

    Every call is a pure function of its arguments: nothing a solve builds
    outlives the call, and a caller that repeats queries (the (m,k)-TSP
    sweep) memoizes them itself.  Distances are read from the host's shared
    ``distance_rows`` by point id.
    """

    #: Largest window the oracle takes; ``solve_mktsp`` reads it up front.
    point_cap = DEFAULT_POINT_CAP

    # -- general multi-slot interface ------------------------------------

    def solve_lengths(
        self, host: PointSet, point_ids, endpoints: EndpointArrays
    ) -> dict[int, float]:
        """Optimal total length for every achievable visit count.

        Returns a dict mapping k -> length; missing keys are infeasible.
        """
        pts = sorted(int(p) for p in point_ids)
        self._check_cap(pts)
        return _multi_slot_dp(host, pts, endpoints)[0]

    def solve_window(
        self, host: PointSet, point_ids, endpoints: EndpointArrays, k: int
    ) -> WindowSolution:
        """Cheapest path system visiting exactly k distinct points."""
        pts = sorted(int(p) for p in point_ids)
        self._check_cap(pts)
        lengths, paths = _multi_slot_dp(host, pts, endpoints, k)
        if paths is None:
            return WindowSolution(INF, (None,) * endpoints.slots, 0)
        return WindowSolution(lengths[k], paths, k)

    # -- batched single-slot interface ------------------------------------

    def single_slot_table(
        self, host: PointSet, point_ids, max_visits: int | None = None
    ) -> "SingleSlotTable":
        """All-pairs optimal path lengths of every contiguous run of the
        window's points in the host's sweep order, for every visit count up
        to ``max_visits`` (every count when None)."""
        return SingleSlotTable(*self._sweep_window(host, point_ids, max_visits), max_visits)

    def rooted_table(
        self, host: PointSet, point_ids, root: int, max_visits: int | None = None
    ) -> "RootedTable":
        """All-ends optimal lengths of the paths from ``root`` over every
        prefix of the window's points in the host's sweep order, for every
        visit count up to ``max_visits`` (every count when None)."""
        pts, dmat = self._sweep_window(host, point_ids, max_visits)
        if int(root) not in pts:
            raise InputError(f"root {root} not inside the window")
        return RootedTable(pts, pts.index(int(root)), dmat, max_visits)

    def _sweep_window(self, host: PointSet, point_ids, max_visits) -> tuple:
        """The window's ids in the host's sweep order, and the distances
        between them in that order, for a table request that asks for
        ``max_visits``, which must be None or an int >= 1."""
        if not (max_visits is None or isinstance(max_visits, numbers.Integral) and max_visits >= 1):
            raise InputError(f"max_visits must be None or an int >= 1, not {max_visits!r}")
        ranks = host.ranks
        pts = tuple(sorted((int(p) for p in point_ids), key=lambda p: ranks[p]))
        self._check_cap(pts)
        return pts, host.distance_matrix()[np.ix_(pts, pts)]

    def _check_cap(self, pts):
        if len(pts) > self.point_cap:
            raise CapacityError(
                f"window holds {len(pts)} points, over the cap of {self.point_cap}"
            )


class SingleSlotTable:
    """Exact single-path optima of every contiguous run of a window.

    ``pts`` lists the window in sweep order and ``dmat`` holds the distances
    between them in that order; both methods take positions in that order.
    A window table is the prefix tables of the rooted tables of its runs: a
    path from pts[c] lies inside the run lo..hi exactly when it lies inside
    prefix hi - lo of pts[lo:].  So the first ``run`` makes a ``RootedTable``
    from each start c over pts[lo:] for each lo <= c, stopped after its paths
    over ``max_visits`` points, keeps its prefixes as the runs lo..hi from c
    and drops the table before it makes the next.

    ``path`` reads one optimal path of a run from a ``RootedTable`` over
    that run alone, rooted at the path's start, so a table that only reads
    paths back makes none of the per-run passes.
    """

    def __init__(self, pts: tuple, dmat: np.ndarray, max_visits: int | None = None):
        self.pts = pts
        self._dmat = dmat
        self._top = len(pts) if max_visits is None else min(len(pts), max_visits)

    @functools.cached_property
    def _ranges(self) -> np.ndarray:
        """ranges[lo, hi, k, d, c] = prefixes[hi - lo, k, d - lo] of the rooted
        table from c over pts[lo:], built for each lo <= c on the first ``run``."""
        w, top = len(self.pts), self._top
        ranges = np.full((w, w, top + 1, w, w), INF)
        for lo in range(w):
            for c in range(lo, w):
                prefixes = RootedTable(self.pts[lo:], c - lo, self._dmat[lo:, lo:], top)._prefixes
                ranges[lo, lo:, : prefixes.shape[1], lo:, c] = prefixes
        return ranges

    def run(self, lo: int, hi: int) -> np.ndarray:
        """best[k, d, c] = shortest pts[c] -> pts[d] path over exactly k of
        the points pts[lo..hi] (INF when impossible), for k = 0 .. hi - lo + 1,
        or up to the table's ``max_visits`` if that is smaller, with c and d
        counted from lo."""
        return self._ranges[lo, hi, : hi - lo + 2, lo : hi + 1, lo : hi + 1]

    def path(self, lo: int, hi: int, c: int, d: int, k: int) -> tuple | None:
        """Point ids of one shortest pts[c] -> pts[d] path over exactly k of
        the points pts[lo..hi] (positions in sweep order), or None if there
        is none; ties as ``RootedTable.path`` breaks them.  Raises
        InputError when k is over the counts the table holds."""
        if not (lo <= c <= hi and lo <= d <= hi and 1 <= k <= hi - lo + 1) or (k == 1) != (c == d):
            return None
        if k > self._top:
            raise InputError(f"the table holds paths over at most {self._top} points")
        run = slice(lo, hi + 1)
        return RootedTable(self.pts[run], c - lo, self._dmat[run, run], k).path(hi - lo, d - lo, k)


class RootedTable:
    """Exact single-path optima from one root over every prefix of a window.

    ``pts`` lists the window in sweep order, ``root`` is the root's position
    in it and ``dmat`` holds the distances between them in that order; both
    methods take positions in that order.  The constructor makes one
    ``_held_karp`` pass from the root over the other points, in ascending
    position order, that stops after its layer of ``max_visits``-point
    paths.  Its layers hold one cell per (set, last point), 8.9 MB in all
    at 18 points, and the table keeps them for ``path`` to walk back over.
    ``run(w - 1)`` folds each layer, by an unbuffered minimum, into the row
    of its count at each set's last point.  A ``run`` over a shorter prefix
    folds them once into the entry of their sets' highest point, the root
    counted, too; a path lies inside the prefix pts[0..hi] exactly when that
    point is at most hi, so a prefix-min over hi yields every prefix's
    lengths.  Both folds take the minimum of the same floats.  ``path``
    never folds, so a table that only reads paths back skips that work.
    """

    def __init__(self, pts: tuple, root: int, dmat: np.ndarray, max_visits: int | None = None):
        self.pts = pts
        self.root = root
        w = len(pts)
        self._top = top = w if max_visits is None else min(w, max_visits)
        others = np.array([p for p in range(w) if p != root], dtype=np.intp)
        self._ids = [pts[p] for p in others.tolist()]
        self._dmat = dmat[np.ix_(others, others)]
        self._others = others
        self._layers = tuple(itertools.islice(_held_karp(self._dmat, dmat[root, others]), top - 1))

    @functools.cached_property
    def _prefixes(self) -> np.ndarray:
        """prefixes[hi, k, d], folded from the layers on the first ``run``
        over a shorter prefix."""
        root, top, others = self.root, self._top, self._others
        w = len(self.pts)
        prefixes = np.full((w, top + 1, w), INF)
        prefixes[root, 1, root] = 0.0  # the root alone
        for k, layer in enumerate(self._layers, 1):
            ids = _plan(w - 1, k)[0]
            for part in _chunks(ids.shape[1], k):
                pos = others[ids[:, part]]
                at = (np.maximum(pos[-1], root) * (top + 1) + k + 1) * w + pos
                np.minimum.at(prefixes.reshape(-1), at.reshape(-1), layer[:, part].reshape(-1))
        return np.minimum.accumulate(prefixes, axis=0, out=prefixes)

    def run(self, hi: int) -> np.ndarray:
        """best[k, d] = shortest pts[root] -> pts[d] path over exactly k of
        the points pts[0..hi] (INF when impossible, and everywhere when hi is
        left of the root), for k = 0 .. hi + 1, or up to the table's
        ``max_visits`` if that is smaller, and d = 0 .. hi."""
        w, others = len(self.pts), self._others
        if hi < w - 1:
            return self._prefixes[hi, : hi + 2, : hi + 1]
        whole = np.full((self._top + 1, w), INF)  # each layer's row at its sets' last points
        whole[1, self.root] = 0.0  # the root alone
        for k, layer in enumerate(self._layers, 1):
            np.minimum.at(whole[k + 1], others[_plan(w - 1, k)[0]], layer)
        return whole

    def path(self, hi: int, d: int, k: int) -> tuple | None:
        """Point ids of one shortest pts[root] -> pts[d] path over exactly k
        of the points pts[0..hi], or None if there is none.  Raises
        InputError when k is over the counts the table holds.

        The walk starts from the layer of (k - 1)-point sets.  The other
        points inside the prefix are the pass's first hi points, so their
        C(hi, size) sets lead each layer, whose rows are in ascending-mask
        order, and a set's subsets are inside too.  Ties go where
        ``solve_window`` sends them: the visited set whose sorted ids come
        first, then, stepping back from d, the tied predecessor with the
        largest id.  Both compare the same sums.
        """
        r = self.root
        if not (r <= hi and 0 <= d <= hi and 1 <= k <= hi + 1) or (k == 1) != (r == d):
            return None
        if k > self._top:
            raise InputError(f"the table holds paths over at most {self._top} points")
        if k == 1:
            return (self.pts[r],)
        ids, dmat, layers, w = self._ids, self._dmat, self._layers, len(self._ids)
        d -= d > r  # d's position among the other points
        pos = _plan(w, k - 1)[0][:, : math.comb(hi, k - 1)]
        sel = np.flatnonzero((pos == d).any(0))
        costs = layers[k - 2][(pos[:, sel] < d).sum(0), sel]
        best = costs.min(initial=INF)
        if best == INF:
            return None
        row = min(sel[costs == best].tolist(), key=lambda r: sorted(ids[p] for p in pos[:, r]))
        walk = [d]
        for size in range(k - 1, 1, -1):
            cur, (pos, preds) = walk[-1], _plan(w, size)
            j = np.flatnonzero(pos[:, row] == cur)[0]
            target = layers[size - 1][j, row]
            row = preds[j, row]
            here = _plan(w, size - 1)[0][:, row]
            ties = here[layers[size - 2][:, row] + dmat[here, cur] == target]
            walk.append(max(ties.tolist(), key=ids.__getitem__))
        return (self.pts[r],) + tuple(ids[p] for p in reversed(walk))


@functools.lru_cache(maxsize=DEFAULT_POINT_CAP)
def _masks(w: int) -> tuple:
    """(popcount, where) of every mask of w points: its number of points
    and its row among the masks of its size in ascending order, each half
    of the masks built from the one below it."""
    popcount = np.zeros(1 << w, dtype=np.int8)
    where = np.zeros(1 << w, dtype=np.int32)
    for i in range(w):
        # A mask whose highest point is i follows the C(i, size) masks of its size below it.
        below = np.array([math.comb(i, size) for size in range(i + 2)], dtype=np.int32)
        where[1 << i : 2 << i] = below[popcount[: 1 << i] + 1] + where[: 1 << i]
        popcount[1 << i : 2 << i] = popcount[: 1 << i] + 1
    return popcount, where


#: A pass over w points asks for the plans of the set sizes it reaches, so
#: every pair 1 <= k <= w <= the cap is kept: all 171 take 22.3 MB, most of
#: it predecessor rows.
@functools.lru_cache(maxsize=math.comb(DEFAULT_POINT_CAP + 1, 2))
def _plan(w: int, k: int) -> tuple:
    """The index plan (ids, preds) of the k-point sets of a w-point pass,
    in ascending order of their masks: the points of each set by position
    (a (k, rows) array, ascending down each column) and preds[j, row], the
    row in its own layer of the set without its point in position j (0,
    the empty set, for k = 1).
    """
    popcount, where = _masks(w)
    rows = np.flatnonzero(popcount == k)
    ids = np.empty((k, len(rows)), dtype=np.int8)
    preds = np.empty((k, len(rows)), dtype=np.int32)
    rest = rows.copy()
    for p in range(k):  # peel the lowest point off each set
        low = rest & -rest
        ids[p], preds[p] = popcount[low - 1], where[rows ^ low]  # low - 1 = 2**i - 1 has i points
        rest ^= low
    return ids, preds


def _chunks(rows: int, cells: int):
    """Row slices of a layer whose temporaries of ``cells`` floats per row
    take at most ``CHUNK_BYTES`` each."""
    step = max(1, CHUNK_BYTES // (8 * cells))
    return (slice(a, a + step) for a in range(0, rows, step))


def _held_karp(dmat: np.ndarray, start: np.ndarray):
    """Yield the Held-Karp layers of a pass from one start point over the w
    points of ``dmat``, given the distances ``start`` from that point, which
    lies outside ``dmat``, to each of them.

    Layer k - 1 holds dp[last, row]: the shortest path that leaves the start
    point, visits exactly the k points of set ``row`` of ``_plan(w, k)`` and
    ends at the one in position ``last`` of that set.  Only members are
    stored, so the layer has k * C(w, k) cells.  A step asks only for the
    plans of the sizes it reads, so a pass its caller stops early builds no
    others.

    A set ending at position j has one predecessor set, itself without that
    point, so each layer is one min-plus step over the one before, taken
    over chunks of rows.
    """
    w = dmat.shape[0]
    layer = start.reshape(1, w)
    yield layer
    for k in range(1, w):
        ids, preds = _plan(w, k + 1)
        grown = np.empty((k + 1, ids.shape[1]))
        for part in _chunks(ids.shape[1], k * (k + 1)):
            pred = preds[:, part]
            steps = np.take(layer, pred, axis=1)
            steps += dmat[np.take(_plan(w, k)[0], pred, axis=1), ids[:, part]]
            np.min(steps, axis=0, out=grown[:, part])
        layer = grown
        yield layer


def _multi_slot_dp(host: PointSet, pts: list, endpoints: EndpointArrays, k: int | None = None):
    """Slot-sequential bitmask DP over each active slot's open states
    (mask, point), in layers by visit count, and its closed states, by mask.

    ``pts`` holds the window's ids in ascending order; bit p of a mask
    stands for point id p.  Returns (lengths, paths): lengths maps visit
    count -> optimal total length, with no count when a slot is half null
    and only 0 when none is active.  With k None, paths is None and no
    parent link is kept.  Otherwise no state with k visits is expanded, and
    paths holds a system over k points, one ``Path`` per active slot and
    None per idle one, read back along each slot's links, or is None when
    there is none.  Ties go to the first state found.
    """
    if endpoints.has_half_null_slot():
        return {}, None
    ends = endpoints.endpoint_ids()
    for p in ends:
        if p not in pts:
            raise InputError(f"endpoint {p} not inside the window")
    dmat = host.distance_rows()
    interiors = [(p, 1 << p) for p in pts if p not in ends]
    top = len(pts) if k is None else min(k, len(pts))
    keep, active, links = k is not None, endpoints.active_slots(), []

    closed = {0: 0.0}  # the empty system before the first slot
    for slot in active:
        s, t = endpoints.sources[slot], endpoints.sinks[slot]
        sbit, tbit = 1 << s, 1 << t
        links.append((opens := {}, closes := {}))  # filled only when keep
        # Open the slot at its source from every state that closed the
        # previous one.  A move adds one point, so each layer is final before
        # it is expanded, and s is never an interior, so a state at s is an
        # opening one.
        layers = [{} for _ in range(top + 2)]
        for mask, cost in closed.items():
            key = (mask | sbit, s)
            pop = key[0].bit_count()
            if pop <= top and cost < layers[pop].get(key, INF):
                layers[pop][key] = cost
                if keep:
                    opens[key] = mask
        closed = {}
        moves = interiors if s != t else []  # a one-point slot has no interior
        for pop in range(top + 1):
            nxt = layers[pop + 1]
            for key, cost in layers[pop].items():
                mask, cur = key
                row = dmat[cur]
                c, done = cost + row[t], mask | tbit
                if c < closed.get(done, INF):
                    closed[done] = c
                    if keep:
                        closes[done] = key
                for p, bit in moves if pop < top else ():
                    if not mask & bit:
                        step, c = (mask | bit, p), cost + row[p]
                        if c < nxt.get(step, INF):
                            nxt[step] = c
                            if keep:
                                opens[step] = key

    lengths, finals = {}, {}
    for mask, cost in closed.items():
        if cost < lengths.get(pop := mask.bit_count(), INF):
            lengths[pop], finals[pop] = cost, mask
    if k not in finals:
        return lengths, None
    paths, mask = [None] * endpoints.slots, finals[k]
    for slot, (opens, closes) in zip(reversed(active), reversed(links)):
        s, t = endpoints.sources[slot], endpoints.sinks[slot]
        visits, key = ([t] if s != t else []), closes[mask]
        while key[1] != s:
            visits.append(key[1])
            key = opens[key]
        mask = opens[key]
        paths[slot] = Path(host, (s, *reversed(visits)))
    return lengths, tuple(paths)
