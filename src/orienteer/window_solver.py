"""Exact solver for path systems inside a window.

Given a set of candidate points, per-slot endpoint prescriptions (or null for
an idle slot) and a visit count, ``solve_window`` returns the cheapest way to
route one path per active slot through exactly that many distinct points.
The search is one bitmask dynamic program over (slot, visited set, current
point), with a single mode: it always keeps parent links.  Slots are
processed in index order, each as a loop over its states bucketed by visit
count, and transitions between slots cost nothing, since the objective is the
plain sum of path lengths.  The oracle keeps no memo: each call runs the DP,
so ``solve_window`` reads its system back from that call's parent links, and
a caller that repeats a query memoizes it.  The DP reads the host's shared
``distance_rows`` by point id, with one mask bit per id.

The plane sweeps only require the weaker contract "length at most
(1 + delta_prime) times the window optimum for the requested delta_prime";
an exact solver satisfies it for every value, so ``delta_prime`` is accepted
everywhere but never changes a result here.  Swapping in an approximate
implementation with the same methods leaves the sweeps intact: the oracle
answers ``solve_lengths``, ``solve_window`` and ``single_slot_table``, and
the sweeps read a table only through its ``run`` and ``path`` methods.

``single_slot_table`` is a batched variant for the one-path case: one
Held-Karp pass computes optima for *all* endpoint pairs and visit counts of
every contiguous run of a window's points in sweep order, which is what the
k-TSP sweep consumes in bulk: one table request per solve serves all of its
windows, each read with ``SingleSlotTable.run``.  The pass is vectorised
over all visited sets of one size at a time and serves every window size up
to the cap; its dp[mask, last, start] array is kept under ``TABLE_BYTES`` by
running the start points in chunks, so a small window is one chunk and an
18-point window runs one start at a time.  The table keeps the array of its
last chunk, and ``SingleSlotTable.path`` backtracks through it to read an
optimal path of any run back, with the ties ``solve_window`` would pick; a
start of an earlier chunk reruns the same kernel for that start alone.  So a
k-TSP solve reads its paths from the pass that built its table and never
calls ``solve_window``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .geometry import PointSet
from .paths import Path

DEFAULT_POINT_CAP = 18

#: Byte ceiling on the dp[mask, last, start] array of one table pass
#: (8 * 2^w * w bytes per start point).
TABLE_BYTES = 64 << 20

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
    ``distance_rows`` by point id.  ``delta_prime`` arguments are accepted
    for contract compatibility and never change a result.
    """

    #: Largest window the oracle takes; ``solve_mktsp`` reads it up front.
    point_cap = DEFAULT_POINT_CAP

    # -- general multi-slot interface ------------------------------------

    def solve_lengths(
        self, host: PointSet, point_ids, endpoints: EndpointArrays, delta_prime: float = 0.0
    ) -> dict[int, float]:
        """Optimal total length for every achievable visit count.

        Returns a dict mapping k -> length; missing keys are infeasible.
        """
        pts = sorted(int(p) for p in point_ids)
        self._check_cap(pts)
        return _multi_slot_dp(host, pts, endpoints)[0]

    def solve_window(
        self,
        host: PointSet,
        point_ids,
        endpoints: EndpointArrays,
        k: int,
        delta_prime: float = 0.0,
    ) -> WindowSolution:
        """Cheapest path system visiting exactly k distinct points."""
        pts = sorted(int(p) for p in point_ids)
        self._check_cap(pts)
        lengths, finals = _multi_slot_dp(host, pts, endpoints)
        return _reconstruct(host, endpoints, lengths, finals, k)

    # -- batched single-slot interface ------------------------------------

    def single_slot_table(self, host: PointSet, point_ids, delta_prime: float = 0.0) -> "SingleSlotTable":
        """All-pairs, all-counts optimal path lengths of every contiguous
        run of the window's points in the host's sweep order."""
        ranks = host.ranks
        pts = tuple(sorted((int(p) for p in point_ids), key=lambda p: ranks[p]))
        self._check_cap(pts)
        dmat = host.distance_matrix()[np.ix_(pts, pts)]
        return SingleSlotTable(pts, *_held_karp_ranges(dmat), dmat)

    def _check_cap(self, pts):
        if len(pts) > self.point_cap:
            raise CapacityError(
                f"window holds {len(pts)} points, over the cap of {self.point_cap}"
            )


class SingleSlotTable:
    """Exact single-path optima of every contiguous run of a window.

    ``pts`` lists the window in sweep order, and both methods take positions
    in that order.  The table answers two methods: ``run(lo, hi)`` gives the optimal lengths
    of the run pts[lo..hi], and ``path`` reads one optimal path of a run back
    from the Held-Karp array of the pass's last chunk of starts.
    """

    def __init__(self, pts: tuple, ranges: np.ndarray, first: int, dp: np.ndarray, dmat: np.ndarray):
        self.pts = pts
        self._ranges = ranges
        self._first = first
        self._dp = dp
        self._dmat = dmat

    def run(self, lo: int, hi: int) -> np.ndarray:
        """best[k, d, c] = shortest pts[c] -> pts[d] path over exactly k of
        the points pts[lo..hi] (INF when impossible), for k = 0 .. hi - lo + 1,
        with c and d counted from lo."""
        return self._ranges[lo, hi, : hi - lo + 2, lo : hi + 1, lo : hi + 1]

    def path(self, lo: int, hi: int, c: int, d: int, k: int) -> tuple | None:
        """Point ids of one shortest pts[c] -> pts[d] path over exactly k of
        the points pts[lo..hi] (positions in sweep order), or None if there
        is none.

        Ties go where ``solve_window`` sends them: the visited set whose
        sorted ids come first, then, stepping back from pts[d], the tied
        predecessor with the largest id.  Both compare the same sums.
        """
        if not 1 <= k <= hi - lo + 1:
            return None
        if c >= self._first:
            dp, col = self._dp, c - self._first
        else:  # an earlier chunk held c: rerun the pass for that start alone
            dp, col = _held_karp(self._dmat, np.array([c])), 0
        run = (1 << (hi + 1)) - (1 << lo)
        layer = _layers(len(self.pts))[k - 1][0]
        masks = layer[(layer & ~run) == 0]
        costs = dp[masks, d, col]
        best = costs.min()
        if best == INF:
            return None
        pts = self.pts
        mask = min(
            masks[costs == best].tolist(),
            key=lambda m: sorted(p for r, p in enumerate(pts) if m >> r & 1),
        )
        walk = [d]
        while mask != 1 << c:
            cur = walk[-1]
            prev = mask ^ (1 << cur)
            ties = np.flatnonzero(dp[prev, :, col] + self._dmat[:, cur] == dp[mask, cur, col])
            walk.append(max(ties.tolist(), key=pts.__getitem__))
            mask = prev
        return tuple(pts[r] for r in reversed(walk))


#: A solve passes over one window size, and the arrays of an 18-point pass
#: take about 20 MB, so only the two latest sizes are kept.
@functools.lru_cache(maxsize=2)
def _layers(w: int) -> tuple:
    """Index arrays of a w-point pass, one entry per visited-set size k >= 1.

    Each entry holds the k-point sets sorted by (lowest, highest) point, the
    offsets where a (lowest, highest) group begins, the group's lowest and
    highest point, and per end point p the k-point sets without p.
    """
    masks = np.arange(1 << w)
    popcount = sum((masks >> i) & 1 for i in range(w))
    # Highest and lowest set bit of every mask (-1 for the empty set).
    high = np.repeat(np.arange(-1, w), [1] + [1 << i for i in range(w)])
    low = high[masks & -masks]
    out = []
    for k in range(1, w + 1):
        layer = masks[popcount == k]
        layer = layer[np.lexsort((high[layer], low[layer]))]
        group = low[layer] * w + high[layer]
        cuts = np.flatnonzero(np.diff(group, prepend=-1))
        subs = [layer[(layer >> p) & 1 == 0] for p in range(w)]
        out.append((layer, cuts, low[layer[cuts]], high[layer[cuts]], subs))
    return tuple(out)


def _held_karp(dmat: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """dp[mask, last, i]: shortest starts[i] -> last path that visits exactly
    the points of mask (INF when there is none).

    Visited sets are processed by popcount layer; a set of size k + 1 ending
    at p has exactly one predecessor set (itself without p), so each layer
    is one vectorised min-plus step per end point.
    """
    w = dmat.shape[0]
    dp = np.full((1 << w, w, len(starts)), INF)
    dp[1 << starts, starts, np.arange(len(starts))] = 0.0
    for _, _, _, _, subs in _layers(w):
        for p, sub in enumerate(subs):
            dp[sub | (1 << p), p] = (dp[sub] + dmat[:, p, None]).min(axis=1)
    return dp


def _held_karp_ranges(dmat: np.ndarray) -> tuple:
    """(ranges, first, dp): ranges[lo, hi, k, last, start] is the shortest
    start -> last path over exactly k of the points lo..hi (INF when lo > hi
    or no such path), and dp is the ``_held_karp`` array of the last chunk
    of starts, which begins at start ``first``.

    Each layer's optima are reduced per (lowest, highest) point, and a set
    lies inside the run lo..hi exactly when its lowest point is at least lo
    and its highest at most hi, so a prefix-min over (lo, hi) yields every
    run's table from one pass.
    """
    w = dmat.shape[0]
    ranges = np.full((w, w, w + 1, w, w), INF)
    chunk = max(1, TABLE_BYTES // (8 * (1 << w) * w))
    for first in range(0, w, chunk):
        dp = None  # free the previous chunk's array before the next is allocated
        dp = _held_karp(dmat, np.arange(first, min(first + chunk, w)))
        for k, (layer, cuts, low, high, _) in enumerate(_layers(w), 1):
            ranges[low, high, k, :, first : first + dp.shape[2]] = np.minimum.reduceat(
                dp[layer], cuts
            )
    for lo in range(w - 2, -1, -1):
        np.minimum(ranges[lo], ranges[lo + 1], out=ranges[lo])
    for hi in range(1, w):
        np.minimum(ranges[:, hi], ranges[:, hi - 1], out=ranges[:, hi])
    return ranges, first, dp


def _multi_slot_dp(host: PointSet, pts: list, endpoints: EndpointArrays):
    """Slot-sequential bitmask DP over (slot position, closed, mask, point).

    ``pts`` holds the window's ids in ascending order; bit p of a mask stands
    for point id p.  Returns (lengths, finals): lengths maps visit count ->
    optimal total length, and finals maps visit count -> (final state, parent
    links) for ``_reconstruct``.  Both miss every count when a slot is half
    null, and hold only k = 0 when no slot is active.
    """
    if endpoints.has_half_null_slot():
        return {}, {}
    active = endpoints.active_slots()
    if not active:
        return {0: 0.0}, {0: (None, {})}

    ends = endpoints.endpoint_ids()
    for p in ends:
        if p not in pts:
            raise InputError(f"endpoint {p} not inside the window")
    dmat = host.distance_rows()
    interiors = [p for p in pts if p not in ends]

    parents: dict = {}

    def record(key, parent, cost, store: dict):
        if cost < store.get(key, INF):
            store[key] = cost
            parents[key] = parent

    closed: dict = {None: 0.0}  # the empty system before the first slot
    for pos, slot in enumerate(active):
        s = endpoints.sources[slot]
        t = endpoints.sinks[slot]
        # Open the slot at its source from every state that closed the
        # previous one, bucketed by visit count; a move adds one point, so
        # each bucket is final before it is expanded.
        layers: list[dict] = [{} for _ in range(len(pts) + 1)]
        for key, cost in closed.items():
            mask = (key[2] if key else 0) | 1 << s
            record((pos, False, mask, s), key, cost, layers[mask.bit_count()])
        closed = {}
        moves = interiors if s != t else []  # a one-point slot has no interior
        for pop, layer in enumerate(layers):
            for key, cost in layer.items():
                _, _, mask, cur = key
                record((pos, True, mask | 1 << t, t), key, cost + dmat[cur][t], closed)
                for p in moves:
                    if not mask >> p & 1:
                        nkey = (pos, False, mask | 1 << p, p)
                        record(nkey, key, cost + dmat[cur][p], layers[pop + 1])

    lengths: dict[int, float] = {}
    finals: dict[int, tuple] = {}
    for key, cost in closed.items():
        k = key[2].bit_count()
        if cost < lengths.get(k, INF):
            lengths[k] = cost
            finals[k] = (key, parents)
    return lengths, finals


def _reconstruct(host: PointSet, endpoints: EndpointArrays, lengths, finals, k: int) -> WindowSolution:
    paths: list[Path | None] = [None] * endpoints.slots
    if k not in finals:
        return WindowSolution(INF, tuple(paths), 0)
    key, parents = finals[k]
    active = endpoints.active_slots()
    visits: list[list[int]] = [[] for _ in active]
    while key is not None:
        parent = parents[key]
        pos, closed, _, cur = key
        if not (closed and parent[3] == cur):  # else the close of a one-point slot
            visits[pos].append(cur)
        key = parent
    for pos, slot in enumerate(active):
        paths[slot] = Path(host, tuple(reversed(visits[pos])))
    return WindowSolution(lengths[k], tuple(paths), k)
