"""Exact solver for path systems inside a window.

Given a set of candidate points, per-slot endpoint prescriptions (or null for
an idle slot) and a visit count, ``solve_window`` returns the cheapest way to
route one path per active slot through exactly that many distinct points.
The search is one bitmask dynamic program over (slot, visited set, current
point), with a single mode: it always keeps parent links.  Slots are
processed in index order, each as a loop over its states bucketed by visit
count, and transitions between slots cost nothing, since the objective is the
plain sum of path lengths.  ``solve_lengths`` memoizes only the lengths, so
``solve_window`` re-runs the DP to read a system back from the parent links.
Both read distances from the host's one ``distance_matrix``.

The plane sweeps only require the weaker contract "length at most
(1 + delta_prime) times the window optimum for the requested delta_prime";
an exact solver satisfies it for every value, so ``delta_prime`` is accepted
everywhere and recorded but never changes a result here.  Swapping in an
approximate implementation with the same methods leaves the sweeps intact.

``single_slot_table`` is a batched variant for the one-path case: one
Held-Karp pass computes optima for *all* endpoint pairs and visit counts of a
window and, in the same pass, of every contiguous run of the window's points
in sweep order, which is what the k-TSP sweep consumes in bulk: one table
request per solve serves all of its windows.  The pass is vectorised over all
visited sets of one size at a time and serves every window size up to the
cap; its dp[mask, last, start] array is kept under ``TABLE_BYTES`` by running
the start points in chunks, so a small window is one chunk and an 18-point
window runs one start at a time.
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
    """Exact window oracle with memoized all-count solves.

    Lengths are cached per (host, point set, endpoint arrays); the keys hold
    the host ``PointSet`` itself, which hashes by identity, so a cached host
    stays alive as long as the solver.  The cache is write-once and holds no
    parent links: ``solve_window`` re-runs the DP to reconstruct its paths.
    ``delta_prime`` arguments are accepted for contract compatibility and
    stored on ``last_delta_prime`` so callers can verify the plumbing.
    """

    def __init__(self, point_cap: int = DEFAULT_POINT_CAP):
        self.point_cap = point_cap
        self.last_delta_prime: float | None = None
        self._length_memo: dict = {}
        self._table_memo: dict = {}

    # -- general multi-slot interface ------------------------------------

    def solve_lengths(
        self, host: PointSet, point_ids, endpoints: EndpointArrays, delta_prime: float = 0.0
    ) -> dict[int, float]:
        """Optimal total length for every achievable visit count.

        Returns a dict mapping k -> length; missing keys are infeasible.
        """
        key = self._key(host, point_ids, endpoints, delta_prime)
        if key not in self._length_memo:
            self._length_memo[key] = _multi_slot_dp(host, key[1], endpoints)[0]
        return self._length_memo[key]

    def solve_window(
        self,
        host: PointSet,
        point_ids,
        endpoints: EndpointArrays,
        k: int,
        delta_prime: float = 0.0,
    ) -> WindowSolution:
        """Cheapest path system visiting exactly k distinct points."""
        key = self._key(host, point_ids, endpoints, delta_prime)
        lengths, finals = _multi_slot_dp(host, key[1], endpoints)
        self._length_memo.setdefault(key, lengths)
        return _reconstruct(host, key[1], endpoints, lengths, finals, k)

    def _key(self, host: PointSet, point_ids, endpoints: EndpointArrays, delta_prime: float):
        """Memo key of a multi-slot query, after the cap check."""
        self.last_delta_prime = delta_prime
        pts = tuple(sorted(int(p) for p in point_ids))
        self._check_cap(pts)
        return (host, pts, endpoints.sources, endpoints.sinks)

    # -- batched single-slot interface ------------------------------------

    def single_slot_table(self, host: PointSet, point_ids, delta_prime: float = 0.0) -> "SingleSlotTable":
        """All-pairs, all-counts optimal path lengths within one window.

        The table also serves every contiguous run of the window's points in
        the host's sweep order, through ``SingleSlotTable.window``.
        """
        self.last_delta_prime = delta_prime
        ranks = host.ranks
        pts = tuple(sorted((int(p) for p in point_ids), key=lambda p: ranks[p]))
        self._check_cap(pts)
        key = (host, pts)
        if key not in self._table_memo:
            dmat = host.distance_matrix()[np.ix_(pts, pts)]
            self._table_memo[key] = SingleSlotTable(pts, _held_karp_ranges(dmat))
        return self._table_memo[key]

    def _check_cap(self, pts):
        if len(pts) > self.point_cap:
            raise CapacityError(
                f"window holds {len(pts)} points, over the cap of {self.point_cap}"
            )


class SingleSlotTable:
    """Exact table: best[k][d][c] = shortest path from c to d visiting
    exactly k points of the window (INF when impossible).

    ``pts`` lists the window in sweep order and ``ranges[lo, hi]`` holds the
    table of its run pts[lo..hi]; ``window(lo, hi)`` reads that run's table.
    """

    def __init__(self, pts: tuple, ranges: np.ndarray):
        self.pts = pts
        self.index = {p: i for i, p in enumerate(pts)}
        self.ranges = ranges
        self.best = ranges[0, -1]

    def window(self, lo: int, hi: int) -> "SingleSlotTable":
        """Table of the window's points lo..hi (inclusive, sweep order)."""
        run = slice(lo, hi + 1)
        return SingleSlotTable(self.pts[run], self.ranges[run, run, : hi - lo + 2, run, run])

    def length(self, c: int, d: int, k: int) -> float:
        """Optimal c -> d path over exactly k window points."""
        if k < 1 or k > len(self.pts):
            return INF
        return float(self.best[k, self.index[d], self.index[c]])


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


def _held_karp_ranges(dmat: np.ndarray) -> np.ndarray:
    """ranges[lo, hi, k, last, start]: shortest start -> last path over
    exactly k of the points lo..hi (INF when lo > hi or no such path).

    Visited sets are processed by popcount layer; a set of size k + 1 ending
    at p has exactly one predecessor set (itself without p), so each layer
    is one vectorised min-plus step per end point.  Each layer's optima are
    reduced per (lowest, highest) point, and a set lies inside the run lo..hi
    exactly when its lowest point is at least lo and its highest at most hi,
    so a prefix-min over (lo, hi) yields every run's table from one pass.
    """
    w = dmat.shape[0]
    ranges = np.full((w, w, w + 1, w, w), INF)
    chunk = max(1, TABLE_BYTES // (8 * (1 << w) * w))
    for first in range(0, w, chunk):
        stop = min(first + chunk, w)
        starts = np.arange(first, stop)
        dp = np.full((1 << w, w, stop - first), INF)
        dp[1 << starts, starts, starts - first] = 0.0
        for k, (layer, cuts, low, high, subs) in enumerate(_layers(w), 1):
            ranges[low, high, k, :, first:stop] = np.minimum.reduceat(dp[layer], cuts)
            for p, sub in enumerate(subs):
                dp[sub | (1 << p), p] = (dp[sub] + dmat[:, p, None]).min(axis=1)
        del dp  # free it before the next chunk allocates its own
    for lo in range(w - 2, -1, -1):
        np.minimum(ranges[lo], ranges[lo + 1], out=ranges[lo])
    for hi in range(1, w):
        np.minimum(ranges[:, hi], ranges[:, hi - 1], out=ranges[:, hi])
    return ranges


def _multi_slot_dp(host: PointSet, pts: tuple, endpoints: EndpointArrays):
    """Slot-sequential bitmask DP over (slot position, closed, mask, point).

    Returns (lengths, finals): lengths maps visit count -> optimal total
    length, and finals maps visit count -> (final state, parent links) for
    ``_reconstruct``.  Both miss every count when a slot is half null, and
    hold only k = 0 when no slot is active.
    """
    if endpoints.has_half_null_slot():
        return {}, {}
    active = endpoints.active_slots()
    if not active:
        return {0: 0.0}, {0: (None, {})}

    index = {p: i for i, p in enumerate(pts)}
    for p in endpoints.endpoint_ids():
        if p not in index:
            raise InputError(f"endpoint {p} not inside the window")
    dmat = host.distance_matrix()[np.ix_(pts, pts)].tolist()
    endpoint_local = {index[p] for p in endpoints.endpoint_ids()}
    interiors = [i for i in range(len(pts)) if i not in endpoint_local]

    parents: dict = {}

    def record(key, parent, cost, store: dict):
        if cost < store.get(key, INF):
            store[key] = cost
            parents[key] = parent

    closed: dict = {None: 0.0}  # the empty system before the first slot
    for pos, slot in enumerate(active):
        s = index[endpoints.sources[slot]]
        t = index[endpoints.sinks[slot]]
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


def _reconstruct(host: PointSet, pts: tuple, endpoints: EndpointArrays, lengths, finals, k: int) -> WindowSolution:
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
        paths[slot] = Path(host, tuple(pts[i] for i in reversed(visits[pos])))
    return WindowSolution(lengths[k], tuple(paths), k)
