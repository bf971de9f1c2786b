"""Rooted k-TSP: one window over the whole set, and the paper's plane sweep.

The space is rotated so the prescribed endpoints sit on the sweep axis with
the source on the left, and points are ordered by their (tie-broken) first
coordinate.  The paper's sweep builds a table V[i, d, k'], the best known
length of a path that starts at the source, ends at point d, and visits k'
points among the first i+1 in sweep order.  Entries combine a previously
computed path with a bridge edge into a window subproblem solved by the
window oracle:

    V[i, d, k'] = min over j < i, c in (p_j, p_i], k'' < k' of
                  W2[j, c, k''] + window(p_{j+1}..p_i, c -> d, k'-k''),
    W2[j, c, k''] = min over d' <= p_j of V[j, d', k''] + |d' c|.

Column j = -1 is the empty prefix: it sits at the source with zero length and
zero visits, so W2[-1, c, k''] is 0 at (c = source, k'' = 0) and INF
elsewhere.  Its candidates are the single-window solutions
window(p_0..p_i, source -> d, k'), one per column i at or right of the
source, which the sweep reads straight into V (0 + x is x), so the trivial
one-window decomposition is always among the candidates considered.

The window oracle is exact within its ``point_cap`` (it raises
CapacityError past it), so that one-window candidate, window(p_0..p_{n-1},
source -> sink, k), is the optimum, which nothing else the sweep builds can
undercut.  So ``solve_ktsp`` makes one ``single_slot_table`` request over
all points, stopped at k, and reads that one path with ``path``: no V and
no bridges.  The exact oracle's window table reads a path from a rooted
Held-Karp pass from the source over the whole set and makes none of the
per-run passes its ``run`` keeps, since nothing reads that.  The rotation
fixes the table's order, so the sums and ties are the ones the sweep's
first-window read gives.  Source and sink at the same coordinates have no
direction to rotate onto the axis, so both reads keep the given frame for
them.  A read-back that is not a source -> sink path over k distinct points
raises ConsistencyError.

``_sweep_ktsp`` keeps the full sweep as the reference the one-window read
is tested against and the base for windows narrower than the whole set.  It
stores values only, V and the bridge blocks of W2, each built once its
column is final, and keeps no record of which candidate won.
Reconstruction walks back from the end entry and re-derives each choice: it
rebuilds the candidates of one prefix column at a time, takes the first
column whose least candidate equals the stored V (the same float sums, so
the test is exact), and breaks every tie as the fill's ordered minimum does.

Two table requests serve the whole sweep.  The first window is entered
only at the source, so ``rooted_table`` over all points, one pass from the
source, yields its lengths for every column i; every later window lies
right of the source, so ``single_slot_table`` over the points right of the
source yields their lengths.  No path the sweep reads visits more than k
points, so both requests pass ``max_visits=k`` and the passes stop there.
Both tables are read through ``run``, and reconstruction reads each winning
window's path back from the table that gave its length with ``path``: the
rooted table walks back over its kept layers, and the window table builds a
rooted table over the window's run, rooted at the path's start, and walks
that.  So a swapped-in oracle's tables have to answer ``run`` and ``path``
for counts up to k, and nothing more; the oracle may ignore ``max_visits``
and hold every count.  A table whose read-back disagrees with its own
lengths raises ConsistencyError.

With the exact window oracle the sweep returns the true optimum.  The
paper proves the bound OPT + delta * (OPT - |st|) for the sweep over a
(1 + delta/4)-approximate window oracle, which this package does not ship:
backward edges charge their full length to the excess and merged windows
keep those charges disjoint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, DegenerateInputError, InfeasibleError, InputError
from .geometry import PointSet, rotate_to_axis
from .paths import Path, path_length
from .window_solver import ExactWindowSolver

INF = math.inf


def solve_ktsp(
    points: PointSet, source: int, sink: int, k: int, *, window_solver=None
) -> tuple[Path, float]:
    """Shortest s-to-t path visiting at least k points.

    The answer is the whole set's one-window optimum, so it is exact.
    Returns the path and its length measured on the original coordinates.
    Raises InfeasibleError when k exceeds n, DegenerateInputError when
    source equals sink, CapacityError from the window solver when it cannot
    take the whole set, and ConsistencyError when the table gives no path
    for a feasible instance or one that is not a source -> sink path over k
    distinct points.
    """
    n = points.n
    if not (0 <= source < n and 0 <= sink < n):
        raise InputError("endpoint id out of range")
    if source == sink:
        raise DegenerateInputError("source equals sink; use the orienteering driver")
    if k > n:
        raise InfeasibleError(f"k={k} exceeds n={n}")
    if k < 2:
        raise InputError("k must be at least 2 (both endpoints count)")
    solver = window_solver if window_solver is not None else ExactWindowSolver()

    frame = _sweep_frame(points, source, sink)
    ranks = frame.ranks
    table = solver.single_slot_table(frame, range(n), max_visits=k)
    visits = table.path(0, n - 1, int(ranks[source]), int(ranks[sink]), k)
    return _answer(points, visits, source, sink, k)


def _sweep_ktsp(
    points: PointSet, source: int, sink: int, k: int, *, window_solver=None
) -> tuple[Path, float]:
    """``solve_ktsp``'s answer by the paper's full sweep over every window
    decomposition.  The input is taken as valid."""
    solver = window_solver if window_solver is not None else ExactWindowSolver()
    frame = _sweep_frame(points, source, sink)
    V, bridges, rooted, table, dmat = _fill_table(frame, solver, source, k)
    end = (points.n - 1, int(frame.ranks[sink]), k)
    visits = None
    if math.isfinite(V[end]):
        visits = _reconstruct(V, bridges, rooted, table, dmat, int(frame.ranks[source]), end)
    return _answer(points, visits, source, sink, k)


def _sweep_frame(points: PointSet, source: int, sink: int) -> PointSet:
    """The points rotated so the sink lies right of the source on the sweep
    axis, or as given when the two coincide and have no direction."""
    if points.distance(source, sink) > 0.0:
        return rotate_to_axis(points, source, sink)[0]
    return points


def _answer(points: PointSet, visits, source: int, sink: int, k: int) -> tuple[Path, float]:
    """The path of the ``visits`` a table read back and its length, or
    ConsistencyError when there are none or they are not a source -> sink
    path over k distinct points."""
    if visits is None:
        # The input checks guarantee a path; only a broken oracle gets here.
        raise ConsistencyError("no feasible entry for a feasible instance")
    visits = tuple(visits)
    ends = (visits[:1], visits[-1:]) == ((source,), (sink,))
    if not ends or len(visits) != k or len(set(visits)) != k:
        raise ConsistencyError(f"the table read back {visits}, not a {source} -> {sink} path "
                               f"over {k} distinct points")
    path = Path(points, visits)
    return path, path_length(path)


def _fill_table(rotated: PointSet, solver, source: int, k: int):
    """Run the sweep; returns (V, bridges, rooted table, window table,
    distance matrix).

    Points are indexed by sweep rank, and so are the rooted table's
    positions and the rows and columns of the distance matrix.  The window
    table holds the points right of the source, so its position p is rank
    r_s + 1 + p.  Only values are stored: ``_reconstruct`` re-derives each
    winning choice from V and the bridges, where bridges[j, c, k', kw - 1]
    is W2[j, c, k' - kw] (INF where kw > k'), built once column j is final.
    """
    n = rotated.n
    order = [int(i) for i in rotated.sweep_order]
    r_s = order.index(source)
    rooted = solver.rooted_table(rotated, order, source, max_visits=k)
    table = solver.single_slot_table(rotated, order[r_s + 1 :], max_visits=k)
    dmat = rotated.distance_matrix()[np.ix_(order, order)]

    V = np.full((n, n, k + 1), INF)
    bridges = np.full((n, n, k + 1, k), INF)
    kk, kw = np.ogrid[: k + 1, 1 : k + 1]
    fits = kk >= kw
    for i in range(r_s, n):
        # Column -1 enters the first window at the source with nothing
        # spent, and 0.0 + x == x, so its candidates are the rooted lengths.
        first = rooted.run(i)[: k + 1]
        V[i, : i + 1, : len(first)] = first.T
        for j in range(r_s, i):
            cols = V[i, j + 1 : i + 1]
            np.minimum(cols, _candidates(table, bridges, r_s, j, i).min(axis=2), out=cols)
        if i < n - 1:
            W2 = (V[i, : i + 1, None, :] + dmat[: i + 1, i + 1 :, None]).min(axis=0)
            bridges[i][i + 1 :, fits] = W2[:, (kk - kw)[fits]]
    return V, bridges, rooted, table, dmat


def _candidates(table, bridges, r_s: int, j: int, i: int) -> np.ndarray:
    """cand[d, k', c * m + kw - 1] = W2[j, c, k' - kw] + run(j + 1, i)[kw, d, c]:
    every way to end column i at d with k' visits whose last window is the
    w = i - j points after column j, entered at c with kw = 1 .. m of them,
    m = min(w, k) (INF where kw > k').  c and d are counted from j + 1."""
    w, m = i - j, min(i - j, bridges.shape[3])
    bridge = bridges[j, j + 1 : i + 1, :, :m]
    run = table.run(j - r_s, i - r_s - 1)[1 : m + 1]
    cand = bridge.transpose(1, 0, 2) + run.transpose(1, 2, 0)[:, None]
    return cand.reshape(w, bridges.shape[2], w * m)


def _reconstruct(V, bridges, rooted, table, dmat, r_s: int, key) -> list[int]:
    """Walk back from ``key`` = (i, d, k'), re-deriving each choice of the
    fill and reading each window's path back from its table.

    Among equal candidates the walk takes the first in scan order: the
    first prefix column j in (-1, r_s, ..., d - 1) whose candidates at
    (d, k') have V[i, d, k'] as their minimum (the same float sums as the
    fill's, so equality is exact), then the first argmin (c, kw) of that
    row, then the first end d' of column j that attains W2[j, c, k' - kw].
    Raises ConsistencyError when no column reproduces V or a table has no
    path for the window it names.
    """
    i, d, kk = key
    pieces: list[tuple] = []
    while True:
        if rooted.run(i)[kk, d] == V[i, d, kk]:
            j, piece = -1, rooted.path(i, d, kk)
        else:
            for j in range(r_s, d):
                row = _candidates(table, bridges, r_s, j, i)[d - j - 1, kk]
                if row.min() == V[i, d, kk]:
                    break
            else:
                raise ConsistencyError(f"no window reproduces V[{i}, {d}, {kk}]")
            c, kw = divmod(int(row.argmin()), row.size // (i - j))
            c, kw = c + j + 1, kw + 1
            piece = table.path(j - r_s, i - r_s - 1, c - r_s - 1, d - r_s - 1, kw)
        if piece is None:
            raise ConsistencyError(f"the table has no path for ranks {j + 1}..{i}")
        pieces.append(piece)
        if j < 0:
            return [p for piece in reversed(pieces) for p in piece]
        i, d, kk = j, int((V[j, : j + 1, kk - kw] + dmat[: j + 1, c]).argmin()), kk - kw
