"""Plane-sweep dynamic program for rooted k-TSP.

The space is rotated so the prescribed endpoints sit on the sweep axis with
the source on the left.  Sweeping points by their (tie-broken) first
coordinate, the table entry V[i, d, k'] holds the best known length of a path
that starts at the source, ends at point d, and visits k' points among the
first i+1 in sweep order.  Entries combine a previously computed path with a
bridge edge into a window subproblem solved by the window oracle:

    V[i, d, k'] = min over j < i, c in (p_j, p_i], k'' < k' of
                  W2[j, c, k''] + window(p_{j+1}..p_i, c -> d, k'-k''),
    W2[j, c, k''] = min over d' <= p_j of V[j, d', k''] + |d' c|.

Column j = -1 is the empty prefix: it sits at the source with zero length and
zero visits, so W2[-1, c, k''] is 0 at (c = source, k'' = 0) and INF
elsewhere.  Its candidates are the single-window solutions
window(p_0..p_i, source -> d, k'), one per column i at or right of the
source, so the trivial one-window decomposition is always among the
candidates considered.

The sweep stores values only, V and W2, and keeps no record of which
candidate won.  Reconstruction walks back from the end entry and re-derives
each choice: it rebuilds the candidates of one prefix column at a time,
takes the first column whose least candidate equals the stored V (the same
float sums, so the test is exact), and breaks every tie as the fill's
ordered minimum does.

One table request serves the whole sweep: ``single_slot_table`` over all
points yields every window's lengths through ``run``, and reconstruction
reads each winning window's path back from that same table with ``path``,
so a swapped-in oracle's table has to answer ``run`` and ``path``, and
nothing more.  A table whose read-back disagrees with its own lengths
raises ConsistencyError.

With an exact window oracle the sweep returns the true optimum; with a
(1 + delta')-approximate oracle run at delta' = delta/4 it returns a path of
length at most OPT + delta * (OPT - |st|), because backward edges charge
their full length to the excess and merged windows keep those charges
disjoint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, DegenerateInputError, InfeasibleError, InputError
from .geometry import PointSet, rotate_to_axis
from .paths import Path, path_length
from .window_solver import ExactWindowSolver

INF = math.inf

#: The window oracle is run at this fraction of the requested accuracy.
WINDOW_ACCURACY_FRACTION = 0.25


def solve_ktsp(
    points: PointSet,
    source: int,
    sink: int,
    k: int,
    delta: float = 0.25,
    window_solver=None,
) -> tuple[Path, float]:
    """Shortest s-to-t path visiting at least k points, excess-approximately.

    Returns the reconstructed path and its length measured on the original
    coordinates.  Raises InfeasibleError when k exceeds n,
    DegenerateInputError when source equals sink, CapacityError from the
    window solver when it cannot take the whole set, the sweep's first window,
    and ConsistencyError when the table's read-back disagrees with its lengths.
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
    if not delta > 0:
        raise InputError("delta must be positive")
    solver = window_solver if window_solver is not None else ExactWindowSolver()
    delta_prime = WINDOW_ACCURACY_FRACTION * delta

    rotated, _ = rotate_to_axis(points, source, sink)
    V, W2, table, dmat = _fill_table(rotated, solver, source, k, delta_prime)
    end = (n - 1, int(rotated.ranks[sink]), k)
    if not math.isfinite(V[end]):
        raise InfeasibleError("no feasible path found")  # unreachable for valid input

    visits = _reconstruct(V, W2, table, dmat, int(rotated.ranks[source]), end)
    path = Path(points, tuple(visits))
    return path, path_length(path)


def _fill_table(rotated: PointSet, solver, source: int, k: int, delta_prime: float):
    """Run the sweep; returns (V, W2, window table, distance matrix).

    Points are indexed by sweep rank, and so are the window table's
    positions and the rows and columns of the distance matrix.  Only values
    are stored: ``_reconstruct`` re-derives each winning choice from V and
    W2.  W2 has a spare last row, row -1, for the empty prefix.
    """
    n = rotated.n
    order = [int(i) for i in rotated.sweep_order]
    r_s = order.index(source)
    table = solver.single_slot_table(rotated, order, delta_prime)
    dmat = rotated.distance_matrix()[np.ix_(order, order)]

    V = np.full((n, n, k + 1), INF)
    W2 = np.full((n + 1, n, k + 1), INF)
    W2[-1, r_s, 0] = 0.0
    for i in range(r_s, n):
        for j in (-1, *range(r_s, i)):
            cols = V[i, j + 1 : i + 1]
            np.minimum(cols, _candidates(table, W2, j, i).min(axis=2), out=cols)
        if i < n - 1:
            W2[i, i + 1 :] = (V[i, : i + 1, None, :] + dmat[: i + 1, i + 1 :, None]).min(axis=0)
    return V, W2, table, dmat


def _candidates(table, W2, j: int, i: int) -> np.ndarray:
    """cand[d, k', c * (w + 1) + kw] = W2[j, c, k' - kw] + run(j + 1, i)[kw, d, c]:
    every way to end column i at d with k' visits whose last window is the
    w = i - j points after column j, entered at c with kw of them (INF where
    kw > k').  c and d are counted from j + 1."""
    w, kk = i - j, np.arange(W2.shape[2])
    # bridge[c, k', kw] = W2[j, c, k' - kw], read through w INF columns.
    pad = np.concatenate((np.full((w, w), INF), W2[j, j + 1 : i + 1]), axis=1)
    bridge = pad[:, w + kk[:, None] - np.arange(w + 1)]
    cand = bridge.transpose(1, 0, 2) + table.run(j + 1, i).transpose(1, 2, 0)[:, None]
    return cand.reshape(w, len(kk), w * (w + 1))


def _reconstruct(V, W2, table, dmat, r_s: int, key) -> list[int]:
    """Walk back from ``key`` = (i, d, k'), re-deriving each choice of the
    fill and reading each window's path back from the table.

    Among equal candidates the walk takes the first in scan order: the
    first prefix column j in (-1, r_s, ..., d - 1) whose candidate row at
    (d, k') has V[i, d, k'] as its minimum (the same float sums as the
    fill's, so equality is exact), then the first argmin (c, kw) of that
    row, then the first end d' of column j that attains W2[j, c, k' - kw].
    Raises ConsistencyError when no column reproduces V or the table has no
    path for the window it names.
    """
    i, d, kk = key
    pieces: list[tuple] = []
    while True:
        for j in (-1, *range(r_s, d)):
            row = _candidates(table, W2, j, i)[d - j - 1, kk]
            if row.min() == V[i, d, kk]:
                break
        else:
            raise ConsistencyError(f"no window reproduces V[{i}, {d}, {kk}]")
        c, kw = divmod(int(row.argmin()), i - j + 1)
        c += j + 1
        piece = table.path(j + 1, i, c, d, kw)
        if piece is None:
            raise ConsistencyError(f"the table has no path for ranks {j + 1}..{i}")
        pieces.append(piece)
        if j < 0:
            return [p for piece in reversed(pieces) for p in piece]
        i, d, kk = j, int((V[j, : j + 1, kk - kw] + dmat[: j + 1, c]).argmin()), kk - kw
