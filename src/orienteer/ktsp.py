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

One table request serves the whole sweep: ``single_slot_table`` over all
points yields every window's lengths through ``run``, and reconstruction
reads each winning window's path back from that same table with ``path``,
so a swapped-in oracle's table has to answer ``run`` and ``path``, and
nothing more.

With an exact window oracle the sweep returns the true optimum; with a
(1 + delta')-approximate oracle run at delta' = delta/4 it returns a path of
length at most OPT + delta * (OPT - |st|), because backward edges charge
their full length to the excess and merged windows keep those charges
disjoint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, InfeasibleError, InputError
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
    DegenerateInputError when source equals sink, and CapacityError from the
    window solver when it cannot take the whole set, the sweep's first window.
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
    V, table, back = _fill_table(rotated, solver, source, k, delta_prime)
    end = (n - 1, int(rotated.ranks[sink]), k)
    if not math.isfinite(V[end]):
        raise InfeasibleError("no feasible path found")  # unreachable for valid input

    visits = _reconstruct(table, back, end)
    path = Path(points, tuple(visits))
    return path, path_length(path)


def _fill_table(rotated: PointSet, solver, source: int, k: int, delta_prime: float):
    """Run the sweep; returns (value table, window table, backpointers).

    Points are indexed by sweep rank, and so are the window table's
    positions.  back[i, d, k'] = (j, c, kw, d') names the winning
    candidate: the prefix column j (-1 for the empty prefix), the window's
    entry c and visit count kw, and the prefix's end d' in column j.  Among
    equal candidates the first in (j, c, kw) order wins.
    """
    n = rotated.n
    order = [int(i) for i in rotated.sweep_order]
    r_s = order.index(source)
    full = solver.single_slot_table(rotated, order, delta_prime)
    dmat = rotated.distance_matrix()[np.ix_(order, order)]

    V = np.full((n, n, k + 1), INF)
    back = np.full((n, n, k + 1, 4), -1)
    # W2[j] (module docstring) and its argmin d'.  Row -1, a spare last row,
    # is the empty prefix: 0 at (source, k'' = 0), INF elsewhere.
    W2 = np.full((n + 1, n, k + 1), INF)
    W2_arg = np.full((n + 1, n, k + 1), -1)
    W2[-1, r_s, 0] = 0.0
    kk = np.arange(k + 1)

    for i in range(r_s, n):
        for j in (-1, *range(r_s, i)):
            w = i - j
            win = full.run(j + 1, i)  # [kw, d, c] over ranks j+1..i
            # bridge[c, k', kw] = W2[j, c, k' - kw], INF where kw > k'.
            pad = np.concatenate((np.full((w, w), INF), W2[j, j + 1 : i + 1]), axis=1)
            bridge = pad[:, w + kk[:, None] - np.arange(w + 1)]
            cand = bridge.transpose(1, 0, 2) + win.transpose(1, 2, 0)[:, None]
            cand = cand.reshape(w, k + 1, w * (w + 1))  # [d, k', (c, kw)]
            arg, best = cand.argmin(axis=2), cand.min(axis=2)
            cols = V[i, j + 1 : i + 1]
            sel = np.nonzero(best < cols)
            cols[sel] = best[sel]
            c, kw = np.divmod(arg[sel], w + 1)
            c += j + 1
            back[i, j + 1 : i + 1][sel] = np.column_stack(
                (np.full_like(c, j), c, kw, W2_arg[j, c, sel[1] - kw])
            )
        if i < n - 1:
            bridges = V[i, : i + 1, None, :] + dmat[: i + 1, i + 1 :, None]
            W2[i, i + 1 :] = bridges.min(axis=0)
            W2_arg[i, i + 1 :] = bridges.argmin(axis=0)

    return V, full, back


def _reconstruct(table, back, key) -> list[int]:
    """Walk backpointers, reading each window's path back from the table."""
    i, d, kk = key
    pieces: list[tuple] = []
    while i >= 0:
        j, c, kw, d_prev = (int(x) for x in back[i, d, kk])
        pieces.append(table.path(j + 1, i, c, d, kw))
        i, d, kk = j, d_prev, kk - kw
    return [p for piece in reversed(pieces) for p in piece]
