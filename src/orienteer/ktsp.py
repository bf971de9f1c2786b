"""Plane-sweep dynamic program for rooted k-TSP.

The space is rotated so the prescribed endpoints sit on the sweep axis with
the source on the left.  Sweeping points by their (tie-broken) first
coordinate, the table entry V[i, d, k'] holds the best known length of a path
that starts at the source, ends at point d, and visits k' points among the
first i+1 in sweep order.  Entries combine a previously computed path with a
bridge edge into a window subproblem solved by the window oracle:

    V[i, d, k'] = min over j < i, d' <= p_j, c in (p_j, p_i], k'' < k' of
                  V[j, d', k''] + |d' c| + window(p_{j+1}..p_i, c -> d, k'-k'')

seeded, for every column i at or right of the source, with the single-window
solutions  V[i, d, k'] = window(p_1..p_i, source -> d, k').  The seeding
ranges over all columns (not only the source's), so the trivial one-window
decomposition is always among the candidates considered.

With an exact window oracle the sweep returns the true optimum; with a
(1 + delta')-approximate oracle run at delta' = delta/4 it returns a path of
length at most OPT + delta * (OPT - |st|), because backward edges charge
their full length to the excess and merged windows keep those charges
disjoint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DegenerateInputError, InfeasibleError, InputError
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
    coordinates.  Raises InfeasibleError when k exceeds n and
    DegenerateInputError when source equals sink.
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
    cap = getattr(solver, "point_cap", None)
    if cap is not None and n > cap:
        # The seed windows span the whole set, so the cap binds at n already.
        raise CapacityError(f"n={n} exceeds the window solver cap of {cap}")
    delta_prime = WINDOW_ACCURACY_FRACTION * delta

    rotated, _ = rotate_to_axis(points, source, sink)
    V, order, back = _fill_table(rotated, solver, source, k, delta_prime)
    rank = {p: i for i, p in enumerate(order)}
    r_t = rank[sink]

    answer = V[points.n - 1, r_t, k]
    if not math.isfinite(answer):
        raise InfeasibleError("no feasible path found")  # unreachable for valid input

    visits = _reconstruct(rotated, solver, order, back, (points.n - 1, r_t, k), delta_prime)
    path = Path(points, tuple(visits))
    return path, path_length(path)


def _fill_table(rotated: PointSet, solver, source: int, k: int, delta_prime: float):
    """Run the sweep; returns (value table, sweep order, backpointers)."""
    n = rotated.n
    order = [int(i) for i in rotated.sweep_order]
    rank = {p: i for i, p in enumerate(order)}
    dmat = rotated.distance_matrix()
    r_s = rank[source]

    full = solver.single_slot_table(rotated, order, delta_prime)

    def table(lo: int, hi: int):
        """Window oracle table over sweep positions lo..hi inclusive."""
        return full.window(lo, hi)

    # V[i][d_rank][k'] and parallel backpointers.
    V = np.full((n, n, k + 1), INF)
    back: dict[tuple[int, int, int], tuple] = {}

    for i in range(r_s, n):
        t_init = table(0, i)
        for d_rank in range(i + 1):
            d_id = order[d_rank]
            for kk in range(1, k + 1):
                val = t_init.length(source, d_id, kk)
                if val < V[i, d_rank, kk]:
                    V[i, d_rank, kk] = val
                    back[(i, d_rank, kk)] = ("window", 0, i, source, d_id, kk, None)

    # W2[j][c_rank][k''] = min over d' of V[j, d', k''] + |d' c|, computed
    # from column j once the sweep has finalized it.
    W2 = np.full((n, n, k + 1), INF)
    W2_arg = np.full((n, n, k + 1), -1, dtype=int)

    def fill_bridges(j: int):
        reach = V[j, : j + 1, :]  # (j+1, k+1) over d' ranks
        for c_rank in range(j + 1, n):
            c_id = order[c_rank]
            bridge = np.array([dmat[order[dr], c_id] for dr in range(j + 1)])
            cand = reach + bridge[:, None]
            W2[j, c_rank, :] = cand.min(axis=0)
            W2_arg[j, c_rank, :] = cand.argmin(axis=0)

    fill_bridges(r_s)
    for i in range(r_s + 1, n):
        for j in range(r_s, i):
            t_win = table(j + 1, i)
            for c_rank in range(j + 1, i + 1):
                c_id = order[c_rank]
                for d_rank in range(j + 1, i + 1):
                    d_id = order[d_rank]
                    for kw in range(1, i - j + 1):
                        a_val = t_win.length(c_id, d_id, kw)
                        if not math.isfinite(a_val):
                            continue
                        for k2 in range(1, k - kw + 1):
                            base = W2[j, c_rank, k2]
                            if not math.isfinite(base):
                                continue
                            total = base + a_val
                            kk = k2 + kw
                            if total < V[i, d_rank, kk]:
                                V[i, d_rank, kk] = total
                                back[(i, d_rank, kk)] = (
                                    "step",
                                    j,
                                    i,
                                    c_id,
                                    d_id,
                                    kw,
                                    (int(W2_arg[j, c_rank, k2]), k2),
                                )
        if i < n - 1:
            fill_bridges(i)

    return V, order, back


def _reconstruct(rotated, solver, order, back, key, delta_prime) -> list[int]:
    """Walk backpointers, expanding each window through the exact solver."""
    from .window_solver import EndpointArrays

    pieces: list[list[int]] = []
    while True:
        kind, lo_col, i, c_id, d_id, kw, prev = back[key]
        if kind == "window":
            window_ids = order[0 : i + 1]
        else:
            window_ids = order[lo_col + 1 : i + 1]
        sol = solver.solve_window(
            rotated, window_ids, EndpointArrays((c_id,), (d_id,)), kw, delta_prime
        )
        pieces.append(list(sol.paths[0].visits))
        if kind == "window":
            break
        d_prime_rank, k2 = prev
        key = (lo_col, d_prime_rank, k2)
    pieces.reverse()
    visits: list[int] = []
    for piece in pieces:
        visits.extend(piece)
    return visits
