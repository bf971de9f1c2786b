"""Rooted (m,k)-TSP: one window over the whole set, and the paper's
multi-path plane sweep.

Among the sweep's candidates is the whole set as one window, which every
slot enters at its prescribed source and leaves at its sink.  The window
oracle is exact within its ``point_cap`` (``solve_mktsp`` raises
CapacityError past it), so that one-window candidate is the optimum, which
nothing else the sweep builds can undercut.  So ``solve_mktsp`` asks
``solve_lengths`` once, over all points with the pairs as the one endpoint
configuration, and reads the system of the k-visit entry back with one
``solve_window`` call: no rotation, no pair orientation and no window
configurations.  A read-back whose slot j does not run pair j, whose
interiors overlap, that visits other than k distinct points, or whose total
is not the lengths' entry raises ConsistencyError.

``_sweep_mktsp`` keeps the paper's sweep as the reference the read is
tested against and the base for windows narrower than the whole set.  Its
space is first rotated (orienting pairs, swapping endpoints when needed) so
that every prescribed segment faces forward along the sweep axis with an
angle margin of 1/(8 m^1.5); this is what lets backward edges of *any* slot
charge against the joint excess.  The sweep then fills a table keyed by

    (column p_i, per-slot frontiers T, visit count k')

holding the cheapest multi-path prefix that uses points up to p_i.  T[l] is
None until slot l starts, which it does at its prescribed source, so the
frontiers alone say which slots have started.  A transition leaves slot l
untouched, or enters the transition's window at one point and continues to a
new frontier inside it: an unstarted slot enters at its prescribed source
(which must lie in the window) at no cost, a started one by a bridge edge
from its frontier to any window point.  Window subproblems go
through the exact window oracle; transitions between slots on null endpoints
cost nothing.  The oracle keeps no memo; the sweep keeps one per window,
from each endpoint configuration (S2, T2) to the lengths the oracle returned,
and drops it when that window's loop ends.

Only states that can still finish are stored.  ``_window_configs`` alone
decides which window configurations live: it sets slots in index order and
drops a partial configuration as soon as the sweep has passed an endpoint
the new state still needs, or the prefix cost plus the bridges and the
straight-line completion bound exceeds the cost cap.  The survivors reach
the oracle in the order they are generated.

With the exact window oracle the sweep's table is exact, so its results
equal brute-force enumeration and the read's.  The paper proves its joint
excess bound for the sweep over a (1 + delta / m^5.5)-approximate window
oracle, which this package does not ship.
"""

from __future__ import annotations

import math

from .directions import orient_pairs
from .errors import (
    CapacityError,
    ConsistencyError,
    DegenerateInputError,
    InfeasibleError,
    InputError,
)
from .geometry import PointSet, Transform
from .paths import MultiPath, Path, path_length
from .window_solver import EndpointArrays, ExactWindowSolver

INF = math.inf


def solve_mktsp(
    points: PointSet, pairs, k: int, *, window_solver=None, cost_cap: float | None = None
):
    """m paths with prescribed endpoints jointly visiting at least k points.

    Returns (MultiPath, total_length) with slot j of the answer connecting
    pair j of the input.  When `cost_cap` is given, returns None when the
    optimum exceeds the cap (used by the orienteering driver to discard
    over-budget skeletons early); without a cap the result is the exact
    optimum, the whole set's one-window optimum.
    """
    n = points.n
    m = len(pairs)
    if m < 1:
        raise InputError("need at least one endpoint pair")
    pairs = [(int(s), int(t)) for s, t in pairs]
    endpoint_ids: set[int] = set()
    for s, t in pairs:
        if not (0 <= s < n and 0 <= t < n):
            raise InputError("pair endpoint out of range")
        if s == t:
            raise DegenerateInputError(f"degenerate pair ({s}, {t})")
        endpoint_ids.update((s, t))
    if k > n:
        raise InfeasibleError(f"k={k} exceeds n={n}")
    if k < len(endpoint_ids):
        raise InfeasibleError(
            f"k={k} below the {len(endpoint_ids)} distinct prescribed endpoints"
        )

    solver = window_solver if window_solver is not None else ExactWindowSolver()
    cap = getattr(solver, "point_cap", None)
    if cap is not None and n > cap:
        # The one window holds the whole set.
        raise CapacityError(f"n={n} exceeds the window solver cap of {cap}")

    dmat = points.distance_rows()
    cost_limit = INF if cost_cap is None else cost_cap + points.length_tolerance()
    if sum(dmat[s][t] for s, t in pairs) > cost_limit:
        return None  # the pairs' straight lines alone exceed the cap
    endpoints = EndpointArrays(*zip(*pairs))
    total = solver.solve_lengths(points, range(n), endpoints).get(k)
    if total is None or total > cost_limit:
        if cost_cap is not None:
            return None
        raise ConsistencyError("no feasible entry for a feasible instance")
    system = solver.solve_window(points, range(n), endpoints, k)
    if system.total_length != total:
        raise ConsistencyError(
            f"the window read back a system of length {system.total_length}, "
            f"not the {total} its lengths give"
        )
    return _answer(points, pairs, [() if p is None else p.visits for p in system.paths], k)


def _sweep_mktsp(
    points: PointSet, pairs, k: int, *, window_solver=None, cost_cap: float | None = None
):
    """``solve_mktsp``'s answer by the paper's full sweep over every window
    decomposition.  The input is taken as valid; returns None when the sweep
    proves the optimum over `cost_cap`."""
    n = points.n
    m = len(pairs)
    pairs = [(int(s), int(t)) for s, t in pairs]
    solver = window_solver if window_solver is not None else ExactWindowSolver()

    # Rotate so every pair of distinct points faces along the sweep axis
    # (coincident pairs have no direction), then run each pair from the end
    # the rotated sweep meets first.  That is the end ``orient_pairs`` picks,
    # unless rounding in the rotated coordinates reorders two points a few
    # ulps apart; a coincident pair's tie goes to the lower id.
    directed = [(s, t) for s, t in pairs if points.distance(s, t) > 0.0]
    transform = Transform.identity(points.dim)
    if directed:
        transform, _ = orient_pairs(points, directed)
    rotated = points.transformed(transform)
    swapped = [rotated.ranks[s] > rotated.ranks[t] for s, t in pairs]
    work_pairs = [
        (t, s) if flip else (s, t) for (s, t), flip in zip(pairs, swapped)
    ]
    sources = tuple(p[0] for p in work_pairs)
    sinks = tuple(p[1] for p in work_pairs)

    order = [int(i) for i in rotated.sweep_order]
    rank = rotated.ranks.tolist()
    dmat = rotated.distance_rows()
    cost_limit = INF if cost_cap is None else cost_cap + rotated.length_tolerance()

    if sum(dmat[s][t] for s, t in zip(sources, sinks)) > cost_limit:
        return None  # the pairs' straight lines alone exceed the cap
    base_key = (tuple([None] * m), 0)
    tables: list[dict] = [dict() for _ in range(n + 1)]
    tables[0][base_key] = 0.0
    back: dict = {(0, base_key): None}

    for j in range(0, n):
        states = list(tables[j].items())
        for i in range(j + 1, n + 1):
            w_ids = order[j:i]  # sweep positions j+1 .. i
            memo: dict = {}  # (S2, T2) -> oracle lengths, for this window only
            for key, cost in states:
                T1, k1 = key
                for S2, T2, T, bridge, lb_tail, need in _window_configs(
                    T1, cost, cost_limit, w_ids, j, i, sources, sinks, rank, dmat
                ):
                    lengths = memo.get((S2, T2))
                    if lengths is None:  # an empty dict is a stored answer
                        lengths = memo[S2, T2] = solver.solve_lengths(
                            rotated, w_ids, EndpointArrays(S2, T2)
                        )
                    for kw, a_len in lengths.items():
                        kk = k1 + kw
                        if kw == 0 or kk + need > k:
                            continue  # each needed endpoint adds a visit
                        total = cost + bridge + a_len
                        if total + lb_tail > cost_limit:
                            continue
                        nkey = (T, kk)
                        if total < tables[i].get(nkey, INF):
                            tables[i][nkey] = total
                            back[(i, nkey)] = (j, key, S2, T2, kw)

    answer_key = (sinks, k)
    # The master entry lives at the last column, which wins ties; reading
    # every column is equivalent because later windows never force extra
    # visits.
    best_col = min((n, *range(n)), key=lambda col: tables[col].get(answer_key, INF))
    if answer_key not in tables[best_col]:
        if cost_cap is not None:
            return None
        raise ConsistencyError("no feasible entry for a feasible instance")

    visits_per_slot = _reconstruct(rotated, solver, order, back, best_col, answer_key, m)
    return _answer(
        points,
        pairs,
        [ids[::-1] if flip else ids for ids, flip in zip(visits_per_slot, swapped)],
        k,
    )


def _answer(points: PointSet, pairs, visits, k: int):
    """The MultiPath of the per-slot ``visits`` a read-back gave and its
    total length, or ConsistencyError when slot j does not run pair j, a
    point interior to a slot is visited again, or other than k distinct
    points are visited."""
    visits = [tuple(v) for v in visits]
    if len(visits) != len(pairs) or any(
        (v[:1], v[-1:]) != ((s,), (t,)) for v, (s, t) in zip(visits, pairs)
    ):
        raise ConsistencyError(f"the slots read back {visits}, which do not run the pairs {pairs}")
    interiors = [p for v in visits for p in v[1:-1]]
    ends = {p for pair in pairs for p in pair}
    if len(set(interiors)) != len(interiors) or not ends.isdisjoint(interiors):
        raise ConsistencyError(f"the slots read back {visits}, whose interiors overlap")
    if len(ends) + len(interiors) != k:
        raise ConsistencyError(f"the slots read back {visits}, not a system over {k} points")
    paths = tuple(Path(points, v) for v in visits)
    return MultiPath(paths), sum(path_length(p) for p in paths)


def _window_configs(T1, cost, cost_limit, w_ids, lo, hi, sources, sinks, rank, dmat):
    """Return the live window endpoint configurations of a state with
    frontiers T1 and prefix cost `cost`, for the window w_ids, which holds
    the points of rank lo .. hi - 1, as tuples
    (S2, T2, T, bridge, lb_tail, need): the segment ends per slot, the new
    frontiers, the bridge cost, the straight-line completion bound, and the
    number of distinct endpoints still to visit.

    Per slot: untouched, or entered at a window point c and ended at a
    window point d.  An unstarted slot enters only at its prescribed source,
    with no bridge; a started slot not at its sink enters at any window
    point, by a bridge from its frontier.  Two slots may share a window point
    only when it is a prescribed endpoint of each of them in the role it
    plays there (a source it starts at, a sink it ends at), as with chained
    pairs; any other point of a segment is interior to its slot's path.  A
    one-point segment is allowed only at the slot's own sink.

    Slots are set in index order.  Each slot then adds the endpoints it
    still needs (both ends if it has not started, its sink if its frontier
    is not the sink) and their straight-line term, and the partial
    configuration is dropped as soon as one of those endpoints has rank
    below hi, or cost + bridge + lb_tail exceeds cost_limit.  Adding
    non-negative floats never lowers a sum, so a partial drop loses only
    configurations the complete sums would drop, and survivors keep their
    order.
    """
    m = len(T1)
    out: list[tuple] = []

    def fits(p, shared, used):
        """`used` maps each held point to whether every holder may share it."""
        return p not in used or (shared and used[p])

    def rec(l, S2, T2, T, bridge, lb, need, used):
        if l == m:
            if S2.count(None) < m:  # some slot enters the window
                out.append((S2, T2, T, bridge, lb, len(need)))
            return
        src, snk, front = sources[l], sinks[l], T1[l]
        if front is None:
            entries = [(src, 0.0, True)] if lo <= rank[src] < hi else []
        elif front != snk:
            entries = [(c, dmat[front][c], c == snk) for c in w_ids]
        else:
            entries = []
        choices = [(None, None, 0.0, False)]  # untouched
        for c, step, shared in entries:
            if fits(c, shared, used):
                exits = (snk,) if c == snk else (d for d in w_ids if d != c)
                choices += [(c, d, step, shared) for d in exits if fits(d, d == snk, used)]
        for c, d, step, shared in choices:
            new = front if c is None else d
            if new is None:
                ends, term = (src, snk), dmat[src][snk]
            elif new != snk:
                ends, term = (snk,), dmat[new][snk]
            else:
                ends, term = (), 0.0
            if any(rank[p] < hi for p in ends):
                continue  # the sweep has passed a point this slot still needs
            b, tail = bridge + step, lb + term
            if cost + b + tail > cost_limit:
                continue  # over the cap at every visit count
            held = used if c is None else {**used, c: shared, d: d == snk}
            rec(l + 1, S2 + (c,), T2 + (d,), T + (new,), b, tail, need.union(ends), held)

    rec(0, (), (), (), 0.0, 0.0, set(), {})
    return out


def _reconstruct(rotated, solver, order, back, col, key, m):
    """Expand the winning transition chain into per-slot visit id lists."""
    segments: list[list[list[int]]] = [[] for _ in range(m)]
    while True:
        prev = back[(col, key)]
        if prev is None:
            break
        j, pkey, S2, T2, kw = prev
        w_ids = order[j:col]
        sol = solver.solve_window(rotated, w_ids, EndpointArrays(S2, T2), kw)
        if not sol.feasible:
            raise ConsistencyError(f"the oracle has no system for ranks {j}..{col - 1}")
        for l in range(m):
            if S2[l] is not None:
                segments[l].append(list(sol.paths[l].visits))
        col, key = j, pkey
    visits: list[list[int]] = []
    for l in range(m):
        segs = segments[l][::-1]
        if not segs:
            raise ConsistencyError(f"slot {l} never activated")
        flat: list[int] = []
        for seg in segs:
            flat.extend(seg)
        visits.append(flat)
    return visits
