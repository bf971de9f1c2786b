"""Multi-path plane sweep for rooted (m,k)-TSP.

The space is first rotated (orienting pairs, swapping endpoints when needed)
so that every prescribed segment faces forward along the sweep axis with an
angle margin of 1/(8 m^1.5); this is what lets backward edges of *any* slot
charge against the joint excess.  The sweep then fills a table keyed by

    (column p_i, per-slot frontiers T, visit count k')

holding the cheapest multi-path prefix that uses points up to p_i.  T[l] is
None until slot l starts, which it does at its prescribed source, so the
frontiers alone say which slots have started.  A transition leaves slot l
untouched, starts it inside the transition's window (its prescribed source
must lie there), or bridges from its current frontier to a window entry point
and continues to a new frontier inside the window.  Window subproblems go
through the exact window oracle; transitions between slots on null endpoints
cost nothing.  The oracle keeps no memo; the sweep keeps one per window,
from each endpoint configuration (S2, T2) to the lengths the oracle returned,
and drops it when that window's loop ends.

Only states that can still finish are stored.  Each window configuration is
checked before its oracle call and dropped when the sweep has already passed
an endpoint the new state still needs, or when the prefix cost plus the
straight-line completion bound exceeds the cost cap.

At desk scale the table is exact, so results equal brute-force enumeration;
the oracle accuracy knob is still plumbed through as
delta' = c * delta / m^5.5 for contract compatibility with approximate
window solvers.
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

#: The window oracle accuracy is delta' = ACCURACY_CONSTANT * delta / m^5.5.
#: With the exact oracle the value is immaterial; it exists so an approximate
#: oracle can be swapped in without touching this module.
ACCURACY_CONSTANT = 1.0


def window_accuracy(delta: float, m: int) -> float:
    return ACCURACY_CONSTANT * delta / (m ** 5.5)


def solve_mktsp(
    points: PointSet,
    pairs,
    k: int,
    delta: float = 0.25,
    window_solver=None,
    rng_seed: int = 0,
    cost_cap: float | None = None,
):
    """m paths with prescribed endpoints jointly visiting at least k points.

    Returns (MultiPath, total_length) with slot j of the answer connecting
    pair j of the input.  When `cost_cap` is given, returns None as soon as
    it can prove the optimum exceeds the cap (used by the orienteering
    driver to discard over-budget skeletons early); without a cap the result
    is the exact optimum.
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
    if not delta > 0:
        raise InputError("delta must be positive")

    solver = window_solver if window_solver is not None else ExactWindowSolver()
    cap = getattr(solver, "point_cap", None)
    if cap is not None and n > cap:
        # Transitions may span the whole set in one window.
        raise CapacityError(f"n={n} exceeds the window solver cap of {cap}")
    delta_prime = window_accuracy(delta, m)

    # Rotate so every pair of distinct points faces along the sweep axis
    # (coincident pairs have no direction), then run each pair from the end
    # the rotated sweep meets first.  That is the end ``orient_pairs`` picks,
    # unless rounding in the rotated coordinates reorders two points a few
    # ulps apart; a coincident pair's tie goes to the lower id.
    directed = [(s, t) for s, t in pairs if points.distance(s, t) > 0.0]
    transform = Transform.identity(points.dim)
    if directed:
        transform, _ = orient_pairs(points, directed, rng_seed)
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
    cost_limit = None
    if cost_cap is not None:
        cost_limit = cost_cap + rotated.length_tolerance()

    def pending(T) -> tuple[set, float]:
        """The endpoints a state still has to visit, and a lower bound on the
        cost of completing it (summed over slots in index order)."""
        need, lb = set(), 0.0
        for l in range(m):
            if T[l] is None:
                need.update((sources[l], sinks[l]))
                lb += dmat[sources[l]][sinks[l]]
            elif T[l] != sinks[l]:
                need.add(sinks[l])
                lb += dmat[T[l]][sinks[l]]
        return need, lb

    base_key = (tuple([None] * m), 0)
    if cost_limit is not None and pending(base_key[0])[1] > cost_limit:
        return None
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
                for S2, T2, bridge in _window_configs(T1, w_ids, j, i, sources, sinks, rank, dmat):
                    T = tuple(T1[l] if T2[l] is None else T2[l] for l in range(m))
                    need, lb_tail = pending(T)
                    if any(rank[p] < i for p in need):
                        continue  # the sweep has passed a point it still needs
                    if cost_limit is not None and cost + bridge + lb_tail > cost_limit:
                        continue  # over the cap at every visit count
                    lengths = memo.get((S2, T2))
                    if lengths is None:  # an empty dict is a stored answer
                        lengths = memo[S2, T2] = solver.solve_lengths(
                            rotated, w_ids, EndpointArrays(S2, T2), delta_prime
                        )
                    for kw, a_len in lengths.items():
                        kk = k1 + kw
                        if kw == 0 or kk + len(need) > k:
                            continue  # each needed endpoint adds a visit
                        total = cost + bridge + a_len
                        if cost_limit is not None and total + lb_tail > cost_limit:
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
        if cost_limit is not None:
            return None
        raise ConsistencyError("no feasible entry for a feasible instance")

    visits_per_slot = _reconstruct(
        rotated, solver, order, back, best_col, answer_key, delta_prime, m
    )
    paths = []
    for l in range(m):
        ids = visits_per_slot[l]
        if swapped[l]:
            ids = ids[::-1]
        if ids[0] != pairs[l][0] or ids[-1] != pairs[l][1]:
            raise ConsistencyError(f"slot {l} endpoints corrupted: {ids}")
        paths.append(Path(points, tuple(ids)))
    multi = MultiPath(tuple(paths))
    total = sum(path_length(p) for p in paths)
    return multi, total


def _window_configs(T1, w_ids, lo, hi, sources, sinks, rank, dmat):
    """Yield feasible (S2, T2, bridge_cost) window endpoint configurations
    for the window w_ids, which holds the points of rank lo .. hi - 1.

    Per slot: untouched, start at its prescribed source inside the window, or
    bridge from the current frontier to an entry point.  Two slots may share
    a window point only when it is a prescribed endpoint of each of them in
    the role it plays there (a source it starts at, a sink it ends at), as
    with chained pairs; any other point of a segment is interior to its
    slot's path.  A one-point segment is allowed only at the slot's own sink.
    Frontier moves that strand a sink behind the sweep are skipped.
    """
    m = len(T1)
    out: list[tuple] = []

    def fits(p, shared, used):
        """`used` maps each held point to whether every holder may share it."""
        return p not in used or (shared and used[p])

    def rec(l, S2, T2, bridge, used, any_active):
        if l == m:
            if any_active:
                out.append((tuple(S2), tuple(T2), bridge))
            return
        # untouched
        S2.append(None)
        T2.append(None)
        rec(l + 1, S2, T2, bridge, used, any_active)
        S2.pop()
        T2.pop()

        snk = sinks[l]
        sink_ahead = rank[snk] >= hi

        def exits(c):
            """Points d the segment entered at c may end at."""
            if c == snk:
                return (snk,)
            return [
                d for d in w_ids
                if d != c and (d == snk or sink_ahead) and fits(d, d == snk, used)
            ]

        if T1[l] is None:
            src = sources[l]
            if lo <= rank[src] < hi and fits(src, True, used):
                for d in exits(src):
                    S2.append(src)
                    T2.append(d)
                    rec(l + 1, S2, T2, bridge, {**used, src: True, d: d == snk}, True)
                    S2.pop()
                    T2.pop()
        elif T1[l] != snk:
            for c in w_ids:
                if not fits(c, c == snk, used):
                    continue
                step = dmat[T1[l]][c]
                for d in exits(c):
                    S2.append(c)
                    T2.append(d)
                    rec(l + 1, S2, T2, bridge + step, {**used, c: c == snk, d: d == snk}, True)
                    S2.pop()
                    T2.pop()

    rec(0, [], [], 0.0, {}, False)
    return out


def _reconstruct(rotated, solver, order, back, col, key, delta_prime, m):
    """Expand the winning transition chain into per-slot visit id lists."""
    segments: list[list[list[int]]] = [[] for _ in range(m)]
    while True:
        prev = back[(col, key)]
        if prev is None:
            break
        j, pkey, S2, T2, kw = prev
        w_ids = order[j:col]
        sol = solver.solve_window(
            rotated, w_ids, EndpointArrays(S2, T2), kw, delta_prime
        )
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
