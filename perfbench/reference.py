"""Independent optimum values for the benchmark's answer check.

Instances within the brute-force oracle's cap (``orienteer.oracle``) are
checked against it.  Larger ones go through the Held-Karp subset dynamic
program below, which works from raw coordinates and shares no code with the
solver modules.  All functions take the instance as the plain dict read from
its JSON file.  `orienteer` is imported inside the functions because the
benchmark puts `src/` on the import path only after its set-up.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative slack for comparing lengths computed in different orders.
LENGTH_RTOL = 1e-9


def distances(points) -> np.ndarray:
    coords = np.asarray(points, dtype=float)
    return np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)


def budget_tol(points) -> float:
    """The budget slack ``orienteer verify`` allows: 1e-9 of the bounding-box
    diagonal, and at least 1e-9."""
    coords = np.asarray(points, dtype=float)
    diag = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    return 1e-9 * max(1.0, diag)


def held_karp(dmat: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortest paths from `start` over every vertex subset.

    Returns (dp, popcount) where dp[mask, v] is the length of the shortest
    path that starts at `start`, visits exactly the vertices in `mask` and
    ends at v (inf when there is none), and popcount[mask] is |mask|.
    Masks are processed one popcount layer at a time.
    """
    n = dmat.shape[0]
    masks = np.arange(1 << n)
    popcount = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        popcount += (masks >> b) & 1
    dp = np.full((1 << n, n), math.inf)
    dp[1 << start, start] = 0.0
    has_start = (masks >> start) & 1 == 1
    for size in range(1, n):
        layer = masks[has_start & (popcount == size)]
        for p in range(n):
            src = layer[(layer >> p) & 1 == 0]
            cand = (dp[src] + dmat[:, p]).min(axis=1)
            dst = src | (1 << p)
            dp[dst, p] = np.minimum(dp[dst, p], cand)
    return dp, popcount


def optimum(inst: dict):
    """OPT for k-TSP and (m,k)-TSP, k_opt for orienteering.

    Within the oracle's point cap the brute-force oracle answers; above it,
    the subset dynamic program does.
    """
    from orienteer.oracle import max_points_cap

    if len(inst["points"]) <= max_points_cap():
        return oracle_optimum(inst)
    return subset_dp_optimum(inst)


def oracle_optimum(inst: dict):
    from orienteer import oracle

    coords = np.asarray(inst["points"], dtype=float)
    if inst["kind"] == "ktsp":
        return oracle.brute_ktsp(coords, inst["source"], inst["sink"], inst["k"])[1]
    if inst["kind"] == "mktsp":
        return oracle.brute_mktsp(coords, [tuple(p) for p in inst["pairs"]], inst["k"])[1]
    return oracle.brute_orienteering(coords, inst["root"], inst["budget"])[0]


def subset_dp_optimum(inst: dict):
    dmat = distances(inst["points"])
    if inst["kind"] == "ktsp":
        return _ktsp(dmat, inst["source"], inst["sink"], inst["k"])
    if inst["kind"] == "mktsp":
        return _mktsp(dmat, [tuple(p) for p in inst["pairs"]], inst["k"])
    dp, popcount = held_karp(dmat, inst["root"])
    fits = dp.min(axis=1) <= inst["budget"] + budget_tol(inst["points"])
    return int(popcount[fits].max())


def _ktsp(dmat: np.ndarray, source: int, sink: int, k: int) -> float:
    """Shortest source-to-sink path visiting at least k points."""
    dp, popcount = held_karp(dmat, source)
    masks = np.arange(dp.shape[0])
    ok = (popcount >= k) & ((masks >> sink) & 1 == 1)
    return float(dp[ok, sink].min())


def _mktsp(dmat: np.ndarray, pairs: list, k: int) -> float:
    """Least total length of one path per pair, interiors disjoint from each
    other and from every endpoint, jointly visiting at least k points."""
    ends = sorted({v for pair in pairs for v in pair})
    free = [v for v in range(dmat.shape[0]) if v not in ends]
    f = len(free)
    subsets = np.arange(1 << f)
    # per_pair[j][I] = shortest s_j -> t_j path whose interior is exactly the
    # free-point subset I; local vertex 0 is s_j, 1..f the free points, f+1 t_j.
    per_pair = []
    for s, t in pairs:
        nodes = [s, *free, t]
        dp, _ = held_karp(dmat[np.ix_(nodes, nodes)], 0)
        per_pair.append(dp[1 | (subsets << 1) | (1 << (f + 1)), f + 1].tolist())
    # Min-plus subset convolution, one pair at a time.
    best = per_pair[0]
    for cost in per_pair[1:]:
        merged = [math.inf] * (1 << f)
        for whole in range(1 << f):
            part = whole
            while True:
                merged[whole] = min(merged[whole], best[whole ^ part] + cost[part])
                if part == 0:
                    break
                part = (part - 1) & whole
        best = merged
    need = k - len(ends)
    return min(v for s, v in enumerate(best) if bin(s).count("1") >= need)


def check_answer(inst: dict, sol: dict) -> tuple[bool, float, str]:
    """Check a solution file against the instance and its optimum.

    Returns (ok, gap, detail).  The gap is (L - OPT) / excess(OPT) for the
    path kinds and (k_opt - visited) / k_opt for orienteering; ok requires a
    well-formed answer that meets the stated guarantee.
    """
    kind, points, delta = inst["kind"], inst["points"], inst["delta"]
    n = len(points)
    if sol.get("verification") != "passed":
        return False, 0.0, f"verification {sol.get('verification')!r}"
    if sol.get("kind") != kind:
        return False, 0.0, "solution kind differs from the instance"
    seqs = sol["visits_per_path"] if kind == "mktsp" else [sol["visits"]]
    if not all(seq and all(0 <= v < n for v in seq) and len(set(seq)) == len(seq)
               for seq in seqs):
        return False, 0.0, "visit ids out of range, empty or repeated"
    dmat = distances(points)
    length = sum(float(sum(dmat[a, b] for a, b in zip(seq, seq[1:]))) for seq in seqs)
    visited = len({v for seq in seqs for v in seq})
    if abs(length - sol["length"]) > LENGTH_RTOL * max(1.0, length):
        return False, 0.0, f"length {sol['length']!r} recomputes to {length!r}"
    if visited != sol["visited"]:
        return False, 0.0, f"visited {sol['visited']} recomputes to {visited}"

    if kind == "orienteering":
        seq = seqs[0]
        if seq[0] != inst["root"] or length > inst["budget"] + budget_tol(points):
            return False, 0.0, "path not rooted or over budget"
        k_opt = optimum(inst)
        if visited > k_opt or visited < math.ceil((1.0 - delta) * k_opt):
            return False, 0.0, f"visited {visited}, k_opt {k_opt}"
        return True, (k_opt - visited) / k_opt, ""

    if kind == "ktsp":
        ends = [(inst["source"], inst["sink"])]
        opt = optimum(inst)
    else:
        ends = [tuple(p) for p in inst["pairs"]]
        interiors = [set(seq[1:-1]) for seq in seqs]
        for j, inner in enumerate(interiors):
            if any(inner & set(other) for i, other in enumerate(seqs) if i != j):
                return False, 0.0, "interior visits shared between paths"
        opt = optimum(inst)
    if len(seqs) != len(ends) or any(
        (seq[0], seq[-1]) != tuple(pair) for seq, pair in zip(seqs, ends)
    ):
        return False, 0.0, "path endpoints differ from the prescribed pairs"
    if visited < inst["k"]:
        return False, 0.0, f"visited {visited} < k {inst['k']}"
    excess = opt - sum(float(dmat[s, t]) for s, t in ends)
    slack = LENGTH_RTOL * max(1.0, opt)
    if length > opt + delta * excess + slack or length < opt - slack:
        return False, 0.0, f"length {length!r}, optimum {opt!r}"
    gap = 0.0 if length - opt <= slack else (length - opt) / max(excess, slack)
    return True, gap, ""
