"""Independent brute-force ground truth for the sweep solvers.

Everything here is deliberately naive enumeration over subsets and orderings,
with hard caps on instance size.  These functions share no logic with the
solver modules (they compute their own distances from raw coordinates), so
agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .errors import CapacityError, InfeasibleError, InputError
from .geometry import LENGTH_RTOL

DEFAULT_MAX_POINTS = 10
DEFAULT_MAX_PATHS = 3


def max_points_cap() -> int:
    return DEFAULT_MAX_POINTS


def _coords(points) -> np.ndarray:
    coords = np.asarray(getattr(points, "coords", points), dtype=float)
    if coords.ndim != 2:
        raise InputError("expected an (n, d) coordinate array")
    return coords


def _check_cap(n: int, m: int = 1):
    if n > DEFAULT_MAX_POINTS:
        raise CapacityError(f"n={n} over the oracle cap")
    if m > DEFAULT_MAX_PATHS:
        raise CapacityError(f"{m} paths over the oracle cap")


def distances(coords: np.ndarray) -> np.ndarray:
    """All pairwise distances of an (n, d) coordinate array.

    A pair whose largest coordinate difference is below 1e-150 is scaled by
    that difference first, so that its squares do not underflow.
    """
    diff = coords[:, None, :] - coords[None, :, :]
    out = np.linalg.norm(diff, axis=2)
    scale = np.abs(diff).max(axis=2)
    tiny = (scale > 0.0) & (scale < 1e-150)
    out[tiny] = scale[tiny] * np.linalg.norm(diff[tiny] / scale[tiny, None], axis=1)
    return out


def seq_length(dmat: np.ndarray, seq) -> float:
    """Length of the path visiting `seq` in order."""
    return float(sum(dmat[seq[i], seq[i + 1]] for i in range(len(seq) - 1)))


def brute_ktsp(points, source: int, sink: int, k: int) -> tuple[list[int], float]:
    """Exact minimum path from source to sink visiting exactly k points.

    Enumerates every (k-2)-subset of interior candidates and every ordering.
    Visiting more than k points never shortens a minimal path, so this is
    also the optimum under an at-least-k reading.
    """
    coords = _coords(points)
    n = coords.shape[0]
    _check_cap(n)
    if source == sink:
        raise InputError("source and sink must differ")
    if not (2 <= k <= n):
        raise InfeasibleError(f"k={k} out of range for n={n}")
    dmat = distances(coords)
    others = [i for i in range(n) if i not in (source, sink)]
    best_len, best_seq = np.inf, None
    for interior in combinations(others, k - 2):
        for perm in permutations(interior):
            seq = (source, *perm, sink)
            length = seq_length(dmat, seq)
            if length < best_len:
                best_len, best_seq = length, list(seq)
    return best_seq, best_len


def brute_mktsp(points, pairs, k: int) -> tuple[list[list[int]], float]:
    """Exact minimum multi-path: one path per (source, sink) pair, jointly
    visiting exactly k distinct points.

    Enumerates the interior subset, its assignment to slots, and per-slot
    orderings.  Prescribed endpoints may repeat across pairs; interiors are
    kept disjoint from everything else, which loses no generality.
    """
    coords = _coords(points)
    n = coords.shape[0]
    m = len(pairs)
    _check_cap(n, m)
    endpoint_ids: set[int] = set()
    for s, t in pairs:
        if s == t:
            raise InputError(f"degenerate pair ({s}, {t})")
        endpoint_ids.update((s, t))
    if not (len(endpoint_ids) <= k <= n):
        raise InfeasibleError(f"k={k} infeasible with {len(endpoint_ids)} endpoints, n={n}")
    dmat = distances(coords)
    candidates = [i for i in range(n) if i not in endpoint_ids]
    extra = k - len(endpoint_ids)
    best_len, best_paths = np.inf, None
    for interior in combinations(candidates, extra):
        for assign in _assignments(interior, m):
            total = 0.0
            paths = []
            for (s, t), group in zip(pairs, assign):
                seg_best, seg_path = np.inf, None
                for perm in permutations(group):
                    seq = (s, *perm, t)
                    length = seq_length(dmat, seq)
                    if length < seg_best:
                        seg_best, seg_path = length, list(seq)
                total += seg_best
                paths.append(seg_path)
            if total < best_len:
                best_len, best_paths = total, paths
    return best_paths, best_len


def _assignments(items, m: int):
    """All ways to split `items` into m (unordered) groups, as index maps."""
    if not items:
        yield tuple([()] * m)
        return
    head, tail = items[0], items[1:]
    for rest in _assignments(tail, m):
        for slot in range(m):
            yield tuple(
                rest[j] + (head,) if j == slot else rest[j] for j in range(m)
            )


def brute_orienteering(points, root: int, budget: float) -> tuple[int, list[int]]:
    """Exact maximum number of points reachable by a rooted path within budget.

    Depth-first search over all partial orderings starting at the root,
    pruned on the running length; exhaustive, hence exact.  A path fits when
    its length is at most the budget plus the slack that the solvers and
    ``verify`` allow, ``LENGTH_RTOL`` times the diameter.
    """
    coords = _coords(points)
    n = coords.shape[0]
    _check_cap(n)
    if budget < 0:
        raise InputError("budget must be nonnegative")
    dmat = distances(coords)
    limit = budget + LENGTH_RTOL * dmat.max()
    best_count = 1
    best_path = [root]

    def extend(path, used, length):
        nonlocal best_count, best_path
        if len(path) > best_count:
            best_count = len(path)
            best_path = list(path)
        last = path[-1]
        for nxt in range(n):
            if nxt in used:
                continue
            step = length + dmat[last, nxt]
            if step <= limit:
                path.append(nxt)
                used.add(nxt)
                extend(path, used, step)
                path.pop()
                used.remove(nxt)

    extend([root], {root}, 0.0)
    return best_count, best_path
