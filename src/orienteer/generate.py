"""Seeded instance generators.

All randomness flows through one numpy generator seeded by the caller, so a
(seed, n, d, distribution, kind) tuple always produces the same instance,
byte for byte.  Coordinates live in the unit cube.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .io import Instance

DISTRIBUTIONS = ("uniform-cube", "clustered", "collinear-jitter")

#: Clustered points fall in ceil(n / CLUSTER_FRACTION) balls of CLUSTER_RADIUS.
CLUSTER_FRACTION = 5
CLUSTER_RADIUS = 0.05


def generate_points(seed: int, n: int, d: int, distribution: str, jitter: float = 0.01) -> np.ndarray:
    if n < 1 or d < 1:
        raise InputError("need n >= 1 and d >= 1")
    if distribution not in DISTRIBUTIONS:
        raise InputError(f"unknown distribution {distribution!r}; pick from {DISTRIBUTIONS}")
    rng = np.random.default_rng(seed)
    if distribution == "uniform-cube":
        return rng.random((n, d))
    if distribution == "clustered":
        n_centers = math.ceil(n / CLUSTER_FRACTION)
        centers = 0.1 + 0.8 * rng.random((n_centers, d))
        pts = np.empty((n, d))
        for i in range(n):
            center = centers[i % n_centers]
            direction = rng.standard_normal(d)
            direction /= max(np.linalg.norm(direction), 1e-12)
            radius = CLUSTER_RADIUS * rng.random() ** (1.0 / d)
            pts[i] = center + radius * direction
        return pts
    # collinear-jitter: points along the main diagonal plus bounded noise
    a = np.full(d, 0.05)
    b = np.full(d, 0.95)
    ts = np.sort(rng.random(n))
    pts = a + ts[:, None] * (b - a)
    if jitter:
        pts = pts + jitter * rng.uniform(-1.0, 1.0, size=(n, d))
    return np.clip(pts, 0.0, 1.0)


def generate(
    seed: int,
    n: int,
    d: int,
    distribution: str = "uniform-cube",
    kind: str = "orienteering",
    jitter: float = 0.01,
    delta: float = 0.5,
    k: int | None = None,
    budget: float | None = None,
    m: int = 2,
) -> Instance:
    """Deterministic instance of the requested kind with sensible defaults.

    The orienteering budget, when not supplied, is set to 70% of the greedy
    nearest-neighbour chain length from the root, which keeps the optimum
    interestingly below n.
    """
    pts = generate_points(seed, n, d, distribution, jitter)
    points = [[float(x) for x in row] for row in pts]
    if kind == "orienteering":
        if budget is None:
            budget = round(0.7 * _greedy_chain_length(pts, 0), 6)
        inst = Instance(kind=kind, points=points, delta=delta, root=0, budget=budget)
    elif kind == "ktsp":
        if n < 2:
            raise InputError("ktsp needs at least two points")
        inst = Instance(
            kind=kind,
            points=points,
            delta=delta,
            source=0,
            sink=n - 1,
            k=k if k is not None else max(2, (n + 1) // 2),
        )
    elif kind == "mktsp":
        if n < 2 * m:
            raise InputError(f"mktsp with m={m} needs at least {2 * m} points")
        pairs = [[2 * j, 2 * j + 1] for j in range(m)]
        inst = Instance(
            kind=kind,
            points=points,
            delta=delta,
            pairs=pairs,
            k=k if k is not None else min(n, 2 * m + 1),
        )
    else:
        raise InputError(f"unknown problem kind {kind!r}")
    return inst.validate()


def _greedy_chain_length(pts: np.ndarray, start: int) -> float:
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    # One dot product per pair, which rounds as np.linalg.norm of the pair does.
    dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None]))[..., 0, 0]
    left = np.ones(n, dtype=bool)
    left[start] = False
    cur, total = start, 0.0
    for _ in range(n - 1):
        nxt = int(np.argmin(np.where(left, dist[cur], np.inf)))
        total += float(dist[cur, nxt])
        left[nxt] = False
        cur = nxt
    return total
