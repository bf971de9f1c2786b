"""
Interleaved path systems and forward-facing directions
================================================

The multi-path solver routes several paths with prescribed endpoints so they
jointly visit k points as cheaply as possible.  Before sweeping it rotates
space so every prescribed segment faces forward: a random Gaussian direction
restricted to the span of the segment directions achieves inner product at
least 1/(8 m^1.5) with each of them (up to swapping a pair's endpoints).

Among the sweep's candidates is the whole set as one window, entered at each
pair's source.  ``solve_mktsp`` reads that one candidate with one window
oracle request, which the exact window oracle makes optimal, and needs no
rotation.  The demo runs the full sweep, kept in the package as the
reference for that read, next to it and checks that both give the same
paths and length.
"""

import math

import numpy as np

from orienteer import PointSet, find_direction, multipath_excess, orient_pairs, solve_mktsp
from orienteer.directions import angle_margin
from orienteer.geometry import angle_to_axis
from orienteer.mktsp import _sweep_mktsp
from orienteer.oracle import brute_mktsp

rng = np.random.default_rng(23)

# --- the direction guarantee, by itself --------------------------------
m = 3
vecs = rng.standard_normal((m, 4))
vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
res = find_direction(vecs, rng_seed=1)
print(f"{m} unit vectors in R^4")
print(f"axis   : {np.round(res.axis, 4)}")
print(f"signs  : {res.signs}")
print(f"margin : {res.margin:.4f} (guaranteed >= {1/(8*m*math.sqrt(min(4, m))):.4f})")

# --- orienting endpoint pairs ------------------------------------------
n = 8
pts = PointSet(rng.random((n, 2)))
pairs = [(0, 1), (2, 3), (4, 5)]
transform, swapped = orient_pairs(pts, pairs, rng_seed=1)
moved = pts.transformed(transform)
limit = math.pi / 2 - angle_margin(len(pairs))
print(f"\nafter rotation (swapped = {swapped}), every pair faces forward:")
for (s, t), flip in zip(pairs, swapped):
    if flip:
        s, t = t, s
    ang = angle_to_axis(moved.coords[t] - moved.coords[s])
    print(f"  pair ({s},{t}): angle to sweep axis {ang:.4f} <= {limit:.4f}")

# --- the multi-path sweep vs. the one-window read vs. enumeration ------
for k in range(6, n + 1):
    multi, total = _sweep_mktsp(pts, pairs, k)
    read_multi, read_total = solve_mktsp(pts, pairs, k)
    _, opt = brute_mktsp(pts, pairs, k)
    print(
        f"\nk={k}: sweep total {total:.6f}, read {read_total:.6f}, "
        f"enumeration {opt:.6f}, joint excess {multipath_excess(multi):.4f}"
    )
    for j, (path, read_path) in enumerate(zip(multi.paths, read_multi.paths)):
        print(
            f"  path {j}: sweep {'-'.join(str(v) for v in path.visits)}, "
            f"read {'-'.join(str(v) for v in read_path.visits)}"
        )
    assert abs(total - opt) <= 1e-9
    assert [p.visits for p in read_multi.paths] == [p.visits for p in multi.paths]
    assert read_total == total
print("\nsweep equals enumeration at every k, and the read equals the sweep.")
