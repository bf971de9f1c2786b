"""
Rooted k-TSP by plane sweep
===========================

Pick k points to visit between two fixed endpoints so the path is as short
as possible.  The sweep orders points along an axis through the endpoints
and stitches exactly-solved window subproblems with forward edges; with the
exact window oracle it lands on the true optimum, which we confirm against
independent brute-force enumeration for every k.

Among the sweep's candidates is the whole set as one window, entered at
the source.  ``solve_ktsp`` reads that one candidate straight from one
Held-Karp pass, which the exact window oracle makes optimal.  The demo
runs the full sweep, kept in the package as the reference for that read,
and checks that it gives the read's visits and length.
"""

import time

import numpy as np

from orienteer import PointSet, excess, solve_ktsp
from orienteer.ktsp import _sweep_ktsp
from orienteer.oracle import brute_ktsp

rng = np.random.default_rng(11)
n = 9
pts = PointSet(rng.random((n, 2)))
source, sink = 0, 1
print(f"{n} random points in the unit square, endpoints {source} -> {sink}\n")
print(f"{'k':>3} {'sweep length':>13} {'brute force':>12} {'excess':>8}  path")

for k in range(2, n + 1):
    t0 = time.time()
    path, length = _sweep_ktsp(pts, source, sink, k)
    dt = time.time() - t0
    read_path, read_length = solve_ktsp(pts, source, sink, k)
    _, opt = brute_ktsp(pts, source, sink, k)
    assert abs(length - opt) <= 1e-9, "sweep must equal the enumeration optimum"
    assert (read_path.visits, read_length) == (path.visits, length), "sweep must equal the read"
    print(
        f"{k:>3} {length:>13.6f} {opt:>12.6f} {excess(path):>8.4f}  "
        f"{'-'.join(str(v) for v in path.visits)}  ({dt*1000:.0f} ms)"
    )

print(
    "\nEvery row matches: the sweep explores a superset of window"
    "\ndecompositions that includes the optimum's own, so an exact window"
    "\noracle makes the whole dynamic program exact.  Each row also equals"
    "\na solve's one-window read, visit for visit and bit for bit."
)
