"""Workload definitions: the instance list of each workload as a function of
the seed.

A workload is a list of cells, each a set of `orienteer.generate.generate`
arguments without the seed.  Instance i of a run uses cell i mod len(cells)
and an instance seed drawn from the run seed, so the same run seed always
gives the same instance files, and every stretch of len(cells) instances
covers each cell once, so a run cut short by its time limit still sees an
even mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

DISTRIBUTIONS = ("uniform-cube", "clustered", "collinear-jitter")


@dataclass(frozen=True)
class Workload:
    """`pool` instances are generated per run; a run that solves more cycles
    through them.  `tail_pct` is the tail percentile reported, fixed so that
    the metric means the same on every run; it is chosen so that a 50-second
    run leaves at least ten solves beyond it (see README.md)."""

    name: str
    why: str
    cells: tuple  # generate() keyword arguments, seed excluded
    pool: int
    tail_pct: int

    def instances(self, seed: int) -> list[dict]:
        """The generate() argument dicts of run seed `seed`."""
        rng = random.Random(seed)
        out = []
        for i in range(self.pool):
            spec = dict(self.cells[i % len(self.cells)])
            spec["seed"] = rng.randrange(2**31)
            out.append(spec)
        return out


def _ktsp_cells(n):
    cells = []
    for dist, d, long_k in product(DISTRIBUTIONS, (2, 3), (False, True)):
        cell = {"kind": "ktsp", "n": n, "d": d, "distribution": dist}
        if long_k:
            cell["k"] = n - 2
        cells.append(cell)
    return tuple(cells)


def _mktsp_cells(n_m3, n_m2):
    """m = 3 at the default k = 2m + 1, and m = 2 at k = n - 3."""
    cells = []
    for dist in DISTRIBUTIONS:
        cells.append({"kind": "mktsp", "n": n_m3, "d": 2, "distribution": dist, "m": 3})
        cells.append(
            {"kind": "mktsp", "n": n_m2, "d": 2, "distribution": dist, "m": 2, "k": n_m2 - 3}
        )
    return tuple(cells)


def _orienteering_cells(n):
    return tuple(
        {"kind": "orienteering", "n": n, "d": 2, "distribution": dist, "delta": delta}
        for dist, delta in product(DISTRIBUTIONS, (0.5, 0.34))
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ktsp-table",
            "k-TSP: the single-slot window table does nearly all the work; "
            "multi-slot DP runs only in reconstruction",
            _ktsp_cells(11),
            pool=160,
            tail_pct=75,
        ),
        # Runs by name, but is not in BENCHMARK.json: with three workloads a
        # run could last only 30 s, and its spread across seeds was too wide
        # to gate (README.md).
        Workload(
            "mktsp-states",
            "(m,k)-TSP: never builds a single-slot table; the window oracle is a "
            "hit-heavy memo (m=3) and a miss-heavy multi-slot DP (m=2, k=n-3)",
            _mktsp_cells(9, 11),
            pool=240,
            tail_pct=75,
        ),
        Workload(
            "orienteering-scan",
            "orienteering: one whole-set table for the rooted bound, then cost-capped "
            "(m,k)-TSP calls, each with a fresh solver; heavy-tailed per instance",
            _orienteering_cells(7),
            pool=720,
            tail_pct=90,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload shrunk to at most 8 points per instance, for self-tests.

    Every size drops by the same amount, and k keeps its distance from n.
    """
    shift = max(0, max(cell["n"] for cell in workload.cells) - 8)
    cells = []
    for cell in workload.cells:
        small = dict(cell, n=cell["n"] - shift)
        if "k" in cell:
            small["k"] = max(cell["k"] - shift, 2 * cell.get("m", 1))
        cells.append(small)
    return Workload(workload.name, workload.why, tuple(cells), 2 * len(cells), 50)
