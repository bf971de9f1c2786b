"""Independent re-checking of solution files against their instances.

``verify_solution`` recomputes everything that can be recomputed from raw
coordinates (lengths, visit counts, endpoint and budget constraints) and,
when asked, re-solves small instances with the brute-force oracles to check
the approximation guarantees themselves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .io import Instance, Solution
from .oracle import brute_ktsp, brute_mktsp, brute_orienteering, distances, seq_length


@dataclass
class Report:
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": self.checks}


def verify_solution(instance: Instance, solution: Solution, oracle_check: bool = False) -> Report:
    report = Report()
    coords = np.asarray(instance.points, dtype=float)
    n = instance.n
    report.add("kind", solution.kind == instance.kind,
               f"instance {instance.kind}, solution {solution.kind}")
    if solution.kind != instance.kind:
        return report

    seqs = solution.sequences
    in_range = all(0 <= v < n for seq in seqs for v in seq)
    report.add("indices in range", in_range)
    if not in_range:
        return report
    no_repeats = all(len(set(seq)) == len(seq) for seq in seqs)
    report.add("no repeated visits in a path", no_repeats)

    dmat = distances(coords)
    length = sum(seq_length(dmat, seq) for seq in seqs)
    tol = instance.point_set().length_tolerance()
    report.add(
        "length recomputes",
        math.isfinite(solution.length) and abs(length - solution.length) <= tol,
        f"reported {solution.length!r}, recomputed {length!r}",
    )
    visited = len({v for seq in seqs for v in seq})
    report.add("visited count", visited == solution.visited,
               f"reported {solution.visited}, recomputed {visited}")

    if instance.kind == "orienteering":
        seq = seqs[0]
        report.add("rooted at start", bool(seq) and seq[0] == instance.root)
        report.add("within budget", length <= instance.budget + tol,
                   f"length {length!r}, budget {instance.budget!r}")
    elif instance.kind == "ktsp":
        seq = seqs[0]
        report.add("endpoints", bool(seq) and seq[0] == instance.source and seq[-1] == instance.sink)
        report.add("visit count >= k", visited >= instance.k,
                   f"visited {visited}, k {instance.k}")
    else:
        ok_pairs = len(seqs) == len(instance.pairs) and all(
            seq and seq[0] == pair[0] and seq[-1] == pair[1]
            for seq, pair in zip(seqs, instance.pairs)
        )
        report.add("per-pair endpoints", ok_pairs)
        owners = Counter(v for seq in seqs for v in set(seq))
        disjoint = all(owners[v] == 1 for seq in seqs for v in seq[1:-1])
        report.add("interior visits disjoint", disjoint)
        report.add("visit count >= k", visited >= instance.k,
                   f"visited {visited}, k {instance.k}")

    if oracle_check:
        _oracle_checks(report, instance, coords, dmat, length, visited, tol)
    return report


def _oracle_checks(report, instance, coords, dmat, length, visited, tol):
    delta = instance.delta
    try:
        if instance.kind == "ktsp":
            _, opt = brute_ktsp(coords, instance.source, instance.sink, instance.k)
            excess = opt - float(dmat[instance.source, instance.sink])
            bound = opt + delta * excess + tol
            report.add("excess guarantee", length <= bound,
                       f"length {length!r}, optimum {opt!r}, bound {bound!r}")
        elif instance.kind == "mktsp":
            _, opt = brute_mktsp(coords, [tuple(p) for p in instance.pairs], instance.k)
            direct = sum(float(dmat[s, t]) for s, t in instance.pairs)
            bound = opt + delta * (opt - direct) + tol
            report.add("excess guarantee", length <= bound,
                       f"length {length!r}, optimum {opt!r}, bound {bound!r}")
        else:
            k_opt, _ = brute_orienteering(coords, instance.root, instance.budget)
            need = math.ceil((1.0 - delta) * k_opt)
            report.add("visit guarantee", visited >= need,
                       f"visited {visited}, k_opt {k_opt}, required {need}")
    except CapacityError as exc:
        report.add("oracle", True, f"skipped: {exc}")
