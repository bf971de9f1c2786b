"""Acceptance suite: every guarantee the package makes, at its stated
tolerance, against independent enumeration oracles.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Instance counts meet or exceed the stated minimums; all
randomness is seeded, so failures reproduce exactly.
"""

import math
import time

import numpy as np

from orienteer import (
    Path,
    PointSet,
    decompose_path,
    directed_edge_partition,
    excess,
    find_direction,
    offangle_edge_mass,
    orient_pairs,
    skeleton_indices,
    solve_ktsp,
    solve_mktsp,
    solve_orienteering,
    window_excess,
)
from orienteer.cli import main
from orienteer.directions import angle_margin, margin_bound
from orienteer.geometry import angle_to_axis, rotate_to_axis
from orienteer.io import load_solution
from orienteer.oracle import brute_ktsp, brute_mktsp, brute_orienteering
from orienteer.orienteering import OrienteeringInstance
from orienteer.paths import edge_set_length, path_length
from test_windows import enumerate_windows

SLACK = 1e-12  # rounding slack for the exact-inequality suite


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _axis(dim: int):
    return tuple([1.0] + [0.0] * (dim - 1))


def test_criterion_1_ktsp_guarantee():
    rng = np.random.default_rng(101)
    start = time.time()
    checked = 0
    worst_rel = 0.0
    for trial in range(200):
        n = int(rng.integers(4, 11))
        d = 2 if trial % 2 == 0 else 3
        delta = 0.25 if trial % 4 < 2 else 0.5
        pts = PointSet(rng.random((n, d)))
        k = int(rng.integers(3, n + 1))
        path, length = solve_ktsp(pts, 0, 1, k)
        _, opt = brute_ktsp(pts, 0, 1, k)
        direct = pts.distance(0, 1)
        assert length <= opt + delta * (opt - direct) + 1e-9 * max(1.0, opt)
        rel = abs(length - opt) / max(opt, 1e-30)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-9
        assert path.visits[0] == 0 and path.visits[-1] == 1
        assert len(set(path.visits)) >= k
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(1, "k-TSP guarantee", checked == 200,
            f"{checked} instances, worst rel gap {worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_2_mktsp_guarantee():
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(105):
        m = trial % 3 + 1
        n_lo = max(4, 2 * m)
        n = int(rng.integers(n_lo, 9))
        pts = PointSet(rng.random((n, 2)))
        ids = [int(i) for i in rng.permutation(n)]
        pairs = [(ids[2 * j], ids[2 * j + 1]) for j in range(m)]
        n_eps = len({x for p in pairs for x in p})
        k = int(rng.integers(n_eps, n + 1))
        multi, total = solve_mktsp(pts, pairs, k)
        _, opt = brute_mktsp(pts, pairs, k)
        assert abs(total - opt) <= 1e-9 * max(1.0, opt)
        for p, (s, t) in zip(multi.paths, pairs):
            assert p.visits[0] == s and p.visits[-1] == t
        assert len(multi.visited_ids()) >= k
        if m == 1 and k >= 2:
            _, ref = solve_ktsp(pts, pairs[0][0], pairs[0][1], k)
            assert abs(total - ref) <= 1e-9 * max(1.0, ref)
        checked += 1
    _report(2, "(m,k)-TSP guarantee", checked == 105, f"{checked} instances, m in 1..3")


def test_criterion_3_orienteering_guarantee():
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(5, 10))
        pts = PointSet(rng.random((n, 2)))
        delta = 0.34 if trial % 2 == 0 else 0.5
        budget = float(rng.uniform(0.7, 2.1))
        k_opt, _ = brute_orienteering(pts, 0, budget)
        sol = solve_orienteering(OrienteeringInstance(pts, 0, budget, delta))
        tol = 1e-9 * max(1.0, pts.diameter())
        assert sol.length <= budget + tol
        assert sol.path.visits[0] == 0
        assert sol.visited >= math.ceil((1.0 - delta) * k_opt)
        checked += 1
    _report(3, "orienteering guarantee", checked == 60,
            f"{checked} instances, delta in {{0.34, 0.5}}")


def test_criterion_4_inequality_suite():
    rng = np.random.default_rng(404)
    paths = []
    for trial in range(500):
        n = int(rng.integers(4, 11))
        d = 2 if trial % 2 == 0 else 3
        pts = PointSet(rng.random((n, d)))
        order = tuple(int(i) for i in rng.permutation(n))
        rotated, _ = rotate_to_axis(pts, order[0], order[-1])
        paths.append(Path(rotated, order))

    backward_viol = windows_viol = perwindow_viol = offangle_viol = 0
    for path in paths:
        host = path.host
        axis = _axis(host.dim)
        e_path = excess(path)
        _, backward = directed_edge_partition(path, axis)
        if edge_set_length(host, backward) > e_path + SLACK:
            backward_viol += 1
        deco = decompose_path(path)
        pieces = list(zip(deco.windows, deco.entry_exit))
        if sum(window_excess(path, w, c, d) for w, (c, d) in pieces) > e_path + SLACK:
            windows_viol += 1
        for w, (c, d) in pieces:
            sub = path.subpath(c, d)
            _, sub_back = directed_edge_partition(sub, axis)
            lhs = path_length(sub)
            rhs = 2 * max(edge_set_length(host, sub_back), window_excess(path, w, c, d))
            if lhs > rhs + SLACK:
                perwindow_viol += 1
        for gamma in (0.1, 0.5, 1.0):
            if offangle_edge_mass(path, gamma) > (24.0 / (11.0 * gamma**2)) * e_path + SLACK:
                offangle_viol += 1

    total_viol = backward_viol + windows_viol + perwindow_viol + offangle_viol
    _report(4, "inequality suite", total_viol == 0,
            f"500 rotated paths; violations: backward {backward_viol}, "
            f"window-sum {windows_viol}, per-window {perwindow_viol}, "
            f"off-angle {offangle_viol}")


def test_criterion_5_direction_guarantee():
    rng = np.random.default_rng(505)
    margin_viol = angle_viol = 0
    regimes = {"d<m": 0, "d>m": 0, "d=m": 0}
    for trial in range(100):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        regimes["d<m" if d < m else ("d>m" if d > m else "d=m")] += 1
        vecs = rng.standard_normal((m, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        res = find_direction(vecs, rng_seed=trial, max_attempts=10000)
        bound = margin_bound(m, d)
        if res.margin < bound:
            margin_viol += 1
        for sign, v in zip(res.signs, vecs):
            if sign * float(np.dot(res.axis, v)) < bound:
                margin_viol += 1

        # endpoint pairs for the rotation guarantee
        pts = PointSet(rng.random((2 * m, d)) * 2 - 1)
        pairs = [(2 * j, 2 * j + 1) for j in range(m)]
        try:
            transform, swapped = orient_pairs(pts, pairs, rng_seed=trial)
        except Exception:
            margin_viol += 1
            continue
        moved = pts.transformed(transform)
        limit = math.pi / 2 - angle_margin(m)
        for (s, t), flip in zip(pairs, swapped):
            if flip:
                s, t = t, s
            if angle_to_axis(moved.coords[t] - moved.coords[s]) > limit + SLACK:
                angle_viol += 1
    ok = margin_viol == 0 and angle_viol == 0 and regimes["d<m"] > 0 and regimes["d>m"] > 0
    _report(5, "direction guarantee", ok,
            f"100 inputs ({regimes}); margin violations {margin_viol}, "
            f"angle violations {angle_viol}")


def test_criterion_6_skeleton_formula_exhaustive():
    bad = 0
    for k in range(2, 65):
        for m in range(1, 9):
            alphas = skeleton_indices(k, m)
            gap_cap = (k - 1) // m
            if alphas[0] != 1 or alphas[-1] != k:
                bad += 1
            elif any(b - a - 1 > gap_cap for a, b in zip(alphas, alphas[1:])):
                bad += 1
    _report(6, "skeleton formula", bad == 0, f"k in 2..64, m in 1..8, {bad} violations")


def test_criterion_7_window_count_exhaustive():
    rng = np.random.default_rng(707)
    bad = 0
    for n in range(1, 31):
        pts = PointSet(rng.random((n, 2)))
        if len(enumerate_windows(pts)) != n * (n + 1) // 2:
            bad += 1
    _report(7, "window count", bad == 0, f"n in 1..30, {bad} mismatches")


def test_criterion_8_roundtrip_determinism(tmp_path):
    issues = []
    for kind, seed in (("ktsp", 21), ("mktsp", 22), ("orienteering", 23)):
        inst_a = tmp_path / f"{kind}_a.json"
        inst_b = tmp_path / f"{kind}_b.json"
        for target in (inst_a, inst_b):
            code = main(["generate", "--kind", kind, "--seed", str(seed),
                         "--n", "7", "-o", str(target)])
            if code != 0:
                issues.append(f"{kind}: generate exit {code}")
        if inst_a.read_bytes() != inst_b.read_bytes():
            issues.append(f"{kind}: generate not deterministic")

        sol_a = tmp_path / f"{kind}_sol_a.json"
        sol_b = tmp_path / f"{kind}_sol_b.json"
        for target in (sol_a, sol_b):
            code = main(["solve", str(inst_a), "-o", str(target)])
            if code != 0:
                issues.append(f"{kind}: solve exit {code}")
        if sol_a.read_bytes() != sol_b.read_bytes():
            issues.append(f"{kind}: solve not deterministic")

        if main(["verify", str(inst_a), str(sol_a), "--oracle-check"]) != 0:
            issues.append(f"{kind}: verification failed")
        if load_solution(sol_a).verification != "passed":
            issues.append(f"{kind}: solution not marked verified")

        svg_a = tmp_path / f"{kind}.svg"
        svg_b = tmp_path / f"{kind}_again.svg"
        for target in (svg_a, svg_b):
            code = main(["render", str(inst_a), str(sol_a), "-o", str(target)])
            if code != 0:
                issues.append(f"{kind}: render exit {code}")
        if svg_a.read_bytes() != svg_b.read_bytes():
            issues.append(f"{kind}: render not deterministic")
    _report(8, "round-trip determinism", not issues, "; ".join(issues) or "all pipelines byte-stable")
