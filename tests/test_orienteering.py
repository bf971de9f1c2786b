import math

import numpy as np
import pytest

from orienteer import (
    MultiPath,
    Path,
    PointSet,
    concatenate_skeleton_paths,
    skeleton_indices,
    solve_orienteering,
)
from orienteer.errors import InputError
from orienteer.generate import generate
from orienteer.io import Solution
from orienteer.oracle import brute_orienteering
from orienteer.orienteering import OrienteeringInstance, segment_count
from orienteer.paths import excess, path_length
from orienteer.verify import verify_solution


def test_skeleton_formula_examples():
    assert skeleton_indices(16, 3) == [1, 6, 11, 16]
    assert skeleton_indices(2, 1) == [1, 2]
    assert skeleton_indices(7, 3) == [1, 3, 5, 7]


def test_skeleton_gaps_exhaustive():
    for k in range(2, 65):
        for m in range(1, 9):
            alphas = skeleton_indices(k, m)
            assert alphas[0] == 1
            assert alphas[-1] == k
            assert all(b >= a for a, b in zip(alphas, alphas[1:]))
            gap_cap = (k - 1) // m
            assert all(b - a - 1 <= gap_cap for a, b in zip(alphas, alphas[1:]))


def test_segment_count_makes_inverse_at_most_delta():
    for delta in (0.5, 0.34, 0.25, 0.2, 0.13):
        m = segment_count(delta)
        assert 1.0 / m <= delta + 1e-12


def test_concatenate_identity_and_chain():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0]])
    single = MultiPath((Path(pts, (0, 1)),))
    assert concatenate_skeleton_paths(single, (0, 1)).visits == (0, 1)
    double = MultiPath((Path(pts, (0, 1)), Path(pts, (1, 2))))
    assert concatenate_skeleton_paths(double, (0, 1, 2)).visits == (0, 1, 2)


def test_concatenate_checks_junctions():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0]])
    bad = MultiPath((Path(pts, (0, 1)), Path(pts, (2, 1))))
    with pytest.raises(InputError):
        concatenate_skeleton_paths(bad, (0, 1, 2))


def test_concatenate_length_adds_up(rng):
    for _ in range(10):
        pts = PointSet(rng.random((9, 2)))
        ids = [int(i) for i in rng.permutation(9)]
        q = ids[:4]
        pieces = (
            Path(pts, (q[0], ids[4], q[1])),
            Path(pts, (q[1], ids[5], q[2])),
            Path(pts, (q[2], ids[6], q[3])),
        )
        multi = MultiPath(pieces)
        joined = concatenate_skeleton_paths(multi, q)
        assert path_length(joined) == pytest.approx(
            sum(path_length(p) for p in pieces), abs=1e-12
        )


def test_collinear_budget_instance():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0]])
    sol = solve_orienteering(OrienteeringInstance(pts, 0, 3.5, 0.5))
    assert sol.visited == 4
    assert sol.length == pytest.approx(3.0, abs=1e-9)
    assert sol.path.visits == (0, 1, 2, 3)


def test_zero_budget_returns_root_only():
    pts = PointSet([[0.0, 0], [1.0, 0]])
    sol = solve_orienteering(OrienteeringInstance(pts, 0, 0.0, 0.5))
    assert sol.visited == 1
    assert sol.path.visits == (0,)
    assert sol.length == 0.0


def test_guarantee_on_random_instances(rng):
    for trial in range(12):
        n = int(rng.integers(5, 10))
        pts = PointSet(rng.random((n, 2)))
        budget = float(rng.uniform(0.8, 2.0))
        k_opt, _ = brute_orienteering(pts, 0, budget)
        tol = 1e-9 * max(1.0, pts.diameter())
        for delta in (0.34, 0.5):
            sol = solve_orienteering(OrienteeringInstance(pts, 0, budget, delta))
            assert sol.length <= budget + tol
            assert sol.path.visits[0] == 0
            assert sol.visited >= math.ceil((1 - delta) * k_opt)
            assert sol.visited <= k_opt  # cannot beat the optimum
            assert sol.visited == len(set(sol.path.visits))



def test_guarantee_with_five_or_more_segments(rng):
    # delta < 1/4 asks for m = ceil(1/delta) >= 5 skeleton segments.
    for trial in range(12):
        n = int(rng.integers(7, 9))
        pts = PointSet(rng.random((n, 2)))
        budget = float(rng.uniform(1.0, 2.0))
        k_opt, _ = brute_orienteering(pts, 0, budget)
        for delta in (0.2, 0.15):
            sol = solve_orienteering(OrienteeringInstance(pts, 0, budget, delta))
            assert sol.length <= budget + 1e-9 * max(1.0, pts.diameter())
            assert math.ceil((1 - delta) * k_opt) <= sol.visited <= k_opt
            assert sol.visited == len(set(sol.path.visits))

def test_budget_chain_excess_split(rng):
    # Dropping the largest-excess skeleton segment of the optimal path leaves
    # a strictly shorter path on most of the points: the inequality chain the
    # reduction rides on, checked on oracle optima.
    for _ in range(10):
        n = int(rng.integers(6, 10))
        pts = PointSet(rng.random((n, 2)))
        budget = float(rng.uniform(1.0, 2.0))
        k_opt, opt_seq = brute_orienteering(pts, 0, budget)
        if k_opt < 3:
            continue
        m = min(3, k_opt - 1)
        alphas = skeleton_indices(k_opt, m)
        star = Path(pts, tuple(opt_seq))
        seg_excesses = []
        for a, b in zip(alphas, alphas[1:]):
            sub = star.subpath(opt_seq[a - 1], opt_seq[b - 1])
            seg_excesses.append(excess(sub))
        nu = int(np.argmax(seg_excesses))
        a, b = alphas[nu], alphas[nu + 1]
        kept = opt_seq[: a] + opt_seq[b - 1:]
        shortcut = Path(pts, tuple(kept))
        assert path_length(shortcut) == pytest.approx(
            path_length(star) - seg_excesses[nu], abs=1e-9
        )
        assert len(kept) >= (1 - 1 / m) * k_opt - 1e-12
        assert seg_excesses[nu] >= sum(seg_excesses) / m - 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_budget_tolerance_is_scale_relative(scale):
    # With a slack of 1e-9 * max(1, diameter), the 1e-9 copy of this
    # instance accepted an 8-visit path 72% over budget; the optimum visits 6.
    inst = generate(seed=3, n=8, d=2, kind="orienteering")
    inst.points = [[c * scale for c in p] for p in inst.points]
    inst.budget = 1.3 * scale
    pts = inst.point_set()
    sol = solve_orienteering(OrienteeringInstance(pts, inst.root, inst.budget, inst.delta))
    assert sol.visited == 6
    assert path_length(sol.path) <= inst.budget

    over = Path(pts, (0, 2, 5, 6, 7, 1, 3, 4))
    report = verify_solution(
        inst, Solution(kind="orienteering", length=path_length(over), visited=8,
                       visits=list(over.visits))
    )
    assert [c["check"] for c in report.checks if not c["ok"]] == ["within budget"]


def test_instance_validation():
    pts = PointSet([[0.0, 0], [1.0, 0]])
    with pytest.raises(InputError):
        OrienteeringInstance(pts, 5, 1.0, 0.5)
    with pytest.raises(InputError):
        OrienteeringInstance(pts, 0, -1.0, 0.5)
    with pytest.raises(InputError):
        OrienteeringInstance(pts, 0, 1.0, 1.5)


def test_coincident_skeleton_pair_is_solved():
    # Points 1 and 2 coincide, and the skeleton scan asks for the pair
    # (1, 2), which has no direction of its own.
    pts = PointSet([[0, 0], [0.5, 0.5], [0.5, 0.5], [1, 0]])
    sol = solve_orienteering(OrienteeringInstance(pts, 0, 1.2, 0.5))
    best, _ = brute_orienteering(pts, 0, 1.2)
    assert sol.visited == best == 3
    assert path_length(sol.path) <= 1.2
