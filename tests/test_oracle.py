import math

import numpy as np
import pytest

from orienteer import PointSet, solve_orienteering
from orienteer.errors import CapacityError, InfeasibleError
from orienteer.oracle import brute_ktsp, brute_mktsp, brute_orienteering
from orienteer.orienteering import OrienteeringInstance


def test_ktsp_collinear():
    pts = [[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]]
    seq, length = brute_ktsp(pts, 0, 3, 4)
    assert seq == [0, 1, 2, 3]
    assert length == pytest.approx(3.0, abs=0)


def test_ktsp_k2_is_direct():
    pts = [[0.0, 0], [5.0, 12.0], [1.0, 1.0]]
    seq, length = brute_ktsp(pts, 0, 1, 2)
    assert seq == [0, 1]
    assert length == pytest.approx(13.0, abs=0)


def test_ktsp_unit_square():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    seq, length = brute_ktsp(pts, 0, 2, 4)
    assert length == pytest.approx(2 + math.sqrt(2), abs=1e-12)
    assert seq[0] == 0 and seq[-1] == 2


def test_ktsp_monotone_in_k(rng):
    pts = rng.random((8, 2))
    lengths = [brute_ktsp(pts, 0, 1, k)[1] for k in range(2, 9)]
    assert all(b >= a - 1e-12 for a, b in zip(lengths, lengths[1:]))


def test_ktsp_cap():
    pts = np.zeros((40, 2))
    with pytest.raises(CapacityError):
        brute_ktsp(pts, 0, 1, 3)


def test_mktsp_agrees_with_ktsp_for_one_pair(rng):
    for _ in range(20):
        n = int(rng.integers(4, 9))
        pts = rng.random((n, 2))
        k = int(rng.integers(2, n + 1))
        _, a = brute_ktsp(pts, 0, 1, k)
        _, b = brute_mktsp(pts, [(0, 1)], k)
        assert b == pytest.approx(a, rel=1e-12)


def test_mktsp_endpoints_only_is_sum_of_pairs():
    pts = [[0.0, 0], [1.0, 0], [0.0, 1], [1.0, 1]]
    paths, length = brute_mktsp(pts, [(0, 1), (2, 3)], 4)
    assert paths == [[0, 1], [2, 3]]
    assert length == pytest.approx(2.0, abs=0)


def test_mktsp_forced_assignment_at_full_k():
    pts = [[0.0, 0], [3.0, 0], [0.0, 5], [3.0, 5]]
    _, length = brute_mktsp(pts, [(0, 1), (2, 3)], 4)
    assert length == pytest.approx(6.0, abs=0)


def test_mktsp_infeasible_k():
    pts = [[0.0, 0], [1.0, 0], [2.0, 0]]
    with pytest.raises(InfeasibleError):
        brute_mktsp(pts, [(0, 1)], 1)


def test_orienteering_zero_budget():
    pts = [[0.0, 0], [1.0, 0]]
    k_opt, path = brute_orienteering(pts, 0, 0.0)
    assert k_opt == 1
    assert path == [0]


def test_orienteering_allows_the_solvers_slack():
    # The second point lies 5e-10 past the budget, within the 1e-9 times
    # the diameter that the solver and ``verify`` allow, so both count it.
    pts = [[0.0, 0], [1 + 5e-10, 0]]
    k_opt, path = brute_orienteering(pts, 0, 1.0)
    assert (k_opt, path) == (2, [0, 1])
    sol = solve_orienteering(OrienteeringInstance(PointSet(pts), 0, 1.0, 0.5))
    assert sol.visited == k_opt


def test_orienteering_slack_budget_visits_everything(rng):
    pts = rng.random((7, 2))
    k_opt, _ = brute_orienteering(pts, 0, 100.0)
    assert k_opt == 7


def test_orienteering_monotone_in_budget(rng):
    for _ in range(10):
        pts = rng.random((8, 2))
        lo, _ = brute_orienteering(pts, 0, 0.7)
        hi, _ = brute_orienteering(pts, 0, 1.4)
        assert hi >= lo


def test_orienteering_path_within_budget(rng):
    pts = rng.random((8, 2))
    budget = 1.3
    k_opt, path = brute_orienteering(pts, 0, budget)
    coords = np.asarray(pts)
    length = sum(
        float(np.linalg.norm(coords[path[i + 1]] - coords[path[i]]))
        for i in range(len(path) - 1)
    )
    assert len(path) == k_opt and path[0] == 0
    assert length <= budget + 1e-12
